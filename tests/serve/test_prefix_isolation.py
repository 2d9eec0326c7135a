"""Per-tenant keyspace isolation over one shared backend.

Two tenants run the *same* scenario with the *same* environment names under
one state root; every read through one tenant's view must see only that
tenant's records — on the JSONL and in-memory backends.
"""

from __future__ import annotations

import pytest

from repro.correlate import FleetIncidentStore
from repro.serve import TenantRegistry
from repro.storage import JsonlBackend, MemoryBackend
from repro.stream import FleetEventLog, IncidentStore


def _open_backend(kind: str, tmp_path):
    if kind == "memory":
        return MemoryBackend()
    return JsonlBackend(tmp_path / "shared")


BACKENDS = ("memory", "jsonl")


@pytest.mark.parametrize("kind", BACKENDS)
def test_event_logs_are_isolated(kind, tmp_path):
    shared = _open_backend(kind, tmp_path)
    registry = TenantRegistry(tmp_path / "root", shared)
    acme = registry.backend_for(registry.create("acme"))
    globex = registry.backend_for(registry.create("globex"))

    log_a = FleetEventLog(acme)
    log_b = FleetEventLog(globex)
    # Identical env names, identical event shapes — only the prefix differs.
    for i in range(5):
        log_a.append({"type": "tick", "env": "env-0", "n": i, "tenant": "acme"})
    for i in range(3):
        log_b.append({"type": "tick", "env": "env-0", "n": i, "tenant": "globex"})

    got_a = list(log_a.tail(-1))
    got_b = list(log_b.tail(-1))
    assert [r["event"]["tenant"] for r in got_a] == ["acme"] * 5
    assert [r["event"]["tenant"] for r in got_b] == ["globex"] * 3
    # Sequences are per-tenant, each starting from zero.
    assert [r["seq"] for r in got_a] == list(range(5))
    assert [r["seq"] for r in got_b] == list(range(3))
    shared.close()


@pytest.mark.parametrize("kind", BACKENDS)
def test_incident_stores_are_isolated(kind, tmp_path, make_incident):
    shared = _open_backend(kind, tmp_path)
    registry = TenantRegistry(tmp_path / "root", shared)
    acme = registry.backend_for(registry.create("acme"))
    globex = registry.backend_for(registry.create("globex"))

    store_a = IncidentStore(acme)
    store_b = IncidentStore(globex)
    # Same incident id, same env name — only the tenant prefix differs.
    incident_a = make_incident("INC-1", env="env-0", opened_at=10.0)
    incident_b = make_incident("INC-1", env="env-0", opened_at=20.0)
    store_a.record("open", incident_a, 10.0)
    store_b.record("open", incident_b, 20.0)

    assert [t["opened_at"] for t in store_a.history()] == [10.0]
    assert [t["opened_at"] for t in store_b.history()] == [20.0]

    # Fresh stores over fresh views replay only their own journal.
    fresh_a = IncidentStore(registry.backend_for(registry.get("acme")))
    assert [t["opened_at"] for t in fresh_a.history()] == [10.0]
    shared.close()


@pytest.mark.parametrize("kind", BACKENDS)
def test_keyspace_listing_is_scoped(kind, tmp_path):
    shared = _open_backend(kind, tmp_path)
    registry = TenantRegistry(tmp_path / "root", shared)
    acme = registry.backend_for(registry.create("acme"))
    globex = registry.backend_for(registry.create("globex"))

    FleetEventLog(acme).append({"type": "tick"})
    log_b = FleetEventLog(globex)
    log_b.append({"type": "tick"})
    FleetIncidentStore(globex)  # query-only store: no keyspace until written

    assert acme.keyspaces() == [FleetEventLog.KEYSPACE]
    assert globex.keyspaces() == [FleetEventLog.KEYSPACE]
    # The shared backend sees both tenants' prefixed keyspaces side by side.
    names = set(shared.keyspaces())
    assert f"t_acme__{FleetEventLog.KEYSPACE}" in names
    assert f"t_globex__{FleetEventLog.KEYSPACE}" in names
    shared.close()
