"""REST API end-to-end against a live in-process server."""

from __future__ import annotations


SPEC = {
    "scenarios": ["san-misconfiguration"],
    "hours": 1.0,
    "chunk_minutes": 30.0,
}

FLEET_SPEC = {
    "scenarios": ["shared-pool-saturation"],
    "hours": 2.0,
    "seed": 7,
    "min_members": 2,
    "chunk_minutes": 30.0,
}


def test_healthz_and_scenarios(server):
    status, payload = server.request("GET", "/healthz")
    assert status == 200 and payload["ok"] is True
    status, catalog = server.request("GET", "/v1/scenarios")
    assert status == 200
    assert "san-misconfiguration" in catalog["scenarios"]
    assert "shared-pool-saturation" in catalog["fleet_scenarios"]


def test_tenant_crud(server):
    status, tenant = server.request("POST", "/v1/tenants", {"tenant_id": "acme"})
    assert status == 201
    assert tenant["prefix"] == "t_acme__"
    assert tenant["watch"] == {"state": "none"}

    status, _ = server.request("POST", "/v1/tenants", {"tenant_id": "acme"})
    assert status == 409
    status, _ = server.request("POST", "/v1/tenants", {"tenant_id": "Bad Id"})
    assert status == 400
    status, _ = server.request("POST", "/v1/tenants", {"nope": 1})
    assert status == 400

    status, listing = server.request("GET", "/v1/tenants")
    assert status == 200
    assert [t["tenant_id"] for t in listing["tenants"]] == ["acme"]

    status, got = server.request("GET", "/v1/tenants/acme")
    assert status == 200 and got["tenant_id"] == "acme"
    status, _ = server.request("GET", "/v1/tenants/ghost")
    assert status == 404

    status, deleted = server.request("DELETE", "/v1/tenants/acme")
    assert status == 200 and deleted == {"deleted": "acme"}
    status, _ = server.request("GET", "/v1/tenants/acme")
    assert status == 404


def test_fleet_spec_validation(server):
    server.request("POST", "/v1/tenants", {"tenant_id": "acme"})
    for bad in (
        {"scenarios": []},
        {"scenarios": ["nope"]},
        {"scenarios": ["san-misconfiguration", "san-misconfiguration"]},
        {"scenarios": ["san-misconfiguration"], "hours": -1},
        {"scenarios": ["san-misconfiguration"], "frobnicate": True},
        # Both fabrics declare `fcsw-core`: refused here, not at watch/start.
        {"scenarios": ["shared-pool-saturation", "shared-switch-degradation"]},
        "not a dict",
    ):
        status, payload = server.request("POST", "/v1/tenants/acme/fleets", bad)
        assert status == 400, bad
        assert "error" in payload

    status, created = server.request("POST", "/v1/tenants/acme/fleets", FLEET_SPEC)
    assert status == 201
    assert created["spec"]["seed"] == 7
    assert len(created["members"]) == 8  # the shared pool's member envs


def test_watch_lifecycle_and_history(server):
    server.request("POST", "/v1/tenants", {"tenant_id": "acme"})

    # No fleet yet: starting is a conflict.
    status, _ = server.request("POST", "/v1/tenants/acme/watch/start")
    assert status == 409

    status, _ = server.request("POST", "/v1/tenants/acme/fleets", FLEET_SPEC)
    assert status == 201
    status, watch = server.request("GET", "/v1/tenants/acme/watch")
    assert status == 200 and watch["state"] == "idle"

    status, started = server.request("POST", "/v1/tenants/acme/watch/start")
    assert status == 200
    assert started["state"] in ("pending", "running", "done")

    # Double-start and fleet replacement while running are conflicts
    # (unless the tiny watch already finished).
    status, _ = server.request("POST", "/v1/tenants/acme/watch/start")
    assert status in (409, 200)

    final = server.wait_watch("acme")
    assert final["state"] == "done"
    assert final["advanced_s"] == final["target_s"] == 7200.0

    status, payload = server.request("GET", "/v1/tenants/acme/incidents")
    assert status == 200
    incidents = payload["incidents"]
    assert incidents, "the saturation fleet must open incidents"
    assert all(t["env"].startswith("pool-env-") for t in incidents)

    status, payload = server.request("GET", "/v1/tenants/acme/fleet-incidents")
    assert status == 200
    fleet_incidents = payload["fleet_incidents"]
    assert fleet_incidents, "correlated saturation must form a fleet incident"
    assert fleet_incidents[0]["component_id"] == "P1"

    # Filters pass through to the store queries.
    status, payload = server.request(
        "GET", "/v1/tenants/acme/incidents?env=pool-env-00"
    )
    assert status == 200
    assert all(t["env"] == "pool-env-00" for t in payload["incidents"])
    status, _ = server.request("GET", "/v1/tenants/acme/incidents?since=nope")
    assert status == 400

    # Stopping a finished watch is a conflict, not a crash.
    status, _ = server.request("POST", "/v1/tenants/acme/watch/stop")
    assert status == 409


def test_stop_running_watch(server):
    server.request("POST", "/v1/tenants", {"tenant_id": "acme"})
    spec = dict(FLEET_SPEC, hours=500.0)  # long enough to still be running
    server.request("POST", "/v1/tenants/acme/fleets", spec)
    status, _ = server.request("POST", "/v1/tenants/acme/watch/start")
    assert status == 200
    status, stopped = server.request(
        "POST", "/v1/tenants/acme/watch/stop", timeout=60.0
    )
    assert status == 200
    assert stopped["state"] == "stopped"
    assert 0.0 < stopped["advanced_s"] < 500.0 * 3600.0
    # A stopped watch can be restarted; it picks up from its checkpoint.
    status, restarted = server.request("POST", "/v1/tenants/acme/watch/start")
    assert status == 200


def test_incident_history_of_unknown_tenant_is_404(server):
    status, _ = server.request("GET", "/v1/tenants/ghost/incidents")
    assert status == 404
    status, _ = server.request("GET", "/v1/tenants/ghost/events")
    assert status == 404
