"""Acceptance: a SIGKILLed-and-restarted server resumes every tenant's
watch, and the histories it produces match an uninterrupted run.

The server runs as a real subprocess (``python -m repro.cli serve``) on a
jsonl state root.  Two tenants watch the same shared-pool fleet under
different seeds; the server is SIGKILLed while both watches are mid-run,
restarted on the same root, and both watches must finish on their own.

Comparison follows the repo's established resume-parity contract
(tests/correlate/test_fleet_correlation.py): the fleet-incident history is
byte-for-byte identical, and per-env incidents are identical on their
deterministic projection (detection-absorption counts under a correlator
are wall-dependent; identity, timing, and reports are not).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]

HOURS = 12.0
# A cooldown spanning the whole watch keeps every incident single-episode,
# which is what makes histories wall-independent (same configuration the
# correlate resume-parity suite relies on).
SPECS = {
    "acme": {
        "scenarios": ["shared-pool-saturation"],
        "hours": HOURS,
        "seed": 7,
        "min_members": 2,
        "chunk_minutes": 30.0,
        "cooldown_minutes": HOURS * 60.0,
    },
    "globex": {
        "scenarios": ["shared-pool-saturation"],
        "hours": HOURS,
        "seed": 13,
        "min_members": 2,
        "chunk_minutes": 30.0,
        "cooldown_minutes": HOURS * 60.0,
    },
}


class ServerProc:
    """A ``repro serve`` subprocess; the bound port comes from serve.json."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self, timeout: float = 60.0) -> None:
        manifest = self.root / "serve.json"
        if manifest.exists():
            manifest.unlink()
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--state-root",
                str(self.root),
                "--port",
                "0",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        deadline = time.time() + timeout
        while time.time() < deadline:
            if self.proc.poll() is not None:
                out = self.proc.stdout.read().decode()
                raise AssertionError(f"server exited during startup:\n{out}")
            try:
                data = json.loads(manifest.read_text())
            except (OSError, ValueError):
                data = None
            if data is not None and data.get("pid") == self.proc.pid:
                self.port = data["port"]
                return
            time.sleep(0.05)
        raise AssertionError("server never published serve.json")

    def request(
        self, method: str, path: str, body: dict | None = None, timeout: float = 30.0
    ) -> tuple[int, dict | None]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload)
            response = conn.getresponse()
            raw = response.read()
            return response.status, (json.loads(raw) if raw else None)
        finally:
            conn.close()

    def wait_watch(self, tenant_id: str, timeout: float = 120.0) -> dict:
        deadline = time.time() + timeout
        while time.time() < deadline:
            status, watch = self.request("GET", f"/v1/tenants/{tenant_id}/watch")
            assert status == 200, (tenant_id, status, watch)
            if watch["state"] in ("done", "failed", "stopped"):
                return watch
            time.sleep(0.05)
        raise AssertionError(f"watch for {tenant_id} never finished: {watch}")

    def sigkill(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def terminate(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - safety net
            self.proc.kill()
            self.proc.wait(timeout=30)


def _start_all_watches(server: ServerProc) -> None:
    for tenant_id, spec in SPECS.items():
        status, _ = server.request("POST", "/v1/tenants", {"tenant_id": tenant_id})
        assert status == 201
        status, _ = server.request(f"POST", f"/v1/tenants/{tenant_id}/fleets", spec)
        assert status == 201
        status, _ = server.request("POST", f"/v1/tenants/{tenant_id}/watch/start")
        assert status == 200


def _histories(server: ServerProc) -> dict:
    out = {}
    for tenant_id in SPECS:
        status, incidents = server.request(
            "GET", f"/v1/tenants/{tenant_id}/incidents"
        )
        assert status == 200
        status, fleet = server.request(
            "GET", f"/v1/tenants/{tenant_id}/fleet-incidents"
        )
        assert status == 200
        out[tenant_id] = {
            "incidents": json.dumps(
                _incident_projection(incidents["incidents"]), sort_keys=True
            ),
            "fleet": json.dumps(fleet["fleet_incidents"], sort_keys=True),
        }
    return out


def _incident_projection(tickets: list[dict]) -> list[dict]:
    return [
        {
            "incident_id": t["incident_id"],
            "env": t["env"],
            "target": t["target"],
            "state": t["state"],
            "opened_at": t["opened_at"],
            "resolved_at": t["resolved_at"],
            "report": t["report"],
        }
        for t in tickets
    ]


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """Uninterrupted control run in its own state root."""
    server = ServerProc(tmp_path_factory.mktemp("reference"))
    server.start()
    try:
        _start_all_watches(server)
        for tenant_id in SPECS:
            final = server.wait_watch(tenant_id)
            assert final["state"] == "done", (tenant_id, final)
        histories = _histories(server)
    finally:
        server.terminate()
    for tenant_id in SPECS:
        assert histories[tenant_id]["fleet"] != "[]", tenant_id
    return histories


def test_sigkilled_server_resumes_every_watch_identically(tmp_path, reference):
    root = tmp_path / "root"
    server = ServerProc(root)
    server.start()
    try:
        _start_all_watches(server)

        # Kill only once every watch is genuinely mid-run: past its first
        # checkpointed chunk but nowhere near the 12-simulated-hour target.
        deadline = time.time() + 120
        while time.time() < deadline:
            watches = {}
            for tenant_id in SPECS:
                status, watch = server.request(
                    "GET", f"/v1/tenants/{tenant_id}/watch"
                )
                assert status == 200
                watches[tenant_id] = watch
            if all(
                w["state"] == "running" and w["advanced_s"] >= 3600.0
                for w in watches.values()
            ):
                break
            assert not any(
                w["state"] in ("done", "failed") for w in watches.values()
            ), f"watch finished before the kill window: {watches}"
            time.sleep(0.01)
        else:
            raise AssertionError(f"kill window never opened: {watches}")

        server.sigkill()

        # The durable tenant manifest still says both watches are running.
        manifest = json.loads((root / "tenants.json").read_text())
        running = {
            tid: t["watch"]["running"] for tid, t in manifest["tenants"].items()
        }
        assert running == {"acme": True, "globex": True}

        # Restart on the same root: every tenant's watch resumes by itself —
        # no API calls other than polling for completion.
        server = ServerProc(root)
        server.start()
        for tenant_id in SPECS:
            final = server.wait_watch(tenant_id)
            assert final["state"] == "done", (tenant_id, final)
            assert final["advanced_s"] == final["target_s"] == HOURS * 3600.0

        assert _histories(server) == reference
    finally:
        server.terminate()


def test_sqlite_state_root_is_refused(tmp_path, capsys):
    """A root the removed sqlite backend wrote keeps its tenants' journals
    in ``shared.db``; resuming their checkpoints over the empty JSONL store
    would lose them, so the server refuses the root before touching it."""
    from repro.cli import main
    from repro.serve import ServeApp

    root = tmp_path / "root"
    root.mkdir()
    (root / "shared.db").write_bytes(b"")
    with pytest.raises(ValueError, match="shared.db"):
        ServeApp(root)
    assert main(["serve", "--state-root", str(root), "--port", "0"]) == 2
    assert str(root / "shared.db") in capsys.readouterr().err
    assert [p.name for p in root.iterdir()] == ["shared.db"]


def test_unknown_pool_is_refused_before_the_root_exists(
    tmp_path, monkeypatch, capsys
):
    """An unknown pool backend is refused before the server creates its
    state root, so a mistyped ``REPRO_POOL`` leaves nothing behind."""
    from repro.cli import main
    from repro.serve import ServeApp

    root = tmp_path / "root"
    with pytest.raises(ValueError, match="bogus"):
        ServeApp(root, pool="bogus")
    assert not root.exists()
    monkeypatch.setenv("REPRO_POOL", "bogus")
    assert main(["serve", "--state-root", str(root), "--port", "0"]) == 2
    assert "unknown pool backend 'bogus'" in capsys.readouterr().err
    assert not root.exists()
