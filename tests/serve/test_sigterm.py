"""SIGTERM stops ``repro serve --pool process`` together with its workers.

The pool forks its workers after the server has installed its asyncio
SIGTERM handler.  A worker that kept that handler would ignore the SIGTERM
of ``Process.terminate()``, hang the server's exit and outlive it.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import pytest

from .test_resume import ServerProc


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _children(pid: int) -> set[int]:
    out = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            out.add(int(stat.parent.name))
    return out


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_sigterm_stops_server_and_pool_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_POOL", "process")
    server = ServerProc(tmp_path)
    server.start()
    workers: set[int] = set()
    try:
        for path, body in (
            ("/v1/tenants", {"tenant_id": "acme"}),
            ("/v1/tenants/acme/fleets", {"scenarios": ["lock-contention"], "hours": 48}),
            ("/v1/tenants/acme/watch/start", None),
        ):
            assert server.request("POST", path, body)[0] in (200, 201)
        deadline = time.time() + 60
        while not workers:  # the pool forks its workers for the first advance
            assert time.time() < deadline, "pool workers never started"
            _, watch = server.request("GET", "/v1/tenants/acme/watch")
            assert watch["state"] in ("pending", "running"), watch
            if watch.get("advanced_s", 0.0) > 0.0:
                workers = _children(server.proc.pid)
            time.sleep(0.05)

        server.proc.send_signal(signal.SIGTERM)
        assert server.proc.wait(timeout=15) == 0
        deadline = time.time() + 5
        while any(_alive(pid) for pid in workers) and time.time() < deadline:
            time.sleep(0.05)
        assert [pid for pid in workers if _alive(pid)] == []
    finally:
        if server.proc.poll() is None:
            server.proc.kill()
            server.proc.wait()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
