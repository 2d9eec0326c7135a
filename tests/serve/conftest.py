"""Fixtures for the serve suite: a real server on a real socket.

The server runs exactly as production does — ``ServeApp.serve_forever`` on
its own thread (tests are outside ``src/``, so the executor-discipline lint
does not apply), binding port 0 and exposing a tiny JSON request helper.

Every test also runs under a loop-thread guard: a blocking store or file
call made on the thread that runs an asyncio loop fails the test.
"""

from __future__ import annotations

import asyncio
import builtins
import functools
import importlib
import inspect
import json
import http.client
import pkgutil
import shutil
import sys
import threading
import time
import traceback
from pathlib import Path

import pytest

import repro
from repro.serve import ServeApp

#: Store and journal methods (and ``atomic_write_json``) that hit disk or a
#: database.  One of them inline on the server's event loop stalls every
#: tenant's watch and every SSE client at once; the server runs them on
#: the worker pool through ``Scheduler.call``.
BLOCKING_NAMES = frozenset(
    "scan history replay tail refresh keyspaces flush consume_log set_watch "
    "atomic_write_json".split()
)


def _blocking_sites():
    """(owner, attribute) of every blocking callable the server can reach."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro."):
            continue
        for attr, value in vars(module).items():
            if attr in BLOCKING_NAMES and inspect.isfunction(value):
                yield module, attr  # bound by name wherever it is imported
            elif inspect.isclass(value) and value.__module__ == name:
                for method in BLOCKING_NAMES.intersection(vars(value)):
                    if inspect.isfunction(vars(value)[method]):
                        yield value, method
    for method in ("read_text", "write_text", "unlink", "rglob"):
        yield Path, method
    yield shutil, "rmtree"
    yield builtins, "open"
    yield time, "sleep"


def _on_loop_thread() -> bool:
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


@pytest.fixture(autouse=True)
def loop_thread_guard(monkeypatch):
    """Fail the test if blocking I/O ran on a thread driving an event loop."""
    hits: list[str] = []

    def guard(fn, label):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            if _on_loop_thread():
                stack = traceback.format_stack(sys._getframe(1), limit=8)
                hits.append(f"{label}()\n" + "".join(stack))
            return fn(*args, **kwargs)

        return guarded

    for owner, attr in _blocking_sites():
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        monkeypatch.setattr(owner, attr, guard(getattr(owner, attr), label))
    yield
    if hits:
        pytest.fail(
            f"{len(hits)} blocking call(s) on the event-loop thread; run them "
            "through Scheduler.call. First:\n" + hits[0]
        )


class ServeHandle:
    """One running server + a blocking JSON client against it."""

    def __init__(self, app: ServeApp, thread: threading.Thread) -> None:
        self.app = app
        self.thread = thread

    @property
    def address(self) -> tuple[str, int]:
        assert self.app.bound is not None
        return self.app.bound

    def request(
        self,
        method: str,
        path: str,
        body: dict | list | None = None,
        headers: dict | None = None,
        timeout: float = 30.0,
    ) -> tuple[int, dict | list | None]:
        host, port = self.address
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            conn.request(
                method,
                path,
                body=json.dumps(body) if body is not None else None,
                headers=headers or {},
            )
            response = conn.getresponse()
            raw = response.read()
            return response.status, json.loads(raw) if raw else None
        finally:
            conn.close()

    def wait_watch(
        self, tenant_id: str, states=("done", "failed", "stopped"), timeout: float = 60.0
    ) -> dict:
        deadline = time.time() + timeout
        while time.time() < deadline:
            status, payload = self.request("GET", f"/v1/tenants/{tenant_id}/watch")
            assert status == 200
            if payload["state"] in states:
                return payload
            time.sleep(0.05)
        raise AssertionError(f"watch for {tenant_id!r} never reached {states}")

    def stop(self) -> None:
        self.app.stop()
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "server thread failed to stop"


def start_server(state_root, **app_kwargs) -> ServeHandle:
    app = ServeApp(state_root, **app_kwargs)
    thread = threading.Thread(
        target=app.serve_forever, args=("127.0.0.1", 0), daemon=True
    )
    thread.start()
    deadline = time.time() + 30
    while app.bound is None:
        assert time.time() < deadline, "server never bound"
        assert thread.is_alive(), "server thread died during startup"
        time.sleep(0.01)
    return ServeHandle(app, thread)


@pytest.fixture
def make_incident():
    """Minimal Incident factory for store-level isolation tests."""
    from repro.stream import Incident
    from repro.stream.detectors import Detection

    def build(incident_id: str, *, env: str = "env-0", opened_at: float = 0.0):
        return Incident(
            incident_id=incident_id,
            env_name=env,
            key=(env, "V1/readTime"),
            opened_at=opened_at,
            detections=[
                Detection(
                    time=opened_at,
                    detector="ewma-drift",
                    target="V1/readTime",
                    value=10.0,
                    expected=5.0,
                    magnitude=1.5,
                    kind="drift",
                )
            ],
        )

    return build


@pytest.fixture
def server(tmp_path):
    handle = start_server(tmp_path / "root")
    yield handle
    handle.stop()
