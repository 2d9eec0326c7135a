"""ProcessWorkerPool: affinity routing, JSON handoff, stats, lifecycle.

The task functions live at module scope so workers can resolve them by
dotted name (``tests.runtime.test_procpool:echo``); under the default
``fork`` start method the already-imported module is inherited, so no
import path gymnastics are needed in the child.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.runtime import (
    ProcessWorkerPool,
    ProcpoolPayloadError,
    WorkerPool,
    resolve_pool_backend,
    reset_shared_pool,
    shared_pool,
)

HERE = "tests.runtime.test_procpool"


# -- worker-side task fixtures ----------------------------------------------
def echo(payload: dict) -> dict:
    return {"echo": payload, "pid": os.getpid()}


def kapow(payload: dict) -> dict:
    raise ValueError("kapow")


def unjsonable(payload: dict) -> dict:
    return {"obj": object()}


def die(payload: dict) -> dict:
    os._exit(3)


@pytest.fixture()
def pool():
    pool = ProcessWorkerPool(processes=2)
    try:
        yield pool
    finally:
        pool.shutdown()


class TestProcessWorkerPool:
    def test_round_trip_runs_in_another_process(self, pool):
        out = pool.run_task(f"{HERE}:echo", {"x": [1, 2, {"y": "z"}]})
        assert out["echo"] == {"x": [1, 2, {"y": "z"}]}
        assert out["pid"] != os.getpid()

    def test_sticky_affinity_pins_keys_and_balances(self, pool):
        pids: dict[str, set[int]] = {}
        for _round in range(3):
            for key in ("a", "b", "c", "d"):
                out = pool.run_task(f"{HERE}:echo", {"k": key}, affinity=key)
                pids.setdefault(key, set()).add(out["pid"])
        # Same key always lands in the same worker process...
        assert all(len(seen) == 1 for seen in pids.values())
        # ...and four keys over two workers balance two apiece.
        stats = pool.stats()
        assert stats["affinity_keys"] == 4
        assert sorted(w["affinity_keys"] for w in stats["workers"]) == [2, 2]
        assert sum(w["tasks_routed"] for w in stats["workers"]) == 12
        assert all(w["handoff_bytes"] > 0 for w in stats["workers"])

    def test_unjsonable_payload_fails_fast(self, pool):
        with pytest.raises(ProcpoolPayloadError, match="not JSON-able"):
            pool.submit_task(f"{HERE}:echo", {"x": object()})

    def test_unjsonable_result_fails_the_future(self, pool):
        with pytest.raises(RuntimeError, match="not JSON-able"):
            pool.run_task(f"{HERE}:unjsonable", {})

    def test_worker_exception_carries_traceback(self, pool):
        with pytest.raises(RuntimeError, match="kapow") as excinfo:
            pool.run_task(f"{HERE}:kapow", {})
        assert "ValueError" in str(excinfo.value)

    def test_bad_task_name_rejected_in_worker(self, pool):
        with pytest.raises(RuntimeError, match="pkg.mod:fn"):
            pool.run_task("no-colon-here", {})

    def test_thread_front_still_runs_callables(self, pool):
        assert pool.submit(lambda: 41 + 1).result() == 42
        assert pool.map_bounded(lambda x: x * x, range(8), limit=3) == [
            x * x for x in range(8)
        ]

    def test_stats_shape(self, pool):
        fresh = pool.stats()
        assert fresh["backend"] == "process"
        assert fresh["processes"] == 2
        # Lazy start: no processes exist until the first submit_task.
        assert [w["pid"] for w in fresh["workers"]] == [None, None]
        pool.run_task(f"{HERE}:echo", {})
        live = pool.stats()
        assert all(w["alive"] and w["pid"] for w in live["workers"])
        assert live["start_method"] in ("fork", "spawn", "forkserver")

    def test_dead_worker_fails_inflight_future(self, pool):
        pool.run_task(f"{HERE}:echo", {}, affinity="victim")
        future = pool.submit_task(f"{HERE}:die", {}, affinity="victim")
        with pytest.raises(RuntimeError, match="died"):
            future.result(timeout=10.0)

    def test_submit_after_shutdown_raises(self):
        pool = ProcessWorkerPool(processes=1)
        pool.run_task(f"{HERE}:echo", {})
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit_task(f"{HERE}:echo", {})


class TestBackendSelection:
    def test_explicit_choices(self):
        assert resolve_pool_backend("threads") == "threads"
        assert resolve_pool_backend("process") == "process"

    def test_invalid_choice_rejected(self):
        with pytest.raises(ValueError):
            resolve_pool_backend("fibers")

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL", "process")
        assert resolve_pool_backend() == "process"
        monkeypatch.delenv("REPRO_POOL")
        assert resolve_pool_backend() == "threads"

    def test_auto_scales_with_cores_and_fleet(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_pool_backend("auto", fleet_size=256) == "process"
        assert resolve_pool_backend("auto", fleet_size=2) == "threads"
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_pool_backend("auto", fleet_size=256) == "threads"

    def test_shared_pool_switches_backend(self):
        reset_shared_pool()
        try:
            a = shared_pool(backend="threads")
            assert a.backend == "threads"
            b = shared_pool(backend="process")
            assert b.backend == "process" and b is not a
            assert a.closed
            # No explicit backend: keep whatever is live.
            assert shared_pool() is b
        finally:
            reset_shared_pool()


class TestStatsUnderCancellation:
    """Regression: queued drifted (and was clamped) when tasks were cancelled."""

    def test_cancelled_task_counted_exactly_once(self):
        started = threading.Event()
        release = threading.Event()

        def blocked():
            started.set()
            release.wait(5.0)

        with WorkerPool(1) as pool:
            first = pool.submit(blocked)
            assert started.wait(5.0)
            backlog = [pool.submit(lambda: None) for _ in range(3)]
            assert pool.stats()["queued"] == 3
            assert backlog[-1].cancel()
            mid = pool.stats()
            assert mid["queued"] == 2
            assert mid["cancelled"] == 1
            release.set()
            first.result()
            for future in backlog[:-1]:
                future.result()
            done = pool.stats()
            assert done["queued"] == 0
            assert done["cancelled"] == 1
            assert done["completed"] == 3
            # The books balance exactly — no clamp hiding drift.
            assert done["submitted"] == (
                done["queued"]
                + done["active"]
                + done["completed"]
                + done["failed"]
                + done["cancelled"]
            )

    def test_many_cancellations_never_go_negative(self):
        release = threading.Event()
        with WorkerPool(1) as pool:
            first = pool.submit(release.wait, 5.0)
            backlog = [pool.submit(lambda: None) for _ in range(10)]
            cancelled = sum(1 for f in backlog if f.cancel())
            release.set()
            first.result()
            for future in backlog:
                if not future.cancelled():
                    future.result()
            stats = pool.stats()
            assert stats["queued"] == 0
            assert stats["cancelled"] == cancelled
            assert stats["completed"] == 1 + (10 - cancelled)
