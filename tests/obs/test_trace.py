"""Spans: nesting, both clocks, journalling, and cross-thread propagation."""

from __future__ import annotations

import pytest

from repro.obs import current_span, span
from repro.obs import trace as obs_trace
from repro.runtime import Scheduler, WorkerPool
from repro.storage import keyspaces
from repro.storage.backend import MemoryBackend


class TestDisabled:
    def test_span_is_shared_noop(self, obs_disabled):
        first = span("anything", sim_t=1.0, env="e")
        second = span("other")
        assert first is second  # the shared _NOOP singleton — no allocation

    def test_noop_span_swallows_protocol(self, obs_disabled):
        with span("x") as s:
            assert s.annotate(count=3) is s
        assert current_span() is None

    def test_wrap_task_returns_fn_unchanged(self, obs_disabled):
        def fn():
            return 42

        assert obs_trace.wrap_task(fn) is fn


class TestNesting:
    def test_parent_trace_and_sim_time_inheritance(self, obs_enabled):
        with span("iteration", sim_t=1800.0, env="db1") as root:
            with span("advance") as child:
                assert child.parent_id == root.span_id
                assert child.trace_id == root.trace_id == root.span_id
                # sim_t inherits from the parent when the site has none.
                assert child.sim_t == 1800.0
            with span("detect", sim_t=3600.0) as sibling:
                assert sibling.parent_id == root.span_id
                assert sibling.sim_t == 3600.0
        assert current_span() is None

    def test_current_span_restored_after_exit(self, obs_enabled):
        with span("outer") as outer:
            with span("inner"):
                assert current_span() is not outer
            assert current_span() is outer
        assert current_span() is None

    def test_exception_recorded_and_context_reset(self, obs_enabled):
        with pytest.raises(RuntimeError):
            with span("doomed") as s:
                raise RuntimeError("boom")
        assert s.attrs["error"] == "RuntimeError"
        assert current_span() is None

    def test_wall_duration_measured(self, obs_enabled):
        with span("timed") as s:
            pass
        assert s.wall_end >= s.wall_start
        assert s.wall_dur >= 0.0


class TestJournalling:
    def test_finished_spans_append_to_sink(self, obs_enabled):
        sink = MemoryBackend()
        obs_trace.tracer().set_sink(sink)
        with span("iteration", sim_t=60.0, env="db1", chunk_s=30.0):
            with span("advance"):
                pass
        records = list(sink.scan(keyspaces.TRACES))
        assert [r["name"] for r in records] == ["advance", "iteration"]
        root = records[1]
        child = records[0]
        assert root["k"] == "db1"  # env becomes the routing key
        assert root["t"] == 60.0
        assert root["attrs"] == {"chunk_s": 30.0}
        assert child["parent_id"] == root["span_id"]
        assert child["trace_id"] == root["trace_id"] == root["span_id"]
        assert "parent_id" not in root

    def test_detached_sink_stops_journalling(self, obs_enabled):
        sink = MemoryBackend()
        obs_trace.tracer().set_sink(sink)
        with span("one"):
            pass
        obs_trace.tracer().set_sink(None)
        with span("two"):
            pass
        assert [r["name"] for r in sink.scan(keyspaces.TRACES)] == ["one"]


class TestThreadHop:
    def test_wrap_task_carries_span_across_pool_submit(self, obs_enabled):
        """Span parentage survives the executor thread hop (satellite d)."""
        seen: dict = {}

        def work() -> None:
            with span("pipeline.module") as s:
                seen["parent_id"] = s.parent_id
                seen["trace_id"] = s.trace_id

        with WorkerPool(max_workers=2) as pool:
            with span("iteration", env="db1") as root:
                pool.submit(work).result()
        assert seen["parent_id"] == root.span_id
        assert seen["trace_id"] == root.trace_id

    def test_scheduler_call_to_pool_preserves_parentage(self, obs_enabled):
        """The full hot seam: Scheduler.call -> WorkerPool.submit -> thread.

        contextvars flow into the asyncio task automatically; wrap_task
        carries them over the executor hop, so a span opened on the worker
        thread parents under the iteration span that scheduled it.
        """
        seen: dict = {}

        def work() -> str:
            with span("diagnose") as s:
                seen["parent_id"] = s.parent_id
            return "done"

        async def main(scheduler: Scheduler) -> str:
            with span("iteration", sim_t=30.0, env="db1") as root:
                seen["root_id"] = root.span_id
                return await scheduler.call(work)

        with WorkerPool(max_workers=2) as pool:
            scheduler = Scheduler(pool)
            assert scheduler.run(main(scheduler)) == "done"
        assert seen["parent_id"] == seen["root_id"]

    def test_no_open_span_submits_unwrapped(self, obs_enabled):
        def work():
            return current_span()

        with WorkerPool(max_workers=1) as pool:
            assert pool.submit(work).result() is None
