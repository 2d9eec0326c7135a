"""Cross-process span/metric propagation: the obs envelope seam.

Covers the worker-side buffered API in-process (context payload, task
scope, drain/ingest round-trip, merge idempotence, buffer bounds) and the
real seam end-to-end through a :class:`ProcessWorkerPool` — span context
out in the task envelope, worker spans home piggy-backed on the result.
"""

from __future__ import annotations

import pytest

from repro.obs import clock as obs_clock
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs import worker as obs_worker
from repro.storage import MemoryBackend


#: Procpool task name of :func:`ping`; the forked workers inherit this module.
PING_TASK = f"{__name__}:ping"


def ping(payload: dict) -> dict:
    """Procpool task: burn ``payload["spin"]`` iterations inside a worker span."""
    n = int(payload.get("spin", 0))
    with obs_worker.worker_span("worker.ping", spin=n):
        acc = 0
        for i in range(n):
            acc += i & 7
    return {"ok": True, "acc": acc}


@pytest.fixture(autouse=True)
def _clean_worker_state():
    obs_worker.reset()
    yield
    obs_worker.reset()


def _sink():
    backend = MemoryBackend()
    obs_trace.tracer().set_sink(backend)
    return backend


class TestContextPayload:
    def test_disabled_is_none(self, obs_disabled):
        # None means the procpool never wraps the task envelope: obs-off
        # wire bytes are byte-identical to a build without obs at all.
        assert obs_worker.context_payload() is None

    def test_enabled_no_span_is_empty(self, obs_enabled):
        assert obs_worker.context_payload() == {}

    def test_carries_active_span(self, obs_enabled):
        with obs_trace.span("iteration", env="e1", sim_t=7.0) as parent:
            ctx = obs_worker.context_payload()
        assert ctx["trace_id"] == parent.trace_id
        assert ctx["span_id"] == parent.span_id
        assert ctx["sim_t"] == 7.0


class TestTaskScopeRoundTrip:
    def test_spans_parent_under_incoming_context(self, obs_enabled):
        sink = _sink()
        ctx = {"trace_id": "s9", "span_id": "s9", "sim_t": 3.0}
        with obs_worker.task_scope(ctx, task="demo:task"):
            with obs_worker.worker_span("worker.step"):
                pass
        payload = obs_worker.drain(include_metrics=True)
        assert payload is not None and len(payload["spans"]) == 2
        merged = obs_worker.ingest(payload, worker=0)
        assert merged == 2
        records = {r["name"]: r for r in sink.scan("traces")}
        root = records["worker.task"]
        child = records["worker.step"]
        assert root["trace_id"] == "s9" and root["parent_id"] == "s9"
        assert child["parent_id"] == root["span_id"]
        assert root["t"] == 3.0 and child["t"] == 3.0
        # pid/worker annotations arrive at ingest, not in the worker.
        assert root["attrs"]["pid"] == payload["pid"]
        assert root["attrs"]["worker"] == 0
        # Wall starts were rebased onto this process's clock, never negative.
        assert root["wall_start"] >= 0.0

    def test_no_context_is_noop(self, obs_enabled):
        with obs_worker.task_scope(None):
            with obs_worker.worker_span("worker.step"):
                pass
        # No context → no buffered spans, nothing to ship.
        assert obs_worker.drain(include_metrics=False) is None

    def test_worker_span_ids_disjoint_from_parent_ids(self, obs_enabled):
        # Parent spans are s<n>; worker spans are w<pid>s<n> — the span-id
        # namespaces can never collide, so the dedup key is sound.
        with obs_worker.task_scope({}, task="t"):
            pass
        payload = obs_worker.drain()
        assert payload["spans"][0]["span_id"].startswith("w")


class TestMergeIdempotence:
    def test_reingesting_same_payload_adds_nothing(self, obs_enabled):
        sink = _sink()
        with obs_worker.task_scope({}, task="t"):
            pass
        payload = obs_worker.drain()
        assert obs_worker.ingest(payload, worker=1) == 1
        before = len(list(sink.scan("traces")))
        # At-least-once delivery: a retried flush or a re-dispatched result
        # replays the identical payload — the merge must not duplicate.
        assert obs_worker.ingest(payload, worker=1) == 0
        assert len(list(sink.scan("traces"))) == before

    def test_metrics_fold_is_idempotent(self, obs_enabled):
        dump = {"counters": {"env.chunks": 5.0}, "gauges": {}, "histograms": {}}
        obs_worker.ingest({"pid": 42, "spans": [], "metrics": dump})
        obs_worker.ingest({"pid": 42, "spans": [], "metrics": dump})
        snap = obs_metrics.registry().snapshot()
        # Cumulative set-total fold: same dump twice is the same total.
        assert snap["counters"]["worker.42.env.chunks"] == 5.0
        assert snap["counters"]["workers.env.chunks"] == 5.0

    def test_aggregates_sum_across_workers(self, obs_enabled):
        for pid, count in ((41, 3.0), (42, 4.0)):
            obs_worker.ingest(
                {
                    "pid": pid,
                    "spans": [],
                    "metrics": {"counters": {"env.chunks": count}},
                }
            )
        snap = obs_metrics.registry().snapshot()
        assert snap["counters"]["workers.env.chunks"] == 7.0


class TestBufferBounds:
    def test_overflow_drops_and_reports(self, obs_enabled):
        with obs_worker.task_scope({}, task="t"):
            for _ in range(obs_worker._BUFFER_LIMIT + 10):
                with obs_worker.worker_span("worker.spin"):
                    pass
        payload = obs_worker.drain()
        assert len(payload["spans"]) == obs_worker._BUFFER_LIMIT
        assert payload["dropped"] >= 10
        obs_worker.ingest(payload)
        snap = obs_metrics.registry().snapshot()
        assert snap["counters"]["obs.worker_spans_dropped"] >= 10


class TestProcessPoolSeam:
    def test_roundtrip_through_real_pool(self, obs_enabled):
        pool_mod = pytest.importorskip("repro.runtime.procpool")
        sink = _sink()
        pool = pool_mod.ProcessWorkerPool(processes=1)
        try:
            with obs_trace.span("iteration", env="e1", sim_t=42.0) as parent:
                out = pool.run_task(PING_TASK, {"spin": 100}, affinity="e1")
            assert out["ok"] is True
            pool.collect_obs()
        finally:
            pool.shutdown()
        records = {r["name"]: r for r in sink.scan("traces")}
        task_span = records["worker.task"]
        ping_span = records["worker.ping"]
        # One coherent timeline: worker spans are children of the parent's
        # iteration span, on the parent's trace, at the simulated instant.
        assert task_span["parent_id"] == parent.span_id
        assert task_span["trace_id"] == parent.trace_id
        assert ping_span["parent_id"] == task_span["span_id"]
        assert task_span["t"] == 42.0
        assert task_span["attrs"]["pid"] > 0

    def test_advance_span_reaches_parent_tracer(self, obs_enabled):
        # Worker code must open spans through worker_span(): a plain span()
        # lands in the worker's own tracer and never reaches this one.
        pool_mod = pytest.importorskip("repro.runtime.procpool")
        from repro.stream.remote import ADVANCE_TASK

        sink = _sink()
        spec = {"name": "e1", "scenario": "lock-contention", "hours": 2.0}
        pool = pool_mod.ProcessWorkerPool(processes=1)
        try:
            with obs_trace.span("advance", env="e1") as parent:
                pool.run_task(
                    ADVANCE_TASK, {"spec": spec, "chunk_s": 1800.0}, affinity="e1"
                )
        finally:
            pool.shutdown()
        records = {r["name"]: r for r in sink.scan("traces")}
        assert records["worker.task"]["parent_id"] == parent.span_id
        assert records["worker.advance"]["parent_id"] == records["worker.task"]["span_id"]
        assert records["worker.advance"]["k"] == "e1"

    def test_obs_off_result_unwrapped(self, obs_disabled):
        pool_mod = pytest.importorskip("repro.runtime.procpool")
        pool = pool_mod.ProcessWorkerPool(processes=1)
        try:
            out = pool.run_task(PING_TASK, {"spin": 10})
            # No envelope when obs is off: the result arrives verbatim,
            # so obs-off wire bytes (and checkpoints) are unchanged.
            assert out == {"ok": True, "acc": out["acc"]}
            assert "__obs__" not in out
        finally:
            pool.shutdown()
