"""Metrics registry: instruments, snapshots, and the disabled fast path."""

from __future__ import annotations

import pytest

from repro.obs import metrics as obs_metrics
from repro.storage import keyspaces
from repro.storage.backend import MemoryBackend


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self, obs_enabled):
        c = obs_metrics.registry().counter("test.count")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_gauge_set_and_add(self, obs_enabled):
        g = obs_metrics.registry().gauge("test.depth")
        g.set(4.0)
        g.add(-1.0)
        assert g.value == 3.0

    def test_histogram_summary_and_percentiles(self, obs_enabled):
        h = obs_metrics.registry().histogram("test.latency_s")
        for v in (0.001, 0.002, 0.004, 0.008, 0.5):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 5
        assert summary["sum_s"] == pytest.approx(0.515)
        assert summary["max_ms"] == pytest.approx(500.0)
        # Percentile estimates are bucket upper bounds, clamped to the
        # observed max — never above it.
        assert summary["p50_ms"] <= summary["p95_ms"] <= summary["max_ms"]

    def test_get_or_create_is_idempotent(self, obs_enabled):
        reg = obs_metrics.registry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.gauge("y") is reg.gauge("y")
        assert reg.histogram("z") is reg.histogram("z")


class TestModuleHelpers:
    def test_helpers_record_when_enabled(self, obs_enabled):
        obs_metrics.inc("fires", 2)
        obs_metrics.set_gauge("depth", 7.0)
        obs_metrics.add_gauge("depth", -2.0)
        obs_metrics.observe("lat_s", 0.01)
        with obs_metrics.timed("op_s"):
            pass
        snap = obs_metrics.registry().snapshot()
        assert snap["counters"]["fires"] == 2
        assert snap["gauges"]["depth"] == 5.0
        assert snap["histograms"]["lat_s"]["count"] == 1
        assert snap["histograms"]["op_s"]["count"] == 1

    def test_helpers_are_noops_when_disabled(self, obs_disabled):
        obs_metrics.inc("fires")
        obs_metrics.set_gauge("depth", 7.0)
        obs_metrics.observe("lat_s", 0.01)
        with obs_metrics.timed("op_s"):
            pass
        snap = obs_metrics.registry().snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_timed_returns_shared_null_timer_when_disabled(self, obs_disabled):
        assert obs_metrics.timed("a") is obs_metrics.timed("b")


class TestSnapshots:
    def test_snapshot_to_backend_on_simulated_timeline(self, obs_enabled):
        obs_metrics.inc("fires", 3)
        backend = MemoryBackend()
        obs_metrics.registry().snapshot_to(backend, 1800.0)
        obs_metrics.inc("fires", 1)
        obs_metrics.registry().snapshot_to(backend, 3600.0)
        records = list(backend.scan(keyspaces.OBS_METRICS))
        assert [r["t"] for r in records] == [1800.0, 3600.0]
        assert records[0]["metrics"]["counters"]["fires"] == 3
        assert records[1]["metrics"]["counters"]["fires"] == 4
