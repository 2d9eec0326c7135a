"""Metrics registry: instruments, snapshots, and the disabled fast path."""

from __future__ import annotations

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs.prometheus import render_prometheus
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
        summary = obs_metrics.json_view(obs_metrics.registry().snapshot())[
            "histograms"
        ]["test.latency_s"]
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


def _worker_histogram(values: list[float]) -> dict:
    histogram = obs_metrics.Histogram("lat_s")
    for value in values:
        histogram.observe(value)
    return histogram.dump()


class TestViewsAgree:
    def test_json_view_matches_prometheus_exposition(self, obs_enabled):
        """The JSON view and the Prometheus exposition render one snapshot:
        count, sum and p95 read the same from both."""
        registry = obs_metrics.registry()
        registry.counter("demo.hits").inc(3.0)
        registry.gauge("demo.depth").set(2.0)
        registry.fold_worker(
            41, {"histograms": {"lat_s": _worker_histogram([0.0002, 0.003, 0.004])}}
        )
        registry.fold_worker(
            42, {"histograms": {"lat_s": _worker_histogram([0.02, 0.03, 0.04, 7.0])}}
        )
        snapshot = registry.snapshot()
        json_view = obs_metrics.json_view(snapshot)
        view = json_view["histograms"]["workers.lat_s"]

        samples = {}
        for line in render_prometheus(snapshot).splitlines():
            if not line.startswith("#"):
                name, value = line.rsplit(" ", 1)
                samples[name] = value
        assert json_view["counters"]["demo.hits"] == float(samples["repro_demo_hits"]) == 3
        assert json_view["gauges"]["demo.depth"] == float(samples["repro_demo_depth"]) == 2
        count = int(samples["repro_workers_lat_s_count"])
        assert view["count"] == count == 7
        assert view["sum_s"] == float(samples["repro_workers_lat_s_sum"])
        buckets = [
            (name.split('le="')[1].rstrip('"}'), int(value))
            for name, value in samples.items()
            if name.startswith("repro_workers_lat_s_bucket")
        ]
        first = next(le for le, cumulative in buckets if cumulative >= 0.95 * count)
        max_s = view["max_ms"] / 1000.0
        expected = max_s if first == "+Inf" else min(float(first), max_s)
        assert view["p95_ms"] == pytest.approx(expected * 1000.0)

    def test_fold_min_ignores_empty_worker_histograms(self, obs_enabled):
        """A worker whose histogram has no observations yet does not pin
        the fleet aggregate's min to zero."""
        registry = obs_metrics.registry()
        registry.fold_worker(41, {"histograms": {"lat_s": _worker_histogram([])}})
        registry.fold_worker(42, {"histograms": {"lat_s": _worker_histogram([0.2, 0.3])}})
        view = obs_metrics.json_view(registry.snapshot())["histograms"]["workers.lat_s"]
        assert view["count"] == 2
        assert view["min_ms"] == pytest.approx(200.0)
