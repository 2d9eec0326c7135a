"""MonitoringStores over a backend: wiring, durability, byte-identical replay."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.db.plans import OpType, PlanOperator
from repro.db.executor import OperatorRuntime, QueryRun
from repro.monitor import MonitoringStores
from repro.san.events import SanEvent, SanEventKind
from repro.storage import MemoryBackend


def _make_run(run_id: str, start: float, satisfactory=None) -> QueryRun:
    plan = PlanOperator(op_id="O1", op_type=OpType.SEQ_SCAN, table="orders")
    return QueryRun(
        run_id=run_id,
        query_name="q2-report",
        plan=plan,
        start_time=start,
        operators={
            "O1": OperatorRuntime(
                op_id="O1",
                op_type=OpType.SEQ_SCAN,
                table="orders",
                volume_id="V1",
                start=start,
                stop=start + 42.0,
                actual_rows=1000.0,
                est_rows=900.0,
                self_time=42.0,
                inclusive_time=42.0,
                io_time=30.0,
                cpu_time=12.0,
            )
        },
        db_metrics={"cpuTime": 12.0, "bufferHitRatio": 0.9},
        satisfactory=satisfactory,
    )


def _populate(store, rng: np.random.Generator) -> None:
    for i in range(200):
        t = 60.0 * i
        store.metrics.record(t, "V1", "readTime", float(rng.uniform(4, 8)))
        store.metrics.record(t, "V2", "writeTime", float(rng.uniform(1, 3)))
    store.runs.add(_make_run("q2#1", 100.0))
    store.runs.add(_make_run("q2#2", 2000.0))
    store.runs.mark("q2#1", True)
    store.runs.mark("q2#2", False)
    store.config.take_snapshot(0.0, "db_config", {"work_mem_kb": 4096})
    store.config.take_snapshot(5000.0, "db_config", {"work_mem_kb": 65536})
    store.config.take_snapshot(0.0, "san", {"zones": {"z1": ["p0", "p1"]}})
    store.events.add_san_event(
        SanEvent(
            time=4000.0,
            kind=SanEventKind.ZONE_CHANGED,
            component_id="fcsw-edge",
            details={"zone": "z1"},
        )
    )
    store.events.add_db_event(4500.0, "index_dropped", "db", index="idx_orders")


def _views(store) -> dict:
    """Everything DIADS reads, as one JSON-able structure."""
    return {
        "series": {
            f"{cid}/{metric}": [(s.time, s.value) for s in store.metrics.series(cid, metric)]
            for cid, metric in store.metrics.keys()
        },
        "runs": [
            (r.run_id, r.start_time, r.satisfactory, sorted(r.db_metrics.items()))
            for r in store.runs.runs()
        ],
        "events": [e.describe() for e in store.events.events],
        "config_changes": [
            c.describe() for c in store.config.changes_between(0.0, 10_000.0)
        ],
    }


class TestFacade:
    def test_with_backend_replays_what_the_backend_holds(self):
        """A backend that already holds records (a decoded payload) is
        replayed on wiring."""
        source = MonitoringStores.with_backend(MemoryBackend())
        _populate(source, np.random.default_rng(0))
        held = MemoryBackend()
        for keyspace in source.backend.keyspaces():
            held.append_many(keyspace, source.backend.scan(keyspace))
        rebuilt = MonitoringStores.with_backend(held)
        assert json.dumps(_views(rebuilt), sort_keys=True) == json.dumps(
            _views(source), sort_keys=True
        )
        # Replay re-applies without journalling the records a second time.
        assert len(held) == len(source.backend)

    def test_bare_construction_has_no_backend(self):
        assert MonitoringStores().backend is None

    def test_in_memory_journals_through_one_backend(self):
        store = MonitoringStores.with_backend(MemoryBackend())
        assert isinstance(store.backend, MemoryBackend)
        _populate(store, np.random.default_rng(0))
        assert set(store.backend.keyspaces()) == {"metrics", "runs", "config", "events"}

    def test_memory_backend_is_zero_copy(self):
        store = MonitoringStores.with_backend(MemoryBackend())
        store.metrics.record(0.0, "V1", "readTime", 1.0)
        rec = next(iter(store.backend.scan("metrics")))
        assert rec["c"] == "V1" and rec["v"] == 1.0

    def test_all_stores_share_the_backend(self):
        store = MonitoringStores.with_backend(MemoryBackend())
        assert (
            store.metrics.backend
            is store.runs.backend
            is store.config.backend
            is store.events.backend
            is store.backend
        )


class TestJsonlRoundTrip:
    def test_views_byte_identical_after_reopen(self, tmp_path):
        store = MonitoringStores.open(tmp_path / "tel", seed=7)
        _populate(store, np.random.default_rng(7))
        before = _views(store)
        store.close()

        reopened = MonitoringStores.open(tmp_path / "tel", seed=7)
        assert json.dumps(before, sort_keys=True) == json.dumps(
            _views(reopened), sort_keys=True
        )
        reopened.close()

    @pytest.mark.parametrize("seed", [0, 1, 13])
    def test_property_random_streams_round_trip(self, tmp_path, seed):
        """Property test: any write sequence → reopen → identical views."""
        rng = np.random.default_rng(seed)
        store = MonitoringStores.open(tmp_path / f"tel{seed}", seed=seed)
        for i in range(int(rng.integers(50, 300))):
            cid = f"V{int(rng.integers(1, 5))}"
            metric = ["readTime", "writeTime", "readIO"][int(rng.integers(0, 3))]
            store.metrics.record(float(rng.uniform(0, 50_000)), cid, metric, float(rng.uniform(0, 10)))
        for i in range(int(rng.integers(1, 6))):
            store.runs.add(_make_run(f"r#{i}", float(i) * 500.0, bool(rng.integers(0, 2))))
        store.config.take_snapshot(
            float(rng.uniform(0, 1000)), "db_config", {"x": int(rng.integers(0, 9))}
        )
        before = _views(store)
        store.close()

        reopened = MonitoringStores.open(tmp_path / f"tel{seed}", seed=seed)
        assert json.dumps(before, sort_keys=True) == json.dumps(
            _views(reopened), sort_keys=True
        )
        reopened.close()

    def test_reopen_then_continue_appending(self, tmp_path):
        store = MonitoringStores.open(tmp_path / "tel", seed=3)
        store.metrics.record(0.0, "V1", "readTime", 5.0)
        store.close()
        second = MonitoringStores.open(tmp_path / "tel", seed=3)
        second.metrics.record(600.0, "V1", "readTime", 6.0)
        assert len(second.metrics.series("V1", "readTime")) == 2
        second.close()
        third = MonitoringStores.open(tmp_path / "tel", seed=3)
        assert len(third.metrics.series("V1", "readTime")) == 2
        third.close()

    def test_run_labels_survive_reopen(self, tmp_path):
        store = MonitoringStores.open(tmp_path / "tel")
        store.runs.add(_make_run("a", 0.0))
        store.runs.add(_make_run("b", 10.0))
        store.runs.mark("a", True)
        store.runs.mark("b", False)
        store.runs.mark("b", True)  # re-label: last write wins on replay
        store.close()
        reopened = MonitoringStores.open(tmp_path / "tel")
        assert reopened.runs.get("a").satisfactory is True
        assert reopened.runs.get("b").satisfactory is True
        reopened.close()

    def test_tap_labelled_runs_are_journalled(self, tmp_path):
        """A run tap that writes run.satisfactory directly (the streaming
        SLO detector does) must still reach the durability journal."""
        from repro.monitor import Collector

        store = MonitoringStores.open(tmp_path / "tel")
        collector = Collector(stores=store)
        collector.add_run_tap(lambda run: setattr(run, "satisfactory", False))
        collector.collect_query_run(_make_run("q2#1", 100.0))
        store.close()

        reopened = MonitoringStores.open(tmp_path / "tel")
        assert reopened.runs.get("q2#1").satisfactory is False
        reopened.close()

    def test_context_manager_closes(self, tmp_path):
        with MonitoringStores.open(tmp_path / "tel") as store:
            store.metrics.record(0.0, "V1", "readTime", 5.0)
        with pytest.raises(ValueError):
            store.backend.append("metrics", {"t": 1.0})
