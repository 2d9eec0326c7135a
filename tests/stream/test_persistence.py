"""Durable incident history, detector state freeze/thaw, and watch resume."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.lab.scenarios import scenario_flapping_san_misconfiguration
from repro.stream import (
    CusumDetector,
    Detection,
    DetectorBank,
    EwmaDriftDetector,
    FleetSupervisor,
    Incident,
    IncidentManager,
    IncidentState,
    IncidentStore,
    ResponseTimeSloDetector,
    ThresholdSloDetector,
    default_detector_factory,
)
from repro.storage import MemoryBackend


def _detection(t: float, target: str = "V1/readTime", magnitude: float = 1.5) -> Detection:
    return Detection(
        time=t,
        detector="ewma-drift",
        target=target,
        value=10.0,
        expected=5.0,
        magnitude=magnitude,
        kind="drift",
    )


# ---------------------------------------------------------------------------
# detector state freeze/thaw
# ---------------------------------------------------------------------------
class TestDetectorState:
    def _drive(self, detector, samples):
        return [detector.update(t, v) for t, v in samples]

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: ThresholdSloDetector(limit=5.0, min_consecutive=2),
            lambda: EwmaDriftDetector(warmup=20, min_consecutive=2),
            lambda: CusumDetector(warmup=20, threshold=6.0),
        ],
    )
    def test_mid_stream_snapshot_restores_future(self, factory):
        """A restored twin must produce the identical detection stream."""
        rng = np.random.default_rng(5)
        quiet = [(60.0 * i, float(rng.normal(3.0, 0.2))) for i in range(60)]
        loud = [(60.0 * (60 + i), float(rng.normal(9.0, 0.2))) for i in range(40)]

        original = factory()
        self._drive(original, quiet)
        state = json.loads(json.dumps(original.state_dict()))  # JSON-able

        twin = factory()
        twin.load_state(state)
        out_original = self._drive(original, loud)
        out_twin = self._drive(twin, loud)
        assert [d and d.to_dict() for d in out_original] == [
            d and d.to_dict() for d in out_twin
        ]
        assert any(out_original), "fixture should actually detect the shift"

    def test_response_time_detector_state(self):
        class Run:  # minimal QueryRun stand-in
            def __init__(self, duration, end):
                self.query_name = "q"
                self.run_id = f"q#{end}"
                self.duration = duration
                self.end_time = end
                self.satisfactory = None

        original = ResponseTimeSloDetector(factor=1.3, baseline_runs=3, query_name="q")
        for i in range(3):
            original.observe_run(Run(100.0, 100.0 * i))
        state = original.state_dict()

        twin = ResponseTimeSloDetector(factor=1.3, baseline_runs=3, query_name="q")
        twin.load_state(state)
        assert twin.baseline_duration == original.baseline_duration
        breach = Run(200.0, 1000.0)
        detection = twin.observe_run(breach)
        assert detection is not None and breach.satisfactory is False

    def test_bank_state_round_trip(self):
        factory = default_detector_factory(warmup=5, min_consecutive=1)
        bank = DetectorBank(factory=factory)
        rng = np.random.default_rng(2)
        for i in range(30):
            bank.observe(60.0 * i, "V1", "readTime", float(rng.normal(3, 0.1)))
            bank.observe(60.0 * i, "V1", "readIO", 1.0)  # ignored by policy
        state = json.loads(json.dumps(bank.state_dict()))

        twin = DetectorBank(factory=factory)
        twin.load_state(state)
        assert set(twin.detectors) == set(bank.detectors)
        assert twin._ignored == bank._ignored
        spike = 50.0
        a = bank.observe(9999.0, "V1", "readTime", spike)
        b = twin.observe(9999.0, "V1", "readTime", spike)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------------------
# incident round trip + durable store
# ---------------------------------------------------------------------------
class TestIncidentRoundTrip:
    def test_to_from_dict_fixed_point(self):
        incident = Incident(
            incident_id="INC-env-1",
            env_name="env",
            key=("env", "V1/readTime"),
            opened_at=100.0,
            detections=[_detection(100.0), _detection(160.0, magnitude=4.5)],
            deduped=1,
        )
        incident.begin_diagnosis(200.0)
        incident.resolve(300.0)
        ticket = incident.to_dict()
        assert Incident.from_dict(ticket).to_dict() == ticket

    def test_restored_incident_reports_top_cause_from_data(self):
        ticket = Incident(
            incident_id="i",
            env_name="e",
            key=("e", "t"),
            opened_at=0.0,
            detections=[_detection(0.0)],
        ).to_dict()
        ticket["report"] = {"causes": [{"cause_id": "lock-contention"}]}
        assert Incident.from_dict(ticket).top_cause_id == "lock-contention"


class TestIncidentStore:
    def test_transitions_journalled_and_history_folds(self, tmp_path):
        store = IncidentStore.open(tmp_path)
        manager = IncidentManager("env-a", cooldown_s=600.0, store=store)
        incident = manager.observe(_detection(100.0))
        manager.observe(_detection(160.0))  # absorbed into the live incident
        manager.begin_diagnosis(incident, 200.0)
        manager.resolve(incident, 300.0)

        events = [rec["event"] for rec in store.transitions(incident.incident_id)]
        assert events == ["open", "absorb", "diagnosing", "resolved"]
        history = store.history()
        assert len(history) == 1
        assert history[0]["state"] == "resolved"
        assert history[0]["deduped"] == 1

    def test_history_survives_reopen(self, tmp_path):
        store = IncidentStore.open(tmp_path)
        manager = IncidentManager("env-a", store=store)
        incident = manager.observe(_detection(100.0))
        manager.resolve(incident, 300.0)
        before = store.history()
        store.close()

        reopened = IncidentStore.open(tmp_path)
        assert reopened.history() == before
        assert [i.incident_id for i in reopened.incidents()] == [incident.incident_id]
        reopened.close()

    def test_history_filters(self, tmp_path):
        store = IncidentStore.open(tmp_path)
        a = IncidentManager("env-a", store=store)
        b = IncidentManager("env-b", store=store)
        first = a.observe(_detection(100.0))
        a.resolve(first, 200.0)
        b.observe(_detection(5000.0, target="V2/readTime"))

        assert len(store.history()) == 2
        assert [t["env"] for t in store.history(env="env-b")] == ["env-b"]
        assert [t["state"] for t in store.history(state=IncidentState.RESOLVED)] == [
            "resolved"
        ]
        assert [t["opened_at"] for t in store.history(since=1000.0)] == [5000.0]
        store.close()


class TestManagerStateRoundTrip:
    def test_dedup_cooldown_counter_survive(self):
        manager = IncidentManager("env", cooldown_s=600.0)
        first = manager.observe(_detection(100.0))
        manager.observe(_detection(150.0))          # dedup
        manager.resolve(first, 200.0)
        assert manager.observe(_detection(300.0)) is None   # cooldown
        live = manager.observe(_detection(1000.0))          # reopened
        assert live is not None

        state = json.loads(json.dumps(manager.state_dict()))
        twin = IncidentManager("env", cooldown_s=600.0)
        twin.load_state(state)

        assert [i.to_dict() for i in twin.incidents] == [
            i.to_dict() for i in manager.incidents
        ]
        assert twin.suppressed == 1
        # dedup continues against the restored live incident
        assert twin.observe(_detection(1100.0)) is None
        assert twin.incidents[-1].deduped == 1
        # the id counter continues where it left off
        twin.resolve(twin.incidents[-1], 1200.0)
        fresh = twin.observe(_detection(9999.0))
        assert fresh.incident_id == "INC-env-3"


# ---------------------------------------------------------------------------
# the acceptance criterion: killed-and-resumed == uninterrupted
# ---------------------------------------------------------------------------
class TestWatchResume:
    HOURS = 6.0

    @staticmethod
    def _supervisor(state_dir=None):
        sup = FleetSupervisor(chunk_s=1800.0, cooldown_s=7200.0, state_dir=state_dir)
        sup.watch_scenario(
            scenario_flapping_san_misconfiguration(hours=TestWatchResume.HOURS)
        )
        return sup

    @pytest.fixture(scope="class")
    def reference_history(self):
        sup = self._supervisor()
        sup.run(self.HOURS * 3600.0)
        history = [i.to_dict() for i in sup.incidents()]
        assert any(t["report"] for t in history), "reference run must diagnose"
        return history

    @pytest.mark.parametrize("kill_after_hours", [3.0, 5.0])
    def test_killed_and_resumed_history_identical(
        self, tmp_path, reference_history, kill_after_hours
    ):
        state = tmp_path / "state"
        first = self._supervisor(state)
        first.run(kill_after_hours * 3600.0)
        del first  # SIGKILL: no clean shutdown, no close()

        second = self._supervisor(state)
        assert second.has_checkpoint()
        covered = second.resume()
        assert covered == kill_after_hours * 3600.0
        second.run(self.HOURS * 3600.0 - covered)

        resumed = [i.to_dict() for i in second.incidents()]
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            reference_history, sort_keys=True
        )
        # the durable journal converged to the same history
        journal = IncidentStore.open(state)
        assert json.dumps(journal.history(), sort_keys=True) == json.dumps(
            reference_history, sort_keys=True
        )
        journal.close()

    def test_resume_refuses_mismatched_fleet(self, tmp_path):
        state = tmp_path / "state"
        first = self._supervisor(state)
        first.run(2.0 * 3600.0)
        del first

        wrong = FleetSupervisor(chunk_s=1800.0, state_dir=state)
        wrong.watch_scenario(
            scenario_flapping_san_misconfiguration(hours=self.HOURS),
            name="some-other-name",
        )
        with pytest.raises(ValueError, match="does not match"):
            wrong.resume()

    def test_resume_refuses_mismatched_meta(self, tmp_path):
        state = tmp_path / "state"
        first = FleetSupervisor(
            chunk_s=1800.0, state_dir=state, checkpoint_meta={"hours": 6.0}
        )
        first.watch_scenario(scenario_flapping_san_misconfiguration(hours=self.HOURS))
        first.run(2.0 * 3600.0)
        del first

        second = FleetSupervisor(
            chunk_s=1800.0, state_dir=state, checkpoint_meta={"hours": 8.0}
        )
        second.watch_scenario(scenario_flapping_san_misconfiguration(hours=self.HOURS))
        with pytest.raises(ValueError, match="different run configuration"):
            second.resume()

    def test_resume_before_any_tick_required(self, tmp_path):
        state = tmp_path / "state"
        first = self._supervisor(state)
        first.run(2.0 * 3600.0)
        del first
        second = self._supervisor(state)
        second.run(second.chunk_s)
        with pytest.raises(ValueError, match="before any tick"):
            second.resume()


class TestDeltaJournal:
    def test_absorb_records_are_deltas_not_full_tickets(self, tmp_path):
        """Journal growth is linear in detections, not quadratic."""
        store = IncidentStore.open(tmp_path)
        manager = IncidentManager("env", store=store)
        manager.observe(_detection(100.0))
        for i in range(50):
            manager.observe(_detection(100.0 + i + 1))
        for rec in store.transitions():
            if rec["event"] == "absorb":
                assert "incident" not in rec and "detection" in rec
        ticket = store.history()[0]
        assert len(ticket["detections"]) == 51 and ticket["deduped"] == 50
        store.close()
        reopened = IncidentStore.open(tmp_path)
        assert reopened.history() == [ticket]
        reopened.close()

    def test_refolding_duplicate_transitions_is_idempotent(self, tmp_path):
        """A resumed supervisor deterministically re-journals the killed
        tick's transitions; folding the duplicates must not change tickets."""
        store = IncidentStore.open(tmp_path)
        manager = IncidentManager("env", store=store)
        incident = manager.observe(_detection(100.0))
        manager.observe(_detection(160.0))
        manager.begin_diagnosis(incident, 200.0)
        manager.resolve(incident, 300.0)
        once = store.history()
        # replay of the killed tick: identical transitions journalled again
        for rec in list(store.transitions()):
            store.backend.append(store.KEYSPACE, rec)
        store.close()
        reopened = IncidentStore.open(tmp_path)
        assert reopened.history() == once
        reopened.close()


class TestManagerJournalsThroughAnyBackend:
    def test_memory_backend_journal(self):
        store = IncidentStore(MemoryBackend())
        manager = IncidentManager("env", store=store)
        incident = manager.observe(_detection(1.0))
        manager.resolve(incident, 2.0)
        assert [r["event"] for r in store.transitions()] == ["open", "resolved"]
        assert store.history()[0]["state"] == "resolved"
