"""Schedule equivalence + kill/resume under overlapped diagnosis.

The barrier-free runtime must be *semantically invisible*: a seeded fleet
supervised by the asyncio scheduler (environments on independent clocks,
diagnoses overlapping other members' advances) must produce exactly the
incidents — same detections, same clocks, same ranked root causes — under
every schedule.  The reference runs one worker and one diagnosis at a time
on a pool that delays every task by perturbation seed 0; other seeds and
worker counts, and the default pool, must reproduce it byte-for-byte.  And
a run stopped mid-flight must resume from its clock-vector checkpoint into
a history that is byte-for-byte the uninterrupted one.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import SCENARIOS
from repro.stream import FleetSupervisor, IncidentStore

from .conftest import PerturbedPool

HOURS = 6.0

#: Eight seeded environments spanning SAN, DB, and combined fault classes.
EIGHT_ENV_FLEET = (
    "san-misconfiguration",
    "flapping-san-misconfiguration",
    "two-external-workloads",
    "data-property-change",
    "lock-contention",
    "cpu-saturation",
    "buffer-pool-thrashing",
    "raid-rebuild",
)


def _fleet_supervisor(names, *, max_workers=None, state_dir=None, **kwargs):
    supervisor = FleetSupervisor(
        chunk_s=1800.0,
        cooldown_s=7200.0,
        max_workers=max_workers,
        state_dir=state_dir,
        **kwargs,
    )
    for name in names:
        supervisor.watch_scenario(SCENARIOS[name](hours=HOURS), name=name)
    return supervisor


def _history(supervisor):
    return json.dumps([i.to_dict() for i in supervisor.incidents()], sort_keys=True)


def _perturbed_history(seed, workers, **kwargs):
    """The 8-env fleet's history on a pool perturbed by ``seed``."""
    with PerturbedPool(seed, max_workers=workers) as pool:
        supervisor = _fleet_supervisor(
            EIGHT_ENV_FLEET, max_workers=workers, pool=pool, **kwargs
        )
        supervisor.run(HOURS * 3600.0)
    return _history(supervisor)


class TestSchedulerSyncEquivalence:
    @pytest.fixture(scope="class")
    def sequential_history(self):
        """The reference schedule: one worker, one diagnosis in flight,
        every pool task delayed by perturbation seed 0."""
        history = _perturbed_history(0, 1, max_inflight_diagnoses=1)
        assert json.loads(history), "seeded fleet must open incidents"
        return history

    @pytest.mark.parametrize("seed, workers", [(1, 1), (2, 2), (3, 2)])
    def test_perturbed_schedule_reproduces_history(
        self, sequential_history, seed, workers
    ):
        """Each seed delays every advance, drill-down and diagnosis by a
        different amount: the interleaving changes, the history must not."""
        assert _perturbed_history(seed, workers) == sequential_history

    def test_async_runtime_matches_sequential_path(self, sequential_history):
        """Same seeded 8-env fleet under run() on the default pool:
        identical incidents and ranked root causes, byte-for-byte."""
        supervisor = _fleet_supervisor(EIGHT_ENV_FLEET)
        supervisor.run(HOURS * 3600.0)
        assert _history(supervisor) == sequential_history
        # every environment genuinely reached the target on its own clock
        assert supervisor.advanced_s == HOURS * 3600.0
        assert supervisor.clocks.skew == 0.0

    def test_inflight_diagnosis_cap_does_not_change_history(
        self, sequential_history
    ):
        """--max-inflight-diagnoses throttles wall-clock scheduling only."""
        supervisor = _fleet_supervisor(EIGHT_ENV_FLEET, max_inflight_diagnoses=1)
        supervisor.run(HOURS * 3600.0)
        assert _history(supervisor) == sequential_history


class TestStopAndResumeUnderOverlap:
    """Kill (graceful stop) and resume while diagnoses overlap advances."""

    FLEET = ("flapping-san-misconfiguration", "san-misconfiguration")

    @pytest.fixture(scope="class")
    def reference_history(self):
        supervisor = _fleet_supervisor(self.FLEET)
        supervisor.run(HOURS * 3600.0)
        history = _history(supervisor)
        assert any(t["report"] for t in json.loads(history)), "reference must diagnose"
        return history

    def test_stopped_and_resumed_history_identical(self, tmp_path, reference_history):
        state = tmp_path / "state"
        first = _fleet_supervisor(self.FLEET, state_dir=state)

        def stop_after_two_hours(event):
            if event["type"] == "advanced" and event["advanced_s"] >= 2.0 * 3600.0:
                first.stop()

        first.run(HOURS * 3600.0, on_event=stop_after_two_hours)
        stopped_at = first.advanced_s
        assert 0 < stopped_at < HOURS * 3600.0, "run should have stopped early"
        del first  # no clean shutdown beyond the final checkpoint flush

        second = _fleet_supervisor(self.FLEET, state_dir=state)
        assert second.has_checkpoint()
        covered = second.resume()
        assert covered == stopped_at
        second.run(HOURS * 3600.0 - covered)

        assert _history(second) == reference_history
        # the durable journal converged to the same history
        journal = IncidentStore.open(state)
        assert (
            json.dumps(journal.history(), sort_keys=True) == reference_history
        )
        journal.close()

    def test_checkpoint_carries_clock_vector(self, tmp_path):
        state = tmp_path / "state"
        supervisor = _fleet_supervisor(self.FLEET, state_dir=state)
        supervisor.run(2.0 * 3600.0)
        payload = json.loads((state / "checkpoint.json").read_text())
        assert payload["version"] == 2
        assert set(payload["clocks"]) == set(self.FLEET)
        assert payload["advanced_s"] == min(payload["clocks"].values())
        for name, env_state in payload["environments"].items():
            assert env_state["advanced_s"] == payload["clocks"][name]

    def test_flusher_batches_checkpoints_off_the_hot_loop(self, tmp_path):
        """Mid-run checkpoints come from the dirty-flag flusher, not the
        advance path: with a tiny interval we must observe checkpoint
        events while the fleet is still advancing."""
        state = tmp_path / "state"
        supervisor = _fleet_supervisor(
            self.FLEET, state_dir=state, checkpoint_interval_s=0.05
        )
        kinds = []
        supervisor.run(3.0 * 3600.0, on_event=lambda e: kinds.append(e["type"]))
        assert "checkpoint" in kinds
        assert kinds.index("checkpoint") < len(kinds) - 1, (
            "a checkpoint should land before the run finishes"
        )

    def test_failed_environment_quiesces_fleet_before_final_checkpoint(
        self, tmp_path
    ):
        """A raising diagnosis must not leave sibling environments advancing
        while the quiesce checkpoint is written: run() propagates the error
        only after every task wound down, and the checkpoint it leaves
        behind is consistent enough to resume from."""
        state = tmp_path / "state"
        supervisor = _fleet_supervisor(self.FLEET, state_dir=state)

        class _PoisonedPipeline:
            def submit_many(self, requests, pool=None):
                def boom(_req=None):
                    raise RuntimeError("pipeline exploded")

                return [pool.submit(boom) for _ in requests]

        supervisor.pipeline = _PoisonedPipeline()
        with pytest.raises(RuntimeError, match="pipeline exploded"):
            supervisor.run(HOURS * 3600.0)
        # every environment stopped at an iteration boundary (no env is
        # mid-chunk)
        for watched in supervisor.watched.values():
            assert watched.env.clock == watched.advanced_s

        # The quiesce checkpoint persists iteration-BOUNDARY snapshots (the
        # failing environment's last consistent one — possibly one chunk
        # behind its live clock), and resumes cleanly from there.
        second = _fleet_supervisor(self.FLEET, state_dir=state)
        covered = second.resume()
        assert 0 < covered <= supervisor.advanced_s
        second.run(HOURS * 3600.0 - covered)
        assert second.advanced_s == HOURS * 3600.0

    def test_v1_checkpoint_is_refused(self, tmp_path):
        """A version-1 checkpoint (single fleet-wide duration, no clock
        vector) raises before resume() touches the fleet."""
        state = tmp_path / "state"
        first = _fleet_supervisor(self.FLEET, state_dir=state)
        first.run(2.0 * 3600.0)
        payload = json.loads((state / "checkpoint.json").read_text())
        payload["version"] = 1
        payload.pop("clocks")
        for env_state in payload["environments"].values():
            env_state.pop("advanced_s")
        (state / "checkpoint.json").write_text(json.dumps(payload))

        second = _fleet_supervisor(self.FLEET, state_dir=state)
        with pytest.raises(ValueError, match="checkpoint version 1"):
            second.resume()
        assert second.ticks == 0
        assert all(w.env.clock == 0.0 for w in second.watched.values())
