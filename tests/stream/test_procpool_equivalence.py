"""Cross-backend equivalence: threads, processes, and a perturbed schedule.

The process-backed pool must be *semantically invisible*, exactly like the
barrier-free runtime before it: a seeded 16-environment fleet supervised on
``ProcessWorkerPool`` workers (simulators and detectors hydrated in worker
processes, JSON deltas crossing the boundary) must produce byte-for-byte
the incident history of the reference schedule (one worker, every pool
task delayed by perturbation seed 0) and of the thread-pool ``run()`` path
— and a run stopped mid-flight must resume **on the other backend** into
the identical history, both directions.  Fleet correlation rides the same
guarantee: shared-fabric runs must group, rank, and short-circuit
identically across backends.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import SCENARIOS
from repro.correlate import fabric_shared_pool_saturation
from repro.runtime import ProcessWorkerPool
from repro.stream import FleetSupervisor

from .conftest import PerturbedPool

HOURS = 6.0

EIGHT = (
    "san-misconfiguration",
    "flapping-san-misconfiguration",
    "two-external-workloads",
    "data-property-change",
    "lock-contention",
    "cpu-saturation",
    "buffer-pool-thrashing",
    "raid-rebuild",
)

#: Sixteen environments: every scenario twice (independent builds under
#: distinct watch names — same registry identity, so both copies hydrate
#: identically in a worker).
SIXTEEN = tuple((name, name) for name in EIGHT) + tuple(
    (f"{name}-b", name) for name in EIGHT
)

SWITCH_FLEET = tuple(
    (name, name)
    for name in (
        "flapping-san-misconfiguration",
        "san-misconfiguration",
        "lock-contention",
        "cpu-saturation",
    )
)


def _supervisor(members, *, pool=None, state_dir=None, max_workers=None):
    supervisor = FleetSupervisor(
        chunk_s=1800.0,
        cooldown_s=7200.0,
        max_workers=max_workers,
        state_dir=state_dir,
        pool=pool,
    )
    for watch_name, scenario_name in members:
        # Hydration is always passed; thread-backed supervisors ignore it,
        # process-backed ones build the environment in its sticky worker.
        supervisor.watch_scenario(
            SCENARIOS[scenario_name](hours=HOURS),
            name=watch_name,
            hydration={"scenario": scenario_name, "hours": HOURS},
        )
    return supervisor


def _history(supervisor):
    return json.dumps([i.to_dict() for i in supervisor.incidents()], sort_keys=True)


@pytest.fixture()
def proc_pool():
    pool = ProcessWorkerPool(processes=2)
    try:
        yield pool
    finally:
        pool.shutdown()


@pytest.fixture(scope="module")
def perturbed_reference():
    """Ground truth: the 16-env fleet on one worker, perturbation seed 0."""
    with PerturbedPool(0, max_workers=1) as pool:
        supervisor = _supervisor(SIXTEEN, pool=pool, max_workers=1)
        supervisor.run(HOURS * 3600.0)
    history = _history(supervisor)
    assert json.loads(history), "seeded fleet must open incidents"
    return history


class TestBackendEquivalence:
    def test_threads_match_reference(self, perturbed_reference):
        supervisor = _supervisor(SIXTEEN)
        supervisor.run(HOURS * 3600.0)
        assert _history(supervisor) == perturbed_reference

    def test_processes_match_reference(self, perturbed_reference, proc_pool):
        supervisor = _supervisor(SIXTEEN, pool=proc_pool)
        # The hydration specs really routed every member to a worker proxy.
        assert all(
            getattr(w, "is_remote", False) for w in supervisor.watched.values()
        )
        supervisor.run(HOURS * 3600.0)
        assert _history(supervisor) == perturbed_reference
        assert supervisor.advanced_s == HOURS * 3600.0
        stats = proc_pool.stats()
        assert stats["affinity_keys"] == len(SIXTEEN)
        assert sorted(w["affinity_keys"] for w in stats["workers"]) == [8, 8]

    def test_status_rows_match_across_backends(self, proc_pool):
        """The fleet table (state, top cause, verification grades) agrees."""
        fleet = SWITCH_FLEET
        threads = _supervisor(fleet)
        threads.run(HOURS * 3600.0)
        procs = _supervisor(fleet, pool=proc_pool)
        procs.run(HOURS * 3600.0)
        assert procs.status_rows() == threads.status_rows()


class TestResumeSwitchesBackends:
    """A checkpoint is backend-neutral: stop on one pool, resume on the other."""

    @pytest.fixture(scope="class")
    def reference_history(self):
        supervisor = _supervisor(SWITCH_FLEET)
        supervisor.run(HOURS * 3600.0)
        history = _history(supervisor)
        assert any(i["report"] for i in json.loads(history)), "reference must diagnose"
        return history

    def _stop_partway(self, supervisor):
        def stop_after_two_hours(event):
            if event["type"] == "advanced" and event["advanced_s"] >= 2.0 * 3600.0:
                supervisor.stop()

        supervisor.run(HOURS * 3600.0, on_event=stop_after_two_hours)
        stopped_at = supervisor.advanced_s
        assert 0 < stopped_at < HOURS * 3600.0, "run should have stopped early"
        return stopped_at

    def test_threads_then_process(self, tmp_path, reference_history, proc_pool):
        state = tmp_path / "state"
        first = _supervisor(SWITCH_FLEET, state_dir=state)
        stopped_at = self._stop_partway(first)
        del first

        second = _supervisor(SWITCH_FLEET, pool=proc_pool, state_dir=state)
        assert second.has_checkpoint()
        covered = second.resume()
        assert covered == stopped_at
        second.run(HOURS * 3600.0 - covered)
        assert _history(second) == reference_history

    def test_process_then_threads(self, tmp_path, reference_history):
        state = tmp_path / "state"
        pool = ProcessWorkerPool(processes=2)
        try:
            first = _supervisor(SWITCH_FLEET, pool=pool, state_dir=state)
            stopped_at = self._stop_partway(first)
            del first
        finally:
            pool.shutdown()

        second = _supervisor(SWITCH_FLEET, state_dir=state)
        covered = second.resume()
        assert covered == stopped_at
        second.run(HOURS * 3600.0 - covered)
        assert _history(second) == reference_history


class TestFleetCorrelationAcrossBackends:
    """Shared-fabric grouping, ranking, and short-circuits agree byte-for-byte.

    On the process backend each affected member scores the drill-down's
    candidates in its own worker (``evidence_env``), so identical fleet
    incidents prove the evidence round-trip is lossless; the traffic check
    pins that only evidence rows, never member bundles, cross the boundary.
    """

    def _run(self, pool=None):
        fabric = fabric_shared_pool_saturation(hours=HOURS, n_envs=8, attached=6)
        engine = fabric.correlator()
        supervisor = FleetSupervisor(
            correlator=engine, cooldown_s=HOURS * 3600.0, pool=pool
        )
        fabric.watch_all(
            supervisor,
            hydration={"fleet": "shared-pool-saturation", "hours": HOURS},
        )
        supervisor.run(HOURS * 3600.0)
        return engine, supervisor

    def test_fleet_incidents_identical(self, proc_pool, monkeypatch):
        thread_engine, thread_sup = self._run()
        submitted = []
        submit_task = proc_pool.submit_task

        def recording(task, payload, *, affinity=None):
            future = submit_task(task, payload, affinity=affinity)
            submitted.append((task.rsplit(":", 1)[-1], future))
            return future

        monkeypatch.setattr(proc_pool, "submit_task", recording)
        proc_engine, proc_sup = self._run(pool=proc_pool)
        assert all(
            getattr(w, "is_remote", False) for w in proc_sup.watched.values()
        )
        traffic = [(task, len(json.dumps(f.result()))) for task, f in submitted]
        assert any(task == "evidence_env" for task, _size in traffic)
        task, size = max(traffic, key=lambda row: row[1])
        assert size <= 1 << 20, f"{task} returned {size} bytes"

        def dump(groups):
            return json.dumps([g.to_dict() for g in groups], sort_keys=True)

        thread_groups = thread_engine.fleet_incidents()
        assert thread_groups, "acceptance fabric must produce a fleet incident"
        assert dump(proc_engine.fleet_incidents()) == dump(thread_groups)
        assert _history(proc_sup) == _history(thread_sup)
