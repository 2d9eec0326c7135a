"""End-to-end closed loop: fleet supervision, auto-marking, auto-diagnosis.

This is the acceptance test of the streaming subsystem: a
:class:`FleetSupervisor` watches four environments concurrently (one with a
flapping fault), no run is ever marked by hand, and every incident that gets
diagnosed must carry a report whose top-ranked cause is the scenario's
injected ground truth.
"""

from __future__ import annotations

import pytest

from repro.cli import DEFAULT_WATCH_FLEET, SCENARIOS
from repro.lab.scenarios import (
    scenario_lock_contention,
    scenario_san_misconfiguration,
    scenario_staggered_dual_faults,
)
from repro.stream import FleetSupervisor, IncidentState

HOURS = 8.0

#: The acceptance fleet is the stock `repro watch` fleet (4 environments,
#: one flapping), so this test covers exactly what the CLI ships.
FLEET = tuple(SCENARIOS[name] for name in DEFAULT_WATCH_FLEET)


@pytest.fixture(scope="module")
def fleet_supervisor():
    supervisor = FleetSupervisor(max_workers=4)
    for factory in FLEET:
        supervisor.watch_scenario(factory(hours=HOURS))
    supervisor.run(HOURS * 3600.0)
    return supervisor


class TestClosedLoop:
    def test_four_environments_watched_concurrently(self, fleet_supervisor):
        assert len(fleet_supervisor.watched) == 4
        for watched in fleet_supervisor.watched.values():
            assert watched.env.clock == HOURS * 3600.0

    def test_every_environment_opened_incidents_without_manual_marking(
        self, fleet_supervisor
    ):
        """No label_by_window / mark() anywhere: detectors do the labelling."""
        for watched in fleet_supervisor.watched.values():
            assert len(watched.manager.incidents) >= 1, watched.name
            runs = watched.env.stores.runs
            # The response-time SLO detector labelled runs on both sides.
            assert runs.satisfactory_runs(watched.query_name)
            assert runs.unsatisfactory_runs(watched.query_name)

    def test_incidents_open_only_after_the_fault(self, fleet_supervisor):
        for watched in fleet_supervisor.watched.values():
            fault_t = watched.info.fault_time
            for incident in watched.manager.incidents:
                assert incident.opened_at >= fault_t, (
                    f"{incident.incident_id} opened at {incident.opened_at} "
                    f"before the fault at {fault_t}"
                )

    def test_every_diagnosed_incident_matches_ground_truth(self, fleet_supervisor):
        diagnosed = [
            (watched, incident)
            for watched in fleet_supervisor.watched.values()
            for incident in watched.manager.incidents
            if incident.report is not None
        ]
        assert diagnosed, "no incident was ever diagnosed"
        for watched, incident in diagnosed:
            truth = watched.info.ground_truth
            assert incident.top_cause_id in truth, (
                f"{incident.incident_id}: top cause {incident.top_cause_id} "
                f"not in ground truth {truth}"
            )

    def test_all_incidents_reach_resolved(self, fleet_supervisor):
        for incident in fleet_supervisor.incidents():
            assert incident.state is IncidentState.RESOLVED

    def test_dedup_and_cooldown_suppress_duplicates(self, fleet_supervisor):
        """The flapping fault re-fires detectors every on-window; incident
        count must stay well below raw detection count."""
        flapping = fleet_supervisor.watched["flapping-san-misconfiguration"]
        manager = flapping.manager
        absorbed = sum(i.deduped for i in manager.incidents)
        assert absorbed + manager.suppressed > 0
        detections = (
            sum(len(i.detections) for i in manager.incidents) + manager.suppressed
        )
        assert len(manager.incidents) < detections

    def test_fleet_wide_dedup(self, fleet_supervisor):
        """Across the whole fleet: many detections, few incidents."""
        total_incidents = len(fleet_supervisor.incidents())
        total_detections = sum(
            sum(len(i.detections) for i in w.manager.incidents) + w.manager.suppressed
            for w in fleet_supervisor.watched.values()
        )
        assert total_incidents < total_detections

    def test_status_rows_and_table(self, fleet_supervisor):
        rows = fleet_supervisor.status_rows()
        assert {r["env"] for r in rows} == set(fleet_supervisor.watched)
        for row in rows:
            assert row["verified"] is True, row
        table = fleet_supervisor.render_table()
        assert "top cause" in table and "[=truth]" in table

    def test_to_dict_is_json_serialisable(self, fleet_supervisor):
        import json

        payload = json.loads(json.dumps(fleet_supervisor.to_dict()))
        assert payload["fleet"] and payload["incidents"]
        diagnosed = [i for i in payload["incidents"] if i["report"] is not None]
        assert diagnosed
        assert all(i["report"]["causes"] for i in diagnosed)


class TestStaggeredDualFaults:
    @pytest.fixture(scope="class")
    def supervisor(self):
        supervisor = FleetSupervisor()
        supervisor.watch_scenario(scenario_staggered_dual_faults(hours=12.0))
        supervisor.run(12.0 * 3600.0)
        return supervisor

    def test_first_incident_opens_before_second_fault(self, supervisor):
        watched = next(iter(supervisor.watched.values()))
        first = min(i.opened_at for i in watched.manager.incidents)
        end_t = 12.0 * 3600.0
        assert end_t / 3.0 <= first < 2.0 * end_t / 3.0

    def test_final_report_ranks_both_causes(self, supervisor):
        watched = next(iter(supervisor.watched.values()))
        last = [i for i in watched.manager.incidents if i.report is not None][-1]
        high = {
            rc.match.cause_id
            for rc in last.report.ranked_causes
            if rc.match.confidence.value == "high"
        }
        assert set(watched.info.ground_truth) <= high
        assert last.top_cause_id in watched.info.ground_truth


class TestSupervisorMechanics:
    def test_worker_sizing_never_zero(self):
        """Regression: `max_workers or min(8, len(fleet))` was 0 for an
        empty fleet, so any pool-sized code path (resume fast-forward, a
        subclass calling the sizing helper) crashed constructing a
        ThreadPoolExecutor(max_workers=0).  The sizing is now clamped."""
        supervisor = FleetSupervisor()
        assert supervisor._workers(0) == 1
        assert supervisor._workers(3) == 3
        assert FleetSupervisor(max_workers=4)._workers(0) == 4
        # run() on an empty fleet still reports the real problem, not a
        # pool-construction crash.
        with pytest.raises(ValueError, match="no environments watched"):
            supervisor.run(3600.0)

    def test_duplicate_watch_name_rejected(self):
        supervisor = FleetSupervisor()
        supervisor.watch_scenario(scenario_lock_contention(hours=1.0))
        with pytest.raises(ValueError):
            supervisor.watch_scenario(scenario_lock_contention(hours=1.0))

    def test_sequential_and_parallel_advance_agree(self):
        """max_workers=1 and >1 must produce identical incident streams
        (environments are independent; the thread pool is pure fan-out)."""

        def run(workers):
            supervisor = FleetSupervisor(max_workers=workers)
            supervisor.watch_scenario(scenario_san_misconfiguration(hours=6.0))
            supervisor.watch_scenario(scenario_lock_contention(hours=6.0))
            supervisor.run(6.0 * 3600.0)
            return [
                (i.env_name, i.key, i.opened_at, len(i.detections), i.top_cause_id)
                for i in supervisor.incidents()
            ]

        assert run(1) == run(4)

    def test_incremental_advance_equals_one_shot_run(self):
        """Environment.advance in chunks reproduces Environment.run exactly."""
        from repro.lab.scenarios import scenario_san_misconfiguration as s

        one_shot = s(hours=4.0).build().run(4.0 * 3600.0)
        env = s(hours=4.0).build()
        for _ in range(8):
            env.advance(1800.0)
        chunked = env.bundle()
        runs_a = [(r.run_id, r.start_time, r.duration) for r in one_shot.stores.runs.runs()]
        runs_b = [(r.run_id, r.start_time, r.duration) for r in chunked.stores.runs.runs()]
        assert runs_a == runs_b
        assert len(one_shot.stores.metrics) == len(chunked.stores.metrics)
