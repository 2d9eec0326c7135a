"""Acceptance: shared fabrics + correlation engine + drill-down, end to end.

The ISSUE-5 acceptance criteria:

* on the shared-pool scenario (8 environments, 6 attached to the faulty
  pool) the engine groups all affected members' incidents into ONE
  ``FleetIncident`` whose top-ranked cause is the shared pool;
* the coincidental independent-faults control produces ZERO merged groups;
* a killed-and-resumed run's correlation history is byte-for-byte identical
  to the uninterrupted run's.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.correlate import (
    ComponentEvidence,
    CorrelationEngine,
    FleetIncidentState,
    FleetIncidentStore,
    fabric_coincidental_independent_faults,
    fabric_shared_pool_saturation,
    fabric_shared_switch_degradation,
    rank_components_for_member,
)
from repro.stream import FleetSupervisor, IncidentState

HOURS = 6.0


@pytest.fixture(scope="module")
def pool_run():
    """The acceptance fleet: 8 environments, 6 attached to the faulty pool."""
    fabric = fabric_shared_pool_saturation(hours=HOURS, n_envs=8, attached=6)
    engine = fabric.correlator()
    supervisor = FleetSupervisor(correlator=engine, cooldown_s=HOURS * 3600.0)
    fabric.watch_all(supervisor)
    events: list[dict] = []
    supervisor.run(HOURS * 3600.0, on_event=events.append)
    return fabric, engine, supervisor, events


class TestSharedPoolSaturation:
    def test_one_fleet_incident_groups_all_affected_members(self, pool_run):
        fabric, engine, _sup, _events = pool_run
        groups = engine.fleet_incidents()
        assert len(groups) == 1
        group = groups[0]
        assert group.component_id == "P1"
        assert sorted(group.member_envs) == sorted(fabric.membership()["P1"])

    def test_top_ranked_cause_is_the_shared_pool(self, pool_run):
        _fabric, engine, _sup, _events = pool_run
        group = engine.fleet_incidents()[0]
        assert group.top_cause_id == "shared-component:P1"
        causes = group.report_data["causes"]
        # the pool out-ranks the (also shared, also on-path) core switch:
        # two attached-but-healthy members are evidence against the switch
        by_id = {c["component_id"]: c for c in causes}
        assert by_id["P1"]["score"] > by_id["fcsw-core"]["score"]
        assert by_id["P1"]["coverage"] == pytest.approx(1.0)

    def test_confidence_and_lifecycle(self, pool_run):
        _fabric, engine, _sup, _events = pool_run
        group = engine.fleet_incidents()[0]
        assert group.confidence >= 0.9  # six quiet members firing together
        assert group.state is FleetIncidentState.RESOLVED
        assert all(m["resolved_at"] is not None for m in group.members)

    def test_member_incidents_short_circuited_with_fleet_report(self, pool_run):
        """One fleet report instead of N redundant per-member diagnoses."""
        fabric, engine, supervisor, _events = pool_run
        group = engine.fleet_incidents()[0]
        member_ids = set(group.member_incident_ids)
        assert member_ids  # several incidents per member (metric + SLO)
        for incident in supervisor.incidents():
            assert incident.incident_id in member_ids
            assert incident.state is IncidentState.RESOLVED
            # short-circuited: fleet report attached, no per-member pipeline
            assert incident.report is None
            assert incident.report_data["causes"][0]["cause_id"] == (
                "shared-component:P1"
            )
            # resolved at a deterministic simulated instant: the group's
            # open time (late joiners: their own open time)
            assert incident.resolved_at == max(
                incident.opened_at, group.opened_at
            )

    def test_fleet_resolves_are_emitted_at_their_resolve_time(self, pool_run):
        """A short-circuit resolve's event ``clock`` is its deterministic
        ``resolved_at``, not the member clock at which the member noticed
        the fleet decision (that depends on how the fleet interleaved)."""
        *_, events = pool_run
        fleet_resolves = [
            e for e in events if e["type"] == "incident_resolved" and e.get("fleet")
        ]
        assert fleet_resolves
        assert [e["clock"] for e in fleet_resolves] == [
            e["resolved_at"] for e in fleet_resolves
        ]

    def test_unattached_members_stay_healthy(self, pool_run):
        fabric, _engine, supervisor, _events = pool_run
        attached = set(fabric.membership()["P1"])
        for name, watched in supervisor.watched.items():
            if name not in attached:
                assert len(watched.manager.incidents) == 0

    def test_rollup_surfaces(self, pool_run):
        _fabric, _engine, supervisor, _events = pool_run
        table = supervisor.render_table()
        assert "fleet incident" in table
        assert "FLEET-P1-1" in table
        payload = json.loads(json.dumps(supervisor.to_dict()))
        assert payload["fleet_incidents"][0]["component_id"] == "P1"
        rows = {r["env"]: r for r in payload["fleet"]}
        attached = _fabric.membership()["P1"]
        assert all(rows[env]["group"] == "FLEET-P1-1" for env in attached)


class TestMemberEvidence:
    def test_no_completed_run_by_the_cutoff_gives_off_path_evidence(
        self, pool_run
    ):
        """A member whose first run ends after the drill-down cutoff cannot
        vote: every candidate comes back off-path, and nothing raises."""
        fabric, _engine, supervisor, _events = pool_run
        watched = supervisor.watched[fabric.membership()["P1"][0]]
        bundle = watched.env.bundle()
        runs = bundle.stores.runs.runs(watched.query_name)
        cutoff = min(run.end_time for run in runs) - 1.0
        candidates = sorted(fabric.membership())
        evidence = rank_components_for_member(
            bundle, watched.query_name, candidates, env=watched.name, until=cutoff
        )
        assert evidence == [
            ComponentEvidence(component, watched.name, False, None, 0.0)
            for component in candidates
        ]
        # With its whole history the same member has the pool on-path.
        evidence = watched.shared_evidence(candidates, until=None)
        assert "P1" in [ev.component_id for ev in evidence if ev.on_path]


class TestCoincidentalControl:
    def test_independent_staggered_faults_never_merge(self):
        fabric = fabric_coincidental_independent_faults(hours=HOURS)
        engine = fabric.correlator()
        supervisor = FleetSupervisor(correlator=engine)
        fabric.watch_all(supervisor)
        supervisor.run(HOURS * 3600.0)
        assert engine.fleet_incidents() == []
        # the faults did open incidents — they were just never correlated
        opened = [i for w in supervisor.watched.values() for i in w.manager.incidents]
        assert len(opened) >= 2


class TestSharedSwitchDegradation:
    def test_switch_named_only_by_the_fleet_view(self):
        fabric = fabric_shared_switch_degradation(hours=HOURS, n_envs=4)
        engine = fabric.correlator()
        supervisor = FleetSupervisor(correlator=engine, cooldown_s=HOURS * 3600.0)
        fabric.watch_all(supervisor)
        supervisor.run(HOURS * 3600.0)
        groups = engine.fleet_incidents()
        assert len(groups) == 1
        group = groups[0]
        assert group.component_id == "fcsw-core"
        assert group.top_cause_id == "shared-component:fcsw-core"
        assert sorted(group.member_envs) == sorted(fabric.members)
        # P2 is shared and on dependency paths but its metrics never moved
        by_id = {c["component_id"]: c for c in group.report_data["causes"]}
        assert by_id["fcsw-core"]["score"] > by_id["P2"]["score"]


class TestOutOfProcessTailing:
    def test_correlator_tails_a_state_dir_without_living_in_process(
        self, tmp_path
    ):
        """PR-4 follow-on closed: the supervisor journals its whole event
        stream through the `fleet_events` keyspace, so a correlator in
        another process can reconstruct the fleet incidents by tailing the
        state dir — no `on_event` callback, no shared memory."""
        from repro.stream import FleetEventLog

        state = tmp_path / "state"
        fabric = fabric_shared_pool_saturation(hours=HOURS, n_envs=4, attached=3)
        supervisor = FleetSupervisor(
            cooldown_s=HOURS * 3600.0, state_dir=state  # no correlator wired
        )
        fabric.watch_all(supervisor)
        supervisor.run(HOURS * 3600.0)

        # "another process": a fresh engine over the durable log only
        log = FleetEventLog.open(state)
        tailer = fabric.correlator()
        last = tailer.consume_log(log)
        assert last == log.last_seq >= 0
        groups = tailer.fleet_incidents()
        assert len(groups) >= 1
        assert groups[0].component_id == "P1"
        assert sorted(groups[0].member_envs) == sorted(fabric.membership()["P1"])
        log.close()

    def test_log_tailer_matches_in_process_engine(self, tmp_path):
        """Every correlation-relevant event is journalled with its
        deterministic simulated time (including fleet short-circuit
        resolutions), so a tailer reconstructs the in-process engine's
        fleet history exactly — up to the drill-down reports, which need
        the member bundles the log does not carry."""
        import json

        from repro.stream import FleetEventLog

        state = tmp_path / "state"
        fabric = fabric_shared_pool_saturation(hours=HOURS, n_envs=4, attached=3)
        engine = fabric.correlator()
        supervisor = FleetSupervisor(
            correlator=engine, cooldown_s=2 * 3600.0, state_dir=state
        )
        fabric.watch_all(supervisor)
        supervisor.run(HOURS * 3600.0)

        tailer = fabric.correlator()
        log = FleetEventLog.open(state)
        tailer.consume_log(log)
        tailer.finalize()
        log.close()

        def without_reports(groups):
            return json.dumps(
                [{**g, "report": None} for g in groups], sort_keys=True
            )

        assert len(tailer.fleet_incidents()) == len(engine.fleet_incidents()) > 0
        assert without_reports(tailer.to_dict()) == without_reports(
            engine.to_dict()
        )


class _DeferringEngine(CorrelationEngine):
    """Holds every ready group back until :meth:`finalize`, so each
    drill-down comes from the supervisor's final sweep — as for a group
    that the last watermark advance decides."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.held: list = []

    def observe(self, event: dict) -> list:
        self.held.extend(super().observe(event))
        return []

    def finalize(self) -> list:
        held, self.held = self.held, []
        return held + super().finalize()


class TestFinalSweep:
    def test_drill_downs_run_off_the_event_loop(self, monkeypatch):
        """The quiesce sweep sends its drill-downs through the worker pool,
        like the per-iteration path: under ``repro serve`` the loop is
        shared by every tenant and SSE client."""
        calls: list[tuple[str, bool]] = []
        drill_down = FleetSupervisor._on_fleet_incident

        def recording(self, group):
            try:
                asyncio.get_running_loop()
                on_loop = True
            except RuntimeError:
                on_loop = False
            calls.append((group.fleet_id, on_loop))
            drill_down(self, group)

        monkeypatch.setattr(FleetSupervisor, "_on_fleet_incident", recording)
        fabric = fabric_shared_pool_saturation(hours=HOURS, n_envs=4, attached=3)
        engine = _DeferringEngine(fabric.membership())
        supervisor = FleetSupervisor(correlator=engine, cooldown_s=HOURS * 3600.0)
        fabric.watch_all(supervisor)
        supervisor.run(HOURS * 3600.0)

        assert calls, "the sweep drilled nothing down"
        assert not [fleet_id for fleet_id, on_loop in calls if on_loop]
        group = engine.fleet_incidents()[0]
        assert group.top_cause_id == "shared-component:P1"


class TestResumeParity:
    """Killed-and-resumed correlation history is byte-for-byte identical."""

    @staticmethod
    def _build(state_dir):
        fabric = fabric_shared_pool_saturation(hours=HOURS, n_envs=4, attached=3)
        engine = fabric.correlator(state_dir=state_dir)
        supervisor = FleetSupervisor(
            correlator=engine, cooldown_s=HOURS * 3600.0, state_dir=state_dir
        )
        fabric.watch_all(supervisor)
        return engine, supervisor

    @staticmethod
    def _incident_projection(supervisor):
        """The deterministic incident fields.

        With a correlator, *when* a member notices a fleet decision depends
        on fleet progress, so how many detections an open incident absorbs
        before its (deterministic, backdated) resolution is wall-dependent;
        identity, timing, and the attached report are not.
        """
        return [
            {
                "incident_id": i.incident_id,
                "env": i.env_name,
                "target": i.key[1],
                "state": i.state.value,
                "opened_at": i.opened_at,
                "resolved_at": i.resolved_at,
                "report": i.report_data,
            }
            for i in supervisor.incidents()
        ]

    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        state = tmp_path_factory.mktemp("reference")
        engine, supervisor = self._build(state)
        supervisor.run(HOURS * 3600.0)
        assert len(engine.fleet_incidents()) == 1
        return {
            "fleet": json.dumps(
                FleetIncidentStore.open(state).history(), sort_keys=True
            ),
            "engine": json.dumps(engine.to_dict(), sort_keys=True),
            "incidents": json.dumps(
                self._incident_projection(supervisor), sort_keys=True
            ),
        }

    @pytest.mark.parametrize("kill_after_hours", [3.5, 4.5])
    def test_killed_and_resumed_correlation_history_identical(
        self, tmp_path, reference, kill_after_hours
    ):
        state = tmp_path / "state"
        first_engine, first = self._build(state)
        first.run(kill_after_hours * 3600.0)
        del first, first_engine  # SIGKILL: no clean shutdown

        second_engine, second = self._build(state)
        assert second.has_checkpoint()
        covered = second.resume()
        assert covered == kill_after_hours * 3600.0
        second.run(HOURS * 3600.0 - covered)

        assert (
            json.dumps(second_engine.to_dict(), sort_keys=True)
            == reference["engine"]
        )
        assert (
            json.dumps(self._incident_projection(second), sort_keys=True)
            == reference["incidents"]
        )
        journal = FleetIncidentStore.open(state)
        assert json.dumps(journal.history(), sort_keys=True) == reference["fleet"]
        journal.close()
