"""Unit tests for the streaming correlation engine (synthetic event streams)."""

from __future__ import annotations

import json

import pytest

from repro.correlate import (
    CorrelationEngine,
    FleetIncidentState,
    FleetIncidentStore,
)
from repro.storage import MemoryBackend
from repro.stream import FleetEventLog

#: Four environments on the pool, six on the switch — the pool is the more
#: specific candidate when members a-c co-fire.
MEMBERSHIP = {
    "P1": ("env-a", "env-b", "env-c", "env-d"),
    "SW": ("env-a", "env-b", "env-c", "env-d", "env-e", "env-f"),
}
ALL_ENVS = MEMBERSHIP["SW"]
WINDOW = 600.0


def adv(env, t):
    return {"type": "advanced", "env": env, "advanced_s": t}


def opened(env, iid, t):
    return {"type": "incident_opened", "env": env, "incident_id": iid, "opened_at": t}


def resolved(env, iid, t):
    return {"type": "incident_resolved", "env": env, "incident_id": iid, "resolved_at": t}


def engine(**kw):
    kw.setdefault("window_s", WINDOW)
    kw.setdefault("min_members", 3)
    kw.setdefault("drilldown_delay_s", 0.0)
    return CorrelationEngine(MEMBERSHIP, **kw)


def advance_all(eng, t, envs=ALL_ENVS):
    ready = []
    for env in envs:
        ready.extend(eng.observe(adv(env, t)))
    return ready


class TestGrouping:
    def test_cooccurring_opens_merge_into_one_group(self):
        eng = engine()
        eng.observe(opened("env-a", "A1", 100.0))
        eng.observe(opened("env-b", "B1", 110.0))
        eng.observe(opened("env-c", "C1", 120.0))
        assert len(eng.fleet_incidents()) == 0  # watermark still at 0
        ready = advance_all(eng, 700.0)
        groups = eng.fleet_incidents()
        assert len(groups) == 1
        group = groups[0]
        # P1 (3 of 4 attached) is more specific than SW (3 of 6).
        assert group.component_id == "P1"
        assert group.member_envs == ["env-a", "env-b", "env-c"]
        assert group.confidence == pytest.approx(0.75)
        assert group.state is FleetIncidentState.OPEN
        # drilldown_delay 0: surfaced for drill-down immediately
        assert [g.fleet_id for g in ready] == [group.fleet_id]

    def test_below_min_members_no_group(self):
        eng = engine()
        eng.observe(opened("env-a", "A1", 100.0))
        eng.observe(opened("env-b", "B1", 110.0))
        advance_all(eng, 700.0)
        assert eng.fleet_incidents() == []

    def test_staggered_opens_outside_window_never_merge(self):
        eng = engine()
        eng.observe(opened("env-a", "A1", 100.0))
        advance_all(eng, 800.0)
        eng.observe(opened("env-b", "B1", 900.0))
        advance_all(eng, 1600.0)
        eng.observe(opened("env-c", "C1", 1700.0))
        advance_all(eng, 2400.0)
        assert eng.fleet_incidents() == []

    def test_later_open_grows_live_group_and_updates_confidence(self):
        eng = engine()
        for env, iid in [("env-a", "A1"), ("env-b", "B1"), ("env-c", "C1")]:
            eng.observe(opened(env, iid, 100.0))
        advance_all(eng, 200.0)
        group = eng.fleet_incidents()[0]
        assert group.confidence == pytest.approx(0.75)
        eng.observe(opened("env-d", "D1", 400.0))
        advance_all(eng, 500.0)
        assert group.member_envs == ["env-a", "env-b", "env-c", "env-d"]
        assert group.confidence == pytest.approx(1.0)

    def test_unattached_env_is_ignored(self):
        eng = engine()
        eng.observe(opened("stranger", "S1", 100.0))
        eng.observe(opened("env-a", "A1", 100.0))
        eng.observe(opened("env-b", "B1", 110.0))
        advance_all(eng, 700.0)
        assert eng.fleet_incidents() == []
        assert eng.disposition("S1", "stranger", 100.0) == "independent"

    def test_baseline_open_rate_discounts_confidence(self):
        """Conditional co-occurrence: the same wave clears the bar on a quiet
        fleet but not on one where two members open incidents all the time
        (their presence in the window is expected by chance)."""

        def final_wave(eng):
            base = 30 * 700.0 + 5000.0
            for i, (env, iid) in enumerate(
                [("env-a", "A-wave"), ("env-b", "B-wave"), ("env-c", "C-wave")]
            ):
                eng.observe(opened(env, iid, base + 10.0 * i))
            advance_all(eng, base + 2000.0)

        quiet = engine(min_confidence=0.6)
        advance_all(quiet, 30 * 700.0)  # same clock, no history
        final_wave(quiet)
        assert len(quiet.fleet_incidents()) == 1
        assert quiet.fleet_incidents()[0].confidence == pytest.approx(0.75)

        noisy = engine(min_confidence=0.6)
        # envs a and b flap constantly (open + resolve every 700 s; pairs
        # never reach min_members, so no noise group forms)
        for wave in range(30):
            t = 700.0 * wave
            noisy.observe(opened("env-a", f"A-noise-{wave}", t + 1.0))
            noisy.observe(opened("env-b", f"B-noise-{wave}", t + 2.0))
            noisy.observe(resolved("env-a", f"A-noise-{wave}", t + 3.0))
            noisy.observe(resolved("env-b", f"B-noise-{wave}", t + 4.0))
            advance_all(noisy, t + 700.0)
        final_wave(noisy)
        # expected co-occupancy of a+b eats the margin: (3 - ~1.15) / 4 < 0.6
        assert len(noisy.fleet_incidents()) == 0


class TestLifecycle:
    def _grouped_engine(self):
        eng = engine()
        for env, iid in [("env-a", "A1"), ("env-b", "B1"), ("env-c", "C1")]:
            eng.observe(opened(env, iid, 100.0))
        advance_all(eng, 200.0)
        return eng, eng.fleet_incidents()[0]

    def test_group_resolves_when_all_members_resolve(self):
        eng, group = self._grouped_engine()
        eng.observe(resolved("env-a", "A1", 300.0))
        eng.observe(resolved("env-b", "B1", 300.0))
        advance_all(eng, 400.0)
        assert group.state is FleetIncidentState.OPEN
        eng.observe(resolved("env-c", "C1", 450.0))
        advance_all(eng, 500.0)
        assert group.state is FleetIncidentState.RESOLVED
        assert group.resolved_at == 450.0

    def test_disposition_transitions(self):
        eng = engine()
        eng.observe(opened("env-a", "A1", 100.0))
        assert eng.disposition("A1", "env-a", 100.0) == "pending"
        advance_all(eng, 200.0)
        # alone, still pending: siblings may fire until 100 + window
        assert eng.disposition("A1", "env-a", 100.0) == "pending"
        advance_all(eng, 100.0 + WINDOW)
        assert eng.disposition("A1", "env-a", 100.0) == "independent"

    def test_grouped_disposition_and_short_circuit(self):
        eng, group = self._grouped_engine()
        assert eng.disposition("A1", "env-a", 100.0) == "grouped"
        assert eng.short_circuit("A1") is None  # report not attached yet
        eng.attach_report(group.fleet_id, {"causes": [{"cause_id": "shared-component:P1"}]})
        fleet_id, resolve_at, report = eng.short_circuit("A1")
        assert fleet_id == group.fleet_id
        assert resolve_at == group.opened_at
        assert report["causes"][0]["cause_id"] == "shared-component:P1"
        assert group.top_cause_id == "shared-component:P1"

    def test_drilldown_delay_defers_readiness(self):
        eng = CorrelationEngine(
            MEMBERSHIP, window_s=WINDOW, min_members=3, drilldown_delay_s=500.0
        )
        for env, iid in [("env-a", "A1"), ("env-b", "B1"), ("env-c", "C1")]:
            eng.observe(opened(env, iid, 100.0))
        assert advance_all(eng, 200.0) == []  # group open, not ready yet
        assert len(eng.fleet_incidents()) == 1
        ready = advance_all(eng, 700.0)  # watermark past 120 + 500
        assert len(ready) == 1

    def test_only_the_advanced_feed_passing_the_cutoff_returns_groups(self):
        """Opens and resolves are only buffered: observe() returns [] for
        them.  A ready group comes back once, from the ``advanced`` feed
        whose watermark passes its drill-down cutoff (the supervisor feeds
        transitions without looking for groups, and drills down only on
        progress feeds)."""
        eng = CorrelationEngine(
            MEMBERSHIP, window_s=WINDOW, min_members=3, drilldown_delay_s=500.0
        )
        for env, iid in [("env-a", "A1"), ("env-b", "B1"), ("env-c", "C1")]:
            assert eng.observe(opened(env, iid, 100.0)) == []
        assert advance_all(eng, 200.0) == []
        (group,) = eng.fleet_incidents()
        cutoff = group.opened_at + 500.0
        assert eng.observe(resolved("env-a", "A1", 250.0)) == []
        # The watermark is the slowest member's clock: env-f holds it back.
        assert advance_all(eng, cutoff, envs=ALL_ENVS[:-1]) == []
        assert eng.observe(opened("env-d", "D1", 300.0)) == []
        assert eng.observe(resolved("env-b", "B1", 300.0)) == []
        assert eng.observe(adv(ALL_ENVS[-1], cutoff)) == [group]
        assert eng.observe(opened("env-e", "E1", cutoff)) == []
        assert eng.observe(resolved("env-c", "C1", cutoff)) == []
        assert advance_all(eng, cutoff + 100.0) == []


class TestDeterminism:
    def test_refeeding_identical_events_is_idempotent(self):
        store = FleetIncidentStore(MemoryBackend())
        eng = engine(store=store)
        events = [opened("env-a", "A1", 100.0), opened("env-b", "B1", 110.0),
                  opened("env-c", "C1", 120.0)]
        for event in events:
            eng.observe(event)
        advance_all(eng, 700.0)
        once = store.history()
        for event in events:  # at-least-once delivery after a resume
            eng.observe(event)
        advance_all(eng, 800.0)
        assert store.history() == once
        assert len(eng.fleet_incidents()) == 1

    def test_arrival_order_does_not_change_grouping(self):
        """Watermark processing sorts by simulated time: scrambled arrival
        (the barrier-free runtime's interleaving) yields the same groups."""

        def run(order):
            eng = engine()
            for event in order:
                eng.observe(event)
            advance_all(eng, 700.0)
            advance_all(eng, 1500.0)
            return [g.to_dict() for g in eng.fleet_incidents()]

        events = [
            opened("env-a", "A1", 100.0),
            opened("env-b", "B1", 110.0),
            opened("env-c", "C1", 120.0),
            opened("env-d", "D1", 400.0),
        ]
        ordered = run(events)
        scrambled = run([events[3], events[1], events[0], events[2]])
        assert json.dumps(ordered, sort_keys=True) == json.dumps(
            scrambled, sort_keys=True
        )
        assert ordered and ordered[0]["members"]

    def test_confidence_independent_of_how_far_clocks_raced_ahead(self):
        """Regression: confidence once read members' LIVE clocks, which race
        arbitrarily ahead of the watermark under the barrier-free runtime —
        the same simulated history journalled different confidences
        depending on interleaving.  Rates must be measured over the
        watermark."""

        def run(lead_clock):
            eng = engine(min_confidence=0.0)
            # a prior wave so baseline open counts are nonzero
            for env, iid in [("env-a", "P1"), ("env-b", "P2"), ("env-c", "P3")]:
                eng.observe(opened(env, iid, 1000.0))
                eng.observe(resolved(env, iid, 1100.0))
            advance_all(eng, 2000.0)
            # the wave under test
            for env, iid in [("env-a", "A2"), ("env-b", "B2"), ("env-c", "C2")]:
                eng.observe(opened(env, iid, 50_000.0))
            # every member except the laggard races ahead (its clock, not
            # the watermark); the laggard then crosses 51k in BOTH variants,
            # so the watermark sequence at processing time is identical
            for env in ALL_ENVS[:-1]:
                eng.observe(adv(env, lead_clock))
            eng.observe(adv(ALL_ENVS[-1], 51_000.0))
            return [g.confidence for g in eng.fleet_incidents()]

        assert run(51_000.0) == run(500_000.0)
        assert len(run(51_000.0)) == 2  # prior wave grouped too

    def test_state_roundtrip_continues_identically(self):
        def feed_first_half(eng):
            eng.observe(opened("env-a", "A1", 100.0))
            eng.observe(opened("env-b", "B1", 110.0))
            advance_all(eng, 150.0)

        def feed_second_half(eng):
            eng.observe(opened("env-c", "C1", 130.0))
            advance_all(eng, 700.0)
            eng.observe(resolved("env-a", "A1", 800.0))
            eng.observe(resolved("env-b", "B1", 800.0))
            eng.observe(resolved("env-c", "C1", 820.0))
            advance_all(eng, 900.0)

        uninterrupted = engine()
        feed_first_half(uninterrupted)
        feed_second_half(uninterrupted)

        first = engine()
        feed_first_half(first)
        frozen = json.loads(json.dumps(first.state_dict()))  # JSON-able
        second = engine()
        second.load_state(frozen)
        feed_second_half(second)

        assert json.dumps(second.to_dict(), sort_keys=True) == json.dumps(
            uninterrupted.to_dict(), sort_keys=True
        )
        assert second.fleet_incidents()[0].state is FleetIncidentState.RESOLVED


class TestEventLogTailing:
    def test_consume_log_matches_in_process_feed(self):
        log = FleetEventLog(MemoryBackend())
        events = [
            opened("env-a", "A1", 100.0),
            opened("env-b", "B1", 110.0),
            opened("env-c", "C1", 120.0),
        ]
        for event in events:
            log.append(event)
        for env in ALL_ENVS:
            log.append(adv(env, 700.0))

        tailer = engine()
        last = tailer.consume_log(log)
        assert last == log.last_seq

        fed = engine()
        for event in events:
            fed.observe(event)
        advance_all(fed, 700.0)
        assert json.dumps(tailer.to_dict(), sort_keys=True) == json.dumps(
            fed.to_dict(), sort_keys=True
        )
        # incremental tailing picks up only the new records
        log.append(opened("env-d", "D1", 400.0))
        for env in ALL_ENVS:
            log.append(adv(env, 1200.0))
        last2 = tailer.consume_log(log, after_seq=last)
        assert last2 > last
        assert tailer.fleet_incidents()[0].member_envs == [
            "env-a", "env-b", "env-c", "env-d",
        ]

    def test_finalize_drains_without_watermark(self):
        eng = engine()
        for env, iid in [("env-a", "A1"), ("env-b", "B1"), ("env-c", "C1")]:
            eng.observe(opened(env, iid, 100.0))
        assert eng.fleet_incidents() == []
        eng.finalize()
        assert len(eng.fleet_incidents()) == 1


class TestFleetIncidentStore:
    def _populated(self, tmp_path):
        store = FleetIncidentStore.open(tmp_path)
        eng = engine(store=store)
        for env, iid in [("env-a", "A1"), ("env-b", "B1"), ("env-c", "C1")]:
            eng.observe(opened(env, iid, 100.0))
        advance_all(eng, 700.0)
        group = eng.fleet_incidents()[0]
        eng.attach_report(group.fleet_id, {"causes": [{"cause_id": "shared-component:P1"}]})
        for env, iid in [("env-a", "A1"), ("env-b", "B1"), ("env-c", "C1")]:
            eng.observe(resolved(env, iid, 900.0))
        advance_all(eng, 1000.0)
        return store, group

    def test_reopen_replays_identically(self, tmp_path):
        store, _group = self._populated(tmp_path)
        before = store.history()
        assert before[0]["state"] == "resolved"
        assert before[0]["report"]["causes"][0]["cause_id"] == "shared-component:P1"
        store.close()
        reopened = FleetIncidentStore.open(tmp_path)
        assert json.dumps(reopened.history(), sort_keys=True) == json.dumps(
            before, sort_keys=True
        )
        reopened.close()

    def test_duplicate_transitions_fold_idempotently(self, tmp_path):
        store, _group = self._populated(tmp_path)
        once = store.history()
        for rec in list(store.transitions()):
            store.backend.append(store.KEYSPACE, rec)
        store.close()
        reopened = FleetIncidentStore.open(tmp_path)
        assert reopened.history() == once
        reopened.close()

    def test_history_filters(self, tmp_path):
        store, group = self._populated(tmp_path)
        assert store.history(component="P1")[0]["fleet_id"] == group.fleet_id
        assert store.history(component="SW") == []
        assert store.history(state="resolved") != []
        assert store.history(state="open") == []
        assert store.history(since=1e9) == []
        store.close()


class TestResumeGuard:
    def test_load_state_refuses_mismatched_parameters(self):
        """Resuming with a different window/min-members would silently
        produce a divergent fleet history — it must refuse instead."""
        eng = engine()
        frozen = eng.state_dict()
        twin = CorrelationEngine(
            MEMBERSHIP, window_s=WINDOW / 2, min_members=3, drilldown_delay_s=0.0
        )
        with pytest.raises(ValueError, match="different[ \\n]+parameters"):
            twin.load_state(frozen)
        same = engine()
        same.load_state(frozen)  # identical parameters load fine


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CorrelationEngine(MEMBERSHIP, window_s=0.0)
        with pytest.raises(ValueError):
            CorrelationEngine(MEMBERSHIP, min_members=1)
        with pytest.raises(ValueError):
            CorrelationEngine(MEMBERSHIP, min_confidence=1.5)
        with pytest.raises(ValueError):
            CorrelationEngine(MEMBERSHIP, drilldown_delay_s=-1.0)


class TestReEscalation:
    """A successor group opening inside the cooldown links its predecessor."""

    def _resolved_first_wave(self, eng):
        for env, iid in [("env-a", "A1"), ("env-b", "B1"), ("env-c", "C1")]:
            eng.observe(opened(env, iid, 100.0))
        advance_all(eng, 700.0)
        first = eng.fleet_incidents()[0]
        for env, iid in [("env-a", "A1"), ("env-b", "B1"), ("env-c", "C1")]:
            eng.observe(resolved(env, iid, 750.0))
        advance_all(eng, 800.0)
        assert first.state is FleetIncidentState.RESOLVED
        assert first.escalated_from is None
        return first

    def test_successor_inside_cooldown_links_predecessor(self):
        eng = engine()
        first = self._resolved_first_wave(eng)
        # New wave on the same component within one window of the resolve.
        for env, iid in [("env-a", "A2"), ("env-b", "B2"), ("env-c", "C2")]:
            eng.observe(opened(env, iid, 1250.0))
        advance_all(eng, 1900.0)
        groups = eng.fleet_incidents()
        assert len(groups) == 2
        successor = [g for g in groups if g.fleet_id != first.fleet_id][0]
        assert successor.escalated_from == first.fleet_id

    def test_successor_outside_cooldown_is_unlinked(self):
        eng = engine()
        first = self._resolved_first_wave(eng)
        # resolved_at = 750, window 600: opens at 1400 are past the cooldown.
        for env, iid in [("env-a", "A2"), ("env-b", "B2"), ("env-c", "C2")]:
            eng.observe(opened(env, iid, 1400.0))
        advance_all(eng, 2000.0)
        successor = [
            g for g in eng.fleet_incidents() if g.fleet_id != first.fleet_id
        ][0]
        assert successor.escalated_from is None

    def test_link_survives_journal_and_dict_roundtrip(self, tmp_path):
        store = FleetIncidentStore.open(tmp_path)
        eng = engine(store=store)
        first = self._resolved_first_wave(eng)
        for env, iid in [("env-a", "A2"), ("env-b", "B2"), ("env-c", "C2")]:
            eng.observe(opened(env, iid, 1250.0))
        advance_all(eng, 1900.0)
        tickets = {t["fleet_id"]: t for t in store.history()}
        successor_id = [f for f in tickets if f != first.fleet_id][0]
        assert tickets[successor_id]["escalated_from"] == first.fleet_id
        assert tickets[first.fleet_id]["escalated_from"] is None
        store.close()
        # The open record carries the full ticket, so a cold replay folds
        # the link back too.
        reopened = FleetIncidentStore.open(tmp_path)
        assert (
            reopened.history(component="P1")[-1]["escalated_from"]
            == first.fleet_id
        )
        reopened.close()

    def test_cooldown_survives_checkpoint_resume(self):
        eng = engine()
        first = self._resolved_first_wave(eng)
        # Kill/resume between the resolve and the successor wave: the
        # cooldown map must come back from the checkpoint or the resumed
        # run would diverge from the uninterrupted one.
        resumed = engine()
        resumed.load_state(eng.state_dict())
        for env, iid in [("env-a", "A2"), ("env-b", "B2"), ("env-c", "C2")]:
            resumed.observe(opened(env, iid, 1250.0))
        advance_all(resumed, 1900.0)
        successor = [
            g for g in resumed.fleet_incidents() if g.fleet_id != first.fleet_id
        ][0]
        assert successor.escalated_from == first.fleet_id
