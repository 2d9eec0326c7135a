"""ClockVector skew under the barrier-free loop with a paused member.

Satellite of ISSUE 5: when one member is paused by a (fleet-level or
per-member) diagnosis, the other members must keep advancing on their own
clocks — and with ``max_skew_s`` configured, the fleet's clock skew must
stay bounded by that window (which is what caps the correlation engine's
group-emit latency, since its watermark is the fleet floor).
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from repro.core import DiagnosisRequest
from repro.runtime import ClockVector
from repro.stream import FleetSupervisor
from repro.stream.detectors import Detection
from repro.stream.incidents import IncidentManager

CHUNK_S = 1800.0
N_ENVS = 6
TARGET_CHUNKS = 8


class _StubWatched:
    """Deterministic incident pressure: env 0 fires every chunk; the rest
    stay healthy.  Advancing costs ~1 ms of wall time."""

    def __init__(self, index: int) -> None:
        self.name = f"env-{index}"
        self.index = index
        self.query_name = "q-skew"
        self.advanced_s = 0.0
        self.manager = IncidentManager(self.name, cooldown_s=0.0)
        self.env = SimpleNamespace(clock=0.0, bundle=lambda: None)
        self.info = None

    @property
    def clock(self) -> float:
        return self.env.clock

    def advance(self, chunk_s: float) -> list[Detection]:
        time.sleep(0.001)
        self.env.clock += chunk_s
        if self.index != 0:
            return []
        return [
            Detection(
                time=self.env.clock,
                detector="stub",
                target="V1/readTime",
                value=10.0,
                expected=5.0,
                magnitude=2.0,
                kind="drift",
            )
        ]

    def diagnosable(self) -> bool:
        return True

    def diagnosis_request(self) -> DiagnosisRequest:
        return DiagnosisRequest(self.env.bundle(), self.query_name)


class _SlowPipeline:
    """Every diagnosis pays a fixed wall latency — the pause under test."""

    def __init__(self, latency_s: float) -> None:
        self.latency_s = latency_s

    def submit_many(self, requests, pool=None):
        from repro.runtime import shared_pool

        pool = pool or shared_pool()

        def diagnose(_request):
            time.sleep(self.latency_s)
            return None

        return [pool.submit(diagnose, r) for r in requests]

    def diagnose_many(self, requests, max_workers=None, pool=None):
        return [f.result() for f in self.submit_many(requests, pool=pool)]


def _run(max_skew_s):
    supervisor = FleetSupervisor(
        pipeline=_SlowPipeline(latency_s=0.12),
        chunk_s=CHUNK_S,
        cooldown_s=0.0,
        max_skew_s=max_skew_s,
    )
    stubs = [_StubWatched(i) for i in range(N_ENVS)]
    for stub in stubs:
        supervisor.watched[stub.name] = stub
    observed = []

    def on_event(event):
        if event["type"] == "advanced":
            observed.append(
                (event["env"], event["advanced_s"], event["fleet_advanced_s"])
            )

    supervisor.run(TARGET_CHUNKS * CHUNK_S, on_event=on_event)
    return supervisor, observed


class TestBoundedSkew:
    def test_others_keep_advancing_while_one_member_is_paused(self):
        supervisor, observed = _run(max_skew_s=2 * CHUNK_S)
        # every member reached the target on its own clock
        clocks = supervisor.clocks
        assert isinstance(clocks, ClockVector)
        assert clocks.min_clock == clocks.max_clock == TARGET_CHUNKS * CHUNK_S
        assert clocks.skew == 0.0
        # while env-0 sat in its slow diagnoses, siblings got ahead of it
        max_lead = max(
            advanced - floor for _env, advanced, floor in observed
        )
        assert max_lead > 0.0

    def test_skew_is_bounded_by_the_configured_window(self):
        _supervisor, observed = _run(max_skew_s=2 * CHUNK_S)
        for _env, advanced, floor in observed:
            assert advanced - floor <= 2 * CHUNK_S + 1e-6

    def test_unbounded_skew_exceeds_the_window(self):
        """Control: without the gate the healthy members race to the target
        while the straggler is still paying its first diagnoses."""
        _supervisor, observed = _run(max_skew_s=None)
        max_lead = max(advanced - floor for _env, advanced, floor in observed)
        assert max_lead > 2 * CHUNK_S

    def test_max_skew_must_cover_a_chunk(self):
        with pytest.raises(ValueError, match="max_skew_s"):
            FleetSupervisor(chunk_s=1800.0, max_skew_s=600.0)

    def test_incident_history_unchanged_by_the_gate(self):
        """The gate is pure wall pacing: simulated histories are identical."""

        def history(max_skew_s):
            supervisor, _ = _run(max_skew_s)
            return [
                (i.incident_id, i.opened_at, i.resolved_at)
                for i in supervisor.incidents()
            ]

        assert history(2 * CHUNK_S) == history(None)
