"""The ISSUE acceptance bars: critical-path coverage and byte-for-byte resume.

* ``repro trace --critical-path`` must attribute >= 95% of each tick's wall
  time to named spans on a 16-environment fleet.
* A killed-and-resumed ``repro watch --state-dir`` run with observability
  enabled must reproduce the incident history byte-for-byte — traces and
  metrics are sidecar-only and invisible to the resume path.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

from repro.lab.scenarios import scenario_flapping_san_misconfiguration
from repro.obs import OBS_DIR, critical_path
from repro.obs import clock as obs_clock
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.storage import MemoryBackend, keyspaces
from repro.core import DiagnosisRequest
from repro.stream import FleetSupervisor
from repro.stream.detectors import Detection
from repro.stream.incidents import IncidentManager

CHUNK_S = 1800.0
N_ENVS = 16
TARGET_CHUNKS = 4


class _StubWatched:
    """16-env fleet member: ~2ms advance cost, env 0 fires every chunk."""

    def __init__(self, index: int) -> None:
        self.name = f"env-{index:02d}"
        self.index = index
        self.query_name = "q-obs"
        self.advanced_s = 0.0
        self.manager = IncidentManager(self.name, cooldown_s=0.0)
        self.env = SimpleNamespace(clock=0.0, bundle=lambda: None)
        self.info = None

    @property
    def clock(self) -> float:
        return self.env.clock

    def advance(self, chunk_s: float) -> list[Detection]:
        time.sleep(0.002)
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


class _FastPipeline:
    """Duck-typed pipeline: a short fixed diagnosis latency."""

    def submit_many(self, requests, pool=None):
        from repro.runtime import shared_pool

        pool = pool or shared_pool()

        def diagnose(_request):
            time.sleep(0.005)
            return None

        return [pool.submit(diagnose, r) for r in requests]

    def diagnose_many(self, requests, max_workers=None, pool=None):
        return [f.result() for f in self.submit_many(requests, pool=pool)]


class TestCriticalPathCoverage:
    def test_16_env_fleet_attributes_95_percent(self, obs_enabled):
        sink = MemoryBackend()
        obs_trace.tracer().set_sink(sink)
        supervisor = FleetSupervisor(
            pipeline=_FastPipeline(), chunk_s=CHUNK_S, cooldown_s=0.0
        )
        stubs = [_StubWatched(i) for i in range(N_ENVS)]
        for stub in stubs:
            supervisor.watched[stub.name] = stub
        supervisor.run(TARGET_CHUNKS * CHUNK_S)
        obs_trace.tracer().set_sink(None)

        spans = sorted(
            sink.scan(keyspaces.TRACES), key=lambda s: s.get("wall_start", 0.0)
        )
        report = critical_path(spans)
        assert report["roots"] >= N_ENVS * TARGET_CHUNKS
        assert report["coverage"] >= 0.95, (
            f"named spans cover only {report['coverage']:.1%} of root wall "
            f"time across {report['roots']} iterations (need >= 95%)"
        )
        # The attribution ranking names the real phases.
        assert "advance" in report["by_name"]
        assert set(report["by_name"]) <= {
            "wait", "advance", "detect", "diagnose", "correlate",
            "snapshot", "emit",
        }
        # The in-process metrics registry tracked the same run.
        counters = obs_metrics.registry().snapshot()["counters"]
        assert counters["supervisor.iterations"] >= N_ENVS * TARGET_CHUNKS
        assert counters["detectors.fires"] >= TARGET_CHUNKS


class TestResumeByteForByte:
    HOURS = 6.0
    KILL_AFTER = 3.0

    @staticmethod
    def _supervisor(state_dir=None):
        sup = FleetSupervisor(
            chunk_s=1800.0, cooldown_s=7200.0, state_dir=state_dir
        )
        sup.watch_scenario(
            scenario_flapping_san_misconfiguration(hours=TestResumeByteForByte.HOURS)
        )
        return sup

    def test_killed_resumed_obs_run_matches_obs_off_reference(
        self, tmp_path, obs_enabled
    ):
        # Reference: uninterrupted, observability fully off.
        obs_clock.disable()
        reference_sup = self._supervisor()
        reference_sup.run(self.HOURS * 3600.0)
        reference = [i.to_dict() for i in reference_sup.incidents()]
        assert any(t["report"] for t in reference), "reference must diagnose"

        # Killed and resumed, observability on: the sidecar must not
        # perturb a single byte of the incident history.
        obs_clock.enable()
        state = tmp_path / "state"
        first = self._supervisor(state)
        first.run(self.KILL_AFTER * 3600.0)
        del first  # SIGKILL: no clean shutdown, no close()

        second = self._supervisor(state)
        assert second.has_checkpoint()
        covered = second.resume()
        assert covered == self.KILL_AFTER * 3600.0
        second.run(self.HOURS * 3600.0 - covered)

        resumed = [i.to_dict() for i in second.incidents()]
        assert json.dumps(resumed, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )
        # The observability sidecar really was written — and only under
        # the obs/ subdirectory, where replay never looks.
        obs_root = state / OBS_DIR
        assert (obs_root / f"{keyspaces.TRACES}.jsonl").exists()
        assert (obs_root / f"{keyspaces.OBS_METRICS}.jsonl").exists()
