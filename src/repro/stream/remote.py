"""Parent-side proxies for environments that live in procpool workers.

:class:`RemoteWatchedEnvironment` duck-types
:class:`~repro.stream.supervisor.WatchedEnvironment` so every supervisor code
path — the drive loop, checkpointing, resume, fleet correlation — runs
unchanged.  The split of responsibilities:

* **Worker process** (:mod:`repro.stream.worker`): the simulator and the
  per-sample streaming detectors — the CPU-bound 99%.  Pinned by sticky
  affinity (``affinity=<watch name>``) so state hydrates once and stays warm.
* **Parent process** (this module): the incident manager, correlator feeds,
  event log, and checkpoint snapshots — the sequential bookkeeping whose
  byte-for-byte determinism the resume guarantee rests on.

What crosses the boundary per iteration is the compact delta from
``advance_env``: detections (rebuilt via ``Detection.from_dict`` — lossless
for history purposes), the clock, run counts, and detector state dicts
(cached parent-side so checkpoint snapshots never block on a worker).
Diagnosis runs *in the worker* against the live bundle and comes back as
``report_to_dict`` output; :class:`RemoteReport` carries it into
``FleetSupervisor._resolve_wave``, which resolves via ``report_data`` —
exactly the path fleet short-circuits already use, hence identical bytes.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass

from ..lab.environment import DiagnosisBundle
from ..lab.scenarios import ScenarioInfo
from ..runtime.procpool import ProcessWorkerPool
from .detectors import (
    Detection,
    DetectorBank,
    ResponseTimeSloDetector,
    default_detector_factory,
)
from .incidents import IncidentManager

__all__ = ["RemoteWatchedEnvironment", "RemoteDiagnosisRequest", "RemoteReport"]

ADVANCE_TASK = "repro.stream.worker:advance_env"
DIAGNOSE_TASK = "repro.stream.worker:diagnose_env"
BUNDLE_TASK = "repro.stream.worker:bundle_env"
LOAD_TASK = "repro.stream.worker:load_detectors"


@dataclass
class RemoteReport:
    """A diagnosis produced in a worker: serialized report + grading."""

    report_data: dict
    evaluation: dict | None = None


class RemoteDiagnosisRequest:
    """A due diagnosis to run in the environment's own worker.

    Stands in for :class:`repro.core.pipeline.DiagnosisRequest` in the
    supervisor's wave plumbing; ``submit`` routes to the sticky worker (no
    bundle snapshot crosses the boundary — the worker diagnoses its live
    bundle) and resolves to a :class:`RemoteReport`.
    """

    def __init__(self, watched: "RemoteWatchedEnvironment") -> None:
        self.watched = watched

    def submit(self) -> "Future[RemoteReport]":
        inner = self.watched.pool.submit_task(
            DIAGNOSE_TASK, {"spec": self.watched.spec}, affinity=self.watched.name
        )
        outer: "Future[RemoteReport]" = Future()
        outer.set_running_or_notify_cancel()

        def _done(future: Future) -> None:
            try:
                out = future.result()
            except BaseException as exc:  # noqa: BLE001 — forwarded verbatim
                outer.set_exception(exc)
            else:
                outer.set_result(
                    RemoteReport(
                        report_data=out["report"], evaluation=out.get("evaluation")
                    )
                )

        inner.add_done_callback(_done)
        return outer


class _RemoteDetectorState:
    """``state_dict``/``load_state`` facade over detector state in a worker.

    Reads serve the parent-side cache (refreshed by every ``advance_env``
    delta, so checkpoint snapshots are always iteration-boundary consistent);
    ``load_state`` updates the cache *and* pushes both detector states to the
    worker — the resume path.
    """

    def __init__(self, owner: "RemoteWatchedEnvironment", initial: dict) -> None:
        self._owner = owner
        self._state = initial

    def state_dict(self) -> dict:
        return self._state

    def load_state(self, state: dict) -> None:
        self._state = state
        self._owner._push_detector_state()


class _RemoteEnv:
    """Just enough ``Environment`` surface for the supervisor.

    ``clock`` serves the cached worker clock; ``bundle()`` fetches the full
    bundle payload from the worker (fleet drill-down evidence).  There is
    deliberately no ``advance_lock``: the worker serialises all tasks for
    one environment on its single task queue, so a bundle export can never
    observe a torn mid-chunk simulation.
    """

    def __init__(self, owner: "RemoteWatchedEnvironment") -> None:
        self._owner = owner

    @property
    def clock(self) -> float:
        return self._owner._clock

    def bundle(self) -> DiagnosisBundle:
        return self._owner._fetch_bundle()


class RemoteWatchedEnvironment:
    """One supervised environment whose simulator lives in a procpool worker."""

    is_remote = True

    def __init__(
        self,
        name: str,
        spec: dict,
        query_name: str,
        manager: IncidentManager,
        pool: ProcessWorkerPool,
        info: ScenarioInfo | None = None,
    ) -> None:
        self.name = name
        self.query_name = query_name
        self.manager = manager
        self.info = info
        self.pool = pool
        self.spec = dict(spec, name=name, query_name=query_name)
        self.advanced_s = 0.0
        self.env = _RemoteEnv(self)
        self._clock = 0.0
        self._runs = 0
        self._diagnosable = False
        #: incident_id → {"verified", "identified"}: worker-side grading of
        #: the diagnosis each incident was resolved with (report_data has no
        #: live report object to grade parent-side).
        self._evaluations: dict[str, dict] = {}
        # Fresh local detectors supply the pre-first-iteration state dicts —
        # the checkpoint written before an environment's first advance must
        # match what thread mode snapshots for a just-built fleet.
        recovery = bool(self.spec.get("recovery", False))
        self.bank = _RemoteDetectorState(
            self,
            DetectorBank(
                factory=default_detector_factory(emit_recovery=recovery)
            ).state_dict(),
        )
        self.run_detector = _RemoteDetectorState(
            self,
            ResponseTimeSloDetector(
                factor=float(self.spec.get("slo_factor", 1.3)),
                baseline_runs=int(self.spec.get("baseline_runs", 4)),
                query_name=query_name,
                emit_recovery=recovery,
            ).state_dict(),
        )

    # -- chunk lifecycle -------------------------------------------------
    def advance(self, chunk_s: float) -> list[Detection]:
        """Advance in the worker; cache the delta; return the detections."""
        out = self.pool.submit_task(
            ADVANCE_TASK,
            {"spec": self.spec, "chunk_s": chunk_s},
            affinity=self.name,
        ).result()
        self._clock = out["clock"]
        self._runs = out["runs"]
        self._diagnosable = out["diagnosable"]
        self.bank._state = out["bank"]
        self.run_detector._state = out["run_detector"]
        return [Detection.from_dict(d) for d in out["detections"]]

    def diagnosable(self) -> bool:
        return self._diagnosable

    def diagnosis_request(self) -> RemoteDiagnosisRequest:
        return RemoteDiagnosisRequest(self)

    def record_evaluation(self, incident_id: str, evaluation: dict | None) -> None:
        if evaluation is not None:
            self._evaluations[incident_id] = evaluation

    # -- worker round-trips ----------------------------------------------
    def _push_detector_state(self) -> None:
        self.pool.submit_task(
            LOAD_TASK,
            {
                "spec": self.spec,
                "bank": self.bank._state,
                "run_detector": self.run_detector._state,
            },
            affinity=self.name,
        ).result()

    def _fetch_bundle(self) -> DiagnosisBundle:
        payload = self.pool.submit_task(
            BUNDLE_TASK, {"spec": self.spec}, affinity=self.name
        ).result()
        return DiagnosisBundle.from_payload(payload)

    # -- reporting -------------------------------------------------------
    def status(self) -> dict:
        """One fleet-table row; mirrors ``WatchedEnvironment.status``.

        ``verified``/``identified`` come from the worker-side grading cached
        when the incident resolved; incidents resolved without a worker
        diagnosis (fleet short-circuits, resumed history) report ``None`` —
        the same answer thread mode gives for a report-less incident.
        """
        incidents = self.manager.incidents
        last = incidents[-1] if incidents else None
        top = last.top_cause_id if last is not None else None
        ground_truth = self.info.ground_truth if self.info is not None else ()
        verified = identified = None
        if last is not None and self.info is not None:
            evaluation = self._evaluations.get(last.incident_id)
            if evaluation is not None:
                verified = evaluation.get("verified")
                identified = evaluation.get("identified")
        return {
            "env": self.name,
            "query": self.query_name,
            "clock": self._clock,
            "runs": self._runs,
            "detections": sum(len(i.detections) for i in incidents)
            + self.manager.suppressed,
            "incidents": len(incidents),
            "open": len(self.manager.open_incidents())
            + len(self.manager.diagnosing_incidents()),
            "suppressed": self.manager.suppressed,
            "state": last.state.value if last is not None else "healthy",
            "severity": last.severity.value if last is not None else "-",
            "top_cause": top,
            "ground_truth": ground_truth,
            "verified": verified,
            "identified": identified,
        }
