"""Parent-side proxies for environments that live in procpool workers.

:class:`RemoteWatchedEnvironment` has the member surface of
:class:`~repro.stream.supervisor.WatchedEnvironment` that the supervisor
reads — ``clock``, ``advance``, ``diagnosis_request``, ``shared_evidence``,
``detector_state``/``load_detector_state`` — so every supervisor code path
(the drive loop, checkpointing, resume, fleet correlation) runs unchanged.
The split of responsibilities:

* **Worker process** (:mod:`repro.stream.worker`): a hydrated
  ``WatchedEnvironment`` — the simulator and the per-sample streaming
  detectors, the CPU-bound 99%.  Pinned by sticky affinity
  (``affinity=<watch name>``) so state hydrates once and stays warm.
* **Parent process** (this module): the incident manager, correlator feeds,
  event log, and checkpoint snapshots — the sequential bookkeeping whose
  byte-for-byte determinism the resume guarantee rests on.  Both sides
  build their detectors through
  :func:`~repro.stream.detectors.watch_detectors`, and both environment
  classes render their fleet-table row through
  :func:`~repro.stream.incidents.status_row`.

What crosses the boundary per iteration is the compact delta from
``advance_env``: detections (rebuilt via ``Detection.from_dict`` — lossless
for history purposes), the clock, run counts, and detector state dicts
(cached parent-side so checkpoint snapshots never block on a worker).
Diagnosis runs *in the worker* against the live bundle and comes back as
``report_to_dict`` output; :class:`RemoteReport` carries it into
``FleetSupervisor._resolve_wave``, which resolves via ``report_data`` —
exactly the path fleet short-circuits already use, hence identical bytes.
The fleet drill-down also scores each member in its worker
(``evidence_env``): only the member's ``ComponentEvidence`` rows come back,
a few hundred bytes, never its stores.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import dataclass

from ..correlate.diagnosis import ComponentEvidence
from ..lab.scenarios import ScenarioInfo
from ..runtime.procpool import ProcessWorkerPool
from .detectors import Detection, watch_detectors
from .incidents import IncidentManager, status_row

__all__ = ["RemoteWatchedEnvironment", "RemoteDiagnosisRequest", "RemoteReport"]

ADVANCE_TASK = "repro.stream.worker:advance_env"
DIAGNOSE_TASK = "repro.stream.worker:diagnose_env"
EVIDENCE_TASK = "repro.stream.worker:evidence_env"
LOAD_TASK = "repro.stream.worker:load_detectors"


def detector_config(spec: dict) -> dict:
    """The :func:`~repro.stream.detectors.watch_detectors` keywords of a
    hydration spec (supervisor defaults for keys it lacks)."""
    return {
        "slo_factor": float(spec.get("slo_factor", 1.3)),
        "baseline_runs": int(spec.get("baseline_runs", 4)),
        "recovery": bool(spec.get("recovery", False)),
    }


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
        bank, run_detector = watch_detectors(query_name, **detector_config(spec))
        self._detector_state = {
            "bank": bank.state_dict(),
            "run_detector": run_detector.state_dict(),
        }

    @property
    def clock(self) -> float:
        """The worker's simulated clock as of the last advance delta."""
        return self._clock

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
        self._detector_state = out["detectors"]
        return [Detection.from_dict(d) for d in out["detections"]]

    def diagnosable(self) -> bool:
        return self._diagnosable

    def diagnosis_request(self) -> RemoteDiagnosisRequest:
        return RemoteDiagnosisRequest(self)

    def record_evaluation(self, incident_id: str, evaluation: dict | None) -> None:
        if evaluation is not None:
            self._evaluations[incident_id] = evaluation

    def shared_evidence(
        self, candidates: list[str], *, until: float | None
    ) -> list[ComponentEvidence]:
        """This member's fleet drill-down evidence, scored in its worker (which
        runs its tasks one at a time, so never against a mid-chunk state)."""
        out = self.pool.submit_task(
            EVIDENCE_TASK,
            {"spec": self.spec, "candidates": candidates, "until": until},
            affinity=self.name,
        ).result()
        return [ComponentEvidence(**row) for row in out["evidence"]]

    def detector_state(self) -> dict:
        """The cached detector state of the last advance delta, so a
        checkpoint snapshot never waits on the worker."""
        return self._detector_state

    def load_detector_state(self, state: dict) -> None:
        """Restore checkpointed detector state here and in the worker."""
        self._detector_state = {
            "bank": state["bank"],
            "run_detector": state["run_detector"],
        }
        self.pool.submit_task(
            LOAD_TASK, {"spec": self.spec, **self._detector_state}, affinity=self.name
        ).result()

    # -- reporting -------------------------------------------------------
    def status(self) -> dict:
        """One fleet-table row, graded by the worker.

        ``verified``/``identified`` come from the worker-side grading cached
        when the incident resolved; incidents resolved without a worker
        diagnosis (fleet short-circuits, resumed history) report ``None`` —
        the same answer thread mode gives for a report-less incident.
        """
        incidents = self.manager.incidents
        evaluation: dict = {}
        if incidents and self.info is not None:
            evaluation = self._evaluations.get(incidents[-1].incident_id, {})
        return status_row(
            self, self._runs, evaluation.get("verified"), evaluation.get("identified")
        )
