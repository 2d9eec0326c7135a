"""Worker-process side of the process-backed fleet (procpool tasks).

Every function here is a procpool *task*: resolved by dotted name inside the
worker (``"repro.stream.worker:advance_env"``), taking one JSON payload and
returning one JSON document.  Nothing else crosses the process boundary — no
pickled simulators, no live detector objects.

The contract with :mod:`repro.stream.remote` (the parent-side proxies):

* Every payload carries the environment's **hydration spec** — the scenario
  or fleet name in the :mod:`repro.fleets` registries plus build parameters
  (``hours``, ``seed``, fleet member) and detector configuration.  The
  worker hydrates the same :class:`~repro.stream.supervisor.WatchedEnvironment`
  thread mode runs.  Environments are deterministic, so any worker can
  rebuild one from its spec; sticky affinity means in practice each is built
  exactly once, in the one worker that owns it, and then advanced in place.
* ``advance_env`` advances the cached environment one chunk and returns the
  compact delta the supervisor needs: drained detections (``to_dict`` form),
  the clock, the run count, diagnosability, and the detector state dicts the
  checkpoint snapshots.
* ``diagnose_env`` runs the full diagnosis pipeline *in the worker* against
  the live bundle and returns ``report_to_dict`` output — the same dict the
  thread-mode report serialises to, which is what keeps incident histories
  byte-for-byte identical across backends.
* ``evidence_env`` scores the fleet drill-down's candidate shared
  components against the live bundle and returns the member's
  ``ComponentEvidence`` rows — the bundle itself never leaves the worker;
  ``load_detectors`` restores checkpointed detector state after a resume
  fast-forward.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

from ..fleets import FLEET_SCENARIOS, SCENARIOS
from ..lab.scenarios import Scenario
from ..obs import metrics as obs_metrics
from ..obs import worker as obs_worker
from .detectors import watch_detectors
from .incidents import IncidentManager
from .remote import detector_config
from .supervisor import WatchedEnvironment

__all__ = [
    "advance_env",
    "diagnose_env",
    "evidence_env",
    "load_detectors",
    "reset_worker_state",
]

#: watch name → hydrated environment, per worker process.  Sticky affinity
#: guarantees a given name only ever lands in one worker, so this cache is
#: the "hydrated once, advanced in place" half of the handoff design.
_ENVS: dict[str, WatchedEnvironment] = {}

#: (fleet name, hours, seed) → built SharedFabric: members of one fabric
#: routed to the same worker share the single deterministic build.
_FABRICS: dict[tuple, Any] = {}

#: One pipeline per worker process (module registry warm across tasks).
_PIPELINE = None


def _scenario_for(spec: dict) -> Scenario:
    """Rebuild the named scenario from the fleet registries.

    The spec uses the same identity keys the checkpoint meta records
    (scenario/fleet name, hours, seed), so a spec that resumes cleanly in
    thread mode hydrates the identical simulation here.
    """
    kwargs: dict[str, Any] = {"hours": float(spec["hours"])}
    if spec.get("seed") is not None:
        kwargs["seed"] = int(spec["seed"])
    fleet = spec.get("fleet")
    if fleet:
        key = (fleet, kwargs["hours"], kwargs.get("seed"))
        fabric = _FABRICS.get(key)
        if fabric is None:
            fabric = FLEET_SCENARIOS[fleet](**kwargs)
            _FABRICS[key] = fabric
        return fabric.members[spec["env"]]
    return SCENARIOS[spec["scenario"]](**kwargs)


def _hydrated(spec: dict) -> WatchedEnvironment:
    name = spec["name"]
    watched = _ENVS.get(name)
    if watched is None:
        # Buffered worker span: hydration is the one expensive cold-start
        # step, worth seeing on the parent's merged timeline.
        with obs_worker.worker_span("worker.hydrate", env=name):
            scenario = _scenario_for(spec)
            query_name = spec.get("query_name") or scenario.query_name
            bank, run_detector = watch_detectors(query_name, **detector_config(spec))
            # The environment thread mode runs, so detections fire in the
            # identical order.  Its incident manager stays unused: incidents
            # (and the correlator, checkpoints, event log) live in the parent.
            watched = WatchedEnvironment(
                name=name,
                env=scenario.build(),
                query_name=query_name,
                bank=bank,
                run_detector=run_detector,
                manager=IncidentManager(name),
                info=scenario.info,
            )
        obs_metrics.inc("env.hydrations")
        _ENVS[name] = watched
    return watched


def _pipeline():
    global _PIPELINE
    if _PIPELINE is None:
        from ..core.pipeline import default_pipeline

        _PIPELINE = default_pipeline()
    return _PIPELINE


# -- tasks ------------------------------------------------------------------


def advance_env(payload: dict) -> dict:
    """Advance one chunk; return the compact supervision delta."""
    watched = _hydrated(payload["spec"])
    with obs_worker.worker_span(
        "worker.advance",
        env=payload["spec"]["name"],
        sim_t=watched.clock,
        chunk_s=float(payload["chunk_s"]),
    ), obs_metrics.timed("env.advance_s"):
        detections = watched.advance(float(payload["chunk_s"]))
    obs_metrics.inc("env.chunks")
    if detections:
        obs_metrics.inc("env.detections", len(detections))
    return {
        "detections": [d.to_dict() for d in detections],
        "clock": watched.clock,
        "runs": len(watched.env.stores.runs.runs(watched.query_name)),
        "diagnosable": watched.diagnosable(),
        "detectors": watched.detector_state(),
    }


def diagnose_env(payload: dict) -> dict:
    """Run the diagnosis pipeline against the live worker-side bundle.

    Returns the ``report_to_dict`` form (what ``Incident.to_dict`` emits for
    a live report), plus the scenario-ground-truth grading when available —
    :func:`repro.core.evaluation.evaluate_report` only reads the report and
    the scenario info, so grading here equals grading in the parent.
    """
    from ..core.serialize import report_to_dict

    watched = _hydrated(payload["spec"])
    with obs_worker.worker_span(
        "worker.diagnose", env=payload["spec"]["name"], sim_t=watched.clock
    ), obs_metrics.timed("env.diagnose_s"):
        report = _pipeline().diagnose(watched.env.bundle(), watched.query_name)
    obs_metrics.inc("env.diagnoses")
    out: dict = {"report": report_to_dict(report)}
    if watched.info is not None and watched.info.ground_truth:
        verified, identified = watched.grade(report)
        out["evaluation"] = {"verified": verified, "identified": identified}
    return out


def evidence_env(payload: dict) -> dict:
    """Score fleet drill-down candidates against the worker-side bundle."""
    watched = _hydrated(payload["spec"])
    with obs_worker.worker_span(
        "worker.evidence", env=payload["spec"]["name"], sim_t=watched.clock
    ), obs_metrics.timed("env.evidence_s"):
        evidence = watched.shared_evidence(payload["candidates"], until=payload["until"])
    return {"evidence": [asdict(row) for row in evidence]}


def load_detectors(payload: dict) -> dict:
    """Restore checkpointed detector state after a resume fast-forward."""
    watched = _hydrated(payload["spec"])
    watched.load_detector_state(payload)
    return {"clock": watched.clock}


def reset_worker_state(payload: dict) -> dict:
    """Drop every cached environment/fabric (tests reuse worker processes)."""
    count = len(_ENVS)
    _ENVS.clear()
    _FABRICS.clear()
    return {"cleared": count}
