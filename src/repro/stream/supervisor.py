"""Fleet supervisor: barrier-free supervision of many environments.

This is the closed loop the offline workflow lacks.  A
:class:`FleetSupervisor` owns a set of watched environments and advances
each of them **on its own clock** over the shared execution substrate
(:mod:`repro.runtime`): one cooperative task per environment interleaves on
an asyncio scheduler, while simulation chunks and diagnosis pipelines run on
the shared worker pool.  Per environment, each iteration:

1. **advance** — the environment simulates one chunk on a pool thread; the
   collector's streaming tap feeds every raw metric append and finished
   query run to the environment's detectors as it happens (no polling);
2. **detect** — detections are folded into incidents with dedup + cooldown
   (:mod:`repro.stream.incidents`); the response-time SLO detector has
   already auto-marked runs, replacing the administrator's marking step;
3. **diagnose** — open incidents whose environment has a diagnosable query
   get a ``DiagnosisBundle`` snapshot and a pipeline run *submitted* to the
   runtime (``DiagnosisPipeline.submit_many``).  Only the affected
   environment waits for its report; the rest of the fleet keeps advancing —
   a slow diagnosis no longer barriers anyone else's next chunk.

Checkpoint writes are off the hot loop: environment tasks stash a snapshot
at each iteration boundary and set a dirty flag; a batched flusher task
writes the (per-environment clock-vector) checkpoint at a wall-clock cadence
and once more at quiesce.  Determinism is preserved per environment — the
simulation, detection, and diagnosis of one environment form a single
sequential program — so a killed-and-resumed run still reproduces the
uninterrupted incident history byte-for-byte, and the history does not
depend on how the runtime interleaves the members: the test suite replays
fleets on a worker pool that delays every task by a seeded random amount
and requires the same history from every seed.

No human is in the loop: faults open incidents, incidents carry ranked root
causes, and ``repro watch`` renders the fleet table live from the runtime's
event stream.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..core.evaluation import evaluate_report
from ..core.pipeline import DiagnosisPipeline, DiagnosisRequest, default_pipeline
from ..correlate.diagnosis import ComponentEvidence, rank_components_for_member
from ..lab.environment import Environment
from ..lab.scenarios import Scenario, ScenarioBundle, ScenarioInfo
from ..obs import OBS_DIR, span
from ..obs import clock as obs_clock
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..runtime import ClockVector, Scheduler, WorkerPool, shared_pool
from ..storage.backend import atomic_write_json
from ..storage.jsonl import JsonlBackend
from .detectors import (
    Detection,
    DetectorBank,
    ResponseTimeSloDetector,
    watch_detectors,
)
from .eventlog import FleetEventLog
from .incidents import Incident, IncidentManager, IncidentStore, status_row
from .remote import RemoteDiagnosisRequest, RemoteReport, RemoteWatchedEnvironment

__all__ = ["WatchedEnvironment", "FleetSupervisor", "FleetEvent"]

#: File name of the atomic resume checkpoint inside a state dir.
CHECKPOINT_FILE = "checkpoint.json"

#: A fleet event: plain dict with at least a ``type`` key; the stream the
#: CLI's live table renders from.  Types: ``advanced``, ``incident_opened``,
#: ``diagnosis_started``, ``incident_resolved``, ``env_done``, ``fleet_done``,
#: ``checkpoint``.
FleetEvent = dict


@dataclass
class WatchedEnvironment:
    """One environment under supervision: detectors + incident bookkeeping."""

    name: str
    env: Environment
    query_name: str
    bank: DetectorBank
    run_detector: ResponseTimeSloDetector
    manager: IncidentManager
    info: ScenarioInfo | None = None
    #: Simulated seconds this environment has covered under supervision.
    #: With per-environment clocks this is *this member's* progress, not the
    #: fleet's — the supervisor's clock vector aggregates across members.
    advanced_s: float = 0.0
    #: Detections accumulated by the taps during the current chunk; drained
    #: by the supervisor after the advance phase (taps run on the single
    #: thread advancing this environment, so no further locking is needed).
    _pending: list[Detection] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        self.env.collector.add_metric_tap(self._on_metric)
        self.env.collector.add_run_tap(self._on_run)

    @property
    def clock(self) -> float:
        """The environment's simulated clock."""
        return self.env.clock

    # -- tap callbacks ---------------------------------------------------
    def _on_metric(self, time: float, component_id: str, metric: str, value: float) -> None:
        detection = self.bank.observe(time, component_id, metric, value)
        if detection is not None:
            self._pending.append(detection)

    def _on_run(self, run) -> None:
        detection = self.run_detector.observe_run(run)
        if detection is not None:
            self._pending.append(detection)

    # -- chunk lifecycle -------------------------------------------------
    def advance(self, chunk_s: float) -> list[Detection]:
        """Advance the simulation one chunk; drain the tap detections."""
        self.env.advance(chunk_s)
        drained, self._pending = self._pending, []
        return drained

    def diagnosable(self) -> bool:
        """True once the watched query has runs labelled on both sides."""
        runs = self.env.stores.runs
        return bool(
            runs.satisfactory_runs(self.query_name)
            and runs.unsatisfactory_runs(self.query_name)
        )

    def diagnosis_request(self) -> DiagnosisRequest:
        """A submittable diagnosis for this environment's current bundle.

        Remote (process-backed) environments override this to route the
        pipeline run into their sticky worker instead of snapshotting a
        bundle here.
        """
        return DiagnosisRequest(self.env.bundle(), self.query_name)

    def shared_evidence(
        self, candidates: list[str], *, until: float | None
    ) -> list[ComponentEvidence]:
        """This member's fleet drill-down evidence, read under the advance
        lock: the drill-down's pool thread may race this member's chunk."""
        with self.env.advance_lock:
            bundle = self.env.bundle()
            return rank_components_for_member(
                bundle, self.query_name, candidates, env=self.name, until=until
            )

    # -- detector state ----------------------------------------------------
    def detector_state(self) -> dict:
        """The detectors' checkpointed state: ``{"bank", "run_detector"}``."""
        return {
            "bank": self.bank.state_dict(),
            "run_detector": self.run_detector.state_dict(),
        }

    def load_detector_state(self, state: dict) -> None:
        """Restore :meth:`detector_state` output (the resume path)."""
        self.bank.load_state(state["bank"])
        self.run_detector.load_state(state["run_detector"])

    # -- reporting -------------------------------------------------------
    def grade(self, report) -> tuple[bool, bool]:
        """Grade a report against the scenario ground truth (``info`` set).

        Same rules as the offline sweep
        (:func:`repro.core.evaluation.evaluate_report`): ``verified`` means
        the top-ranked cause is an injected one; ``identified`` is the
        sweep's stricter verdict (every injected cause also at high
        confidence).
        """
        evaluation = evaluate_report(
            ScenarioBundle(
                info=self.info, bundle=self.env.bundle(), query_name=self.query_name
            ),
            report,
        )
        return evaluation.top_cause in evaluation.ground_truth, evaluation.identified

    def status(self) -> dict:
        """One fleet-table row; the latest attached report is graded."""
        incidents = self.manager.incidents
        last = incidents[-1] if incidents else None
        verified = identified = None
        if last is not None and last.report is not None and self.info is not None:
            verified, identified = self.grade(last.report)
        runs = len(self.env.stores.runs.runs(self.query_name))
        return status_row(self, runs, verified, identified)


class FleetSupervisor:
    """Advance a fleet of environments and close the detect→diagnose loop.

    :meth:`run` (or its coroutine form :meth:`run_async`) runs one
    cooperative task per environment on the
    :class:`~repro.runtime.Scheduler`: each member advances on its own
    clock, diagnosis waves overlap other members' advances, and checkpoints
    are batched off the hot loop.  ``repro watch`` and ``repro serve`` drive
    it, and its ``on_event`` callback sees each incident transition as it
    happens.
    """

    def __init__(
        self,
        pipeline: DiagnosisPipeline | None = None,
        *,
        chunk_s: float = 1800.0,
        max_workers: int | None = None,
        cooldown_s: float = 7200.0,
        slo_factor: float = 1.3,
        baseline_runs: int = 4,
        state_dir: str | os.PathLike | None = None,
        checkpoint_meta: dict | None = None,
        max_inflight_diagnoses: int | None = None,
        checkpoint_interval_s: float = 2.0,
        pool: WorkerPool | None = None,
        correlator=None,
        max_skew_s: float | None = None,
        recovery: bool = False,
        incident_store: "IncidentStore | None" = None,
        event_log: "FleetEventLog | None" = None,
    ) -> None:
        if chunk_s <= 0:
            raise ValueError("chunk_s must be positive")
        if max_inflight_diagnoses is not None and max_inflight_diagnoses < 1:
            raise ValueError("max_inflight_diagnoses must be at least 1")
        if checkpoint_interval_s <= 0:
            raise ValueError("checkpoint_interval_s must be positive")
        if max_skew_s is not None and max_skew_s < chunk_s:
            raise ValueError(
                "max_skew_s must be at least chunk_s (a member cannot advance "
                "by less than one chunk)"
            )
        self.pipeline = pipeline or default_pipeline()
        self.chunk_s = chunk_s
        self.max_workers = max_workers
        self.cooldown_s = cooldown_s
        self.slo_factor = slo_factor
        self.baseline_runs = baseline_runs
        #: Cap on diagnosis pipelines in flight at once across the fleet
        #: (None: bounded only by the worker pool).  ``repro watch
        #: --max-inflight-diagnoses`` sets this.
        self.max_inflight_diagnoses = max_inflight_diagnoses
        #: Wall-clock cadence of the batched checkpoint flusher.
        self.checkpoint_interval_s = checkpoint_interval_s
        #: Worker pool for advances and diagnoses (default: process-shared).
        self.pool = pool
        self.watched: dict[str, WatchedEnvironment] = {}
        self.ticks = 0
        self.state_dir = Path(state_dir) if state_dir is not None else None
        #: Caller-supplied run parameters (scenario names, hours, seed...)
        #: stamped into every checkpoint; resume() refuses a checkpoint whose
        #: meta differs, since the rebuilt fleet would not be the same
        #: deterministic simulation the checkpoint froze.
        self.checkpoint_meta = checkpoint_meta
        #: Recovery-aware incident closure: detectors also emit
        #: ``kind="recovery"`` when a fired excursion returns to baseline,
        #: the manager resolves the open incident with
        #: ``resolution="recovered"``, and a regression inside the cooldown
        #: window re-opens with a predecessor link and a severity bump
        #: instead of being suppressed.  Off by default (the historical
        #: diagnose-to-resolve lifecycle).
        self.recovery = recovery
        #: Durable incident journal (None without a state dir); managers of
        #: watched environments journal their transitions through it.  An
        #: injected store (``repro serve``: a tenant-prefixed view over one
        #: shared backend) takes precedence over opening ``state_dir``.
        self.incident_store: IncidentStore | None = (
            incident_store
            if incident_store is not None
            else IncidentStore.open(self.state_dir)
            if self.state_dir is not None
            else None
        )
        #: Durable fleet event log (None without a state dir): every event of
        #: the ``run(on_event=...)`` stream is journalled so dashboards and
        #: the out-of-process correlator can tail the state dir.  Delivery
        #: across a kill/resume is at-least-once (see FleetEventLog).  Like
        #: the incident store, an injected log wins over the state-dir one.
        self.event_log: FleetEventLog | None = (
            event_log
            if event_log is not None
            else FleetEventLog.open(self.state_dir)
            if self.state_dir is not None
            else None
        )
        #: Opt-in cross-environment correlator (a
        #: :class:`repro.correlate.CorrelationEngine`).  When set, incident
        #: opens/resolves and per-member progress are streamed into it; a
        #: member incident grouped into a fleet incident is resolved with the
        #: fleet-level drill-down report instead of paying its own pipeline
        #: run, and incidents of attached environments are *held* (stay OPEN)
        #: while siblings may still co-fire.  Trade-off: with a correlator,
        #: the wall-clock moment an attached member notices a fleet decision
        #: depends on fleet progress, so per-member diagnosis timing is no
        #: longer independent of the rest of the fleet, and neither is the
        #: history: the 8-member shared-pool fleet at 24 h with two workers
        #: gives a different member and fleet-incident history under each
        #: seeded schedule perturbation.
        self.correlator = correlator
        #: Bound on fleet clock skew (simulated seconds) in the barrier-free
        #: loop: a member whose next chunk would put it more than
        #: ``max_skew_s`` ahead of the slowest member waits for the fleet
        #: floor to catch up.  None (default): unbounded, PR-4 behaviour.
        #: Bounding skew caps the correlator's group-emit latency (its
        #: watermark is the fleet floor) at the cost of letting a straggler
        #: eventually gate the whole fleet.
        self.max_skew_s = max_skew_s
        #: Latest per-environment snapshot, refreshed at iteration
        #: boundaries; what the batched flusher persists.
        self._env_snapshots: dict[str, dict] = {}
        self._checkpoint_dirty = False
        #: Graceful-stop flag: settable from any thread; environment tasks
        #: finish their current iteration, a final checkpoint is written,
        #: and :meth:`run` returns early (the run stays resumable).
        self._stop_requested = threading.Event()
        #: Serialises checkpoint writes: a flusher write cancelled mid-await
        #: may still be running on its pool thread when the quiesce write
        #: starts, and both share one tmp-file name — unserialised, the
        #: loser's atomic rename finds its tmp already consumed.
        self._checkpoint_write_lock = threading.Lock()
        #: Observability sidecar backend (``<state_dir>/obs/``): span
        #: journal + periodic metrics snapshots.  Strictly write-only from
        #: the run's perspective — the checkpoint/resume path never opens
        #: it, so the byte-for-byte incident-history guarantee cannot see
        #: it.  None without a state dir or with observability off.
        self.obs_backend: JsonlBackend | None = (
            JsonlBackend(self.state_dir / OBS_DIR)
            if self.state_dir is not None and obs_clock.is_enabled()
            else None
        )

    # -- sizing ----------------------------------------------------------
    def _workers(self, fleet_size: int) -> int:
        """Fan-out width for a fleet of ``fleet_size`` — never less than 1.

        (The pre-runtime code computed ``max_workers or min(8, len(fleet))``,
        which is 0 for an empty fleet and made ``ThreadPoolExecutor`` raise.)
        """
        return max(1, self.max_workers or min(8, fleet_size))

    def _pool(self) -> WorkerPool:
        return self.pool if self.pool is not None else shared_pool()

    def pool_stats(self) -> dict:
        """Live counters of the worker pool this fleet runs on.

        Whatever :meth:`WorkerPool.stats` reports for the pool in use —
        the supervisor's own or the process-wide shared one.  Rendering
        only; never part of :meth:`to_dict` (checkpoint equivalence
        compares that byte for byte).
        """
        return self._pool().stats()

    # -- registration ----------------------------------------------------
    def watch(
        self,
        name: str,
        env: Environment,
        query_name: str,
        *,
        detector_factory: Callable | None = None,
        info: ScenarioInfo | None = None,
    ) -> WatchedEnvironment:
        """Put one environment under supervision."""
        if name in self.watched:
            raise ValueError(f"environment {name!r} already watched")
        bank, run_detector = watch_detectors(
            query_name,
            slo_factor=self.slo_factor,
            baseline_runs=self.baseline_runs,
            recovery=self.recovery,
            factory=detector_factory,
        )
        watched = WatchedEnvironment(
            name=name,
            env=env,
            query_name=query_name,
            bank=bank,
            run_detector=run_detector,
            manager=IncidentManager(
                name, cooldown_s=self.cooldown_s, store=self.incident_store
            ),
            info=info,
        )
        self.watched[name] = watched
        return watched

    def watch_scenario(
        self,
        scenario: Scenario,
        name: str | None = None,
        *,
        hydration: dict | None = None,
    ) -> WatchedEnvironment:
        """Build a scenario's environment and watch it (ground truth kept
        aside for verification only — detectors never see it).

        ``hydration`` is the scenario's registry identity (name, hours, seed
        — see :mod:`repro.stream.worker`).  When provided *and* this
        supervisor runs on a process-backed pool, the environment is built
        and simulated inside its sticky worker instead of here; otherwise it
        is ignored and the environment is built in-process as always.
        """
        if hydration is not None and self._pool().backend == "process":
            return self.watch_remote(
                name or scenario.info.name,
                hydration,
                scenario.query_name,
                info=scenario.info,
            )
        return self.watch(
            name or scenario.info.name,
            scenario.build(),
            scenario.query_name,
            info=scenario.info,
        )

    def watch_remote(
        self,
        name: str,
        hydration: dict,
        query_name: str,
        *,
        info: ScenarioInfo | None = None,
    ) -> "RemoteWatchedEnvironment":
        """Watch an environment that lives in a procpool worker process.

        The simulator and streaming detectors hydrate (from ``hydration``,
        the scenario registry identity) and advance inside the worker pinned
        by ``affinity=name``; the incident manager — and with it the entire
        checkpoint/resume and correlation machinery — stays in this process.
        """
        pool = self._pool()
        if pool.backend != "process":
            raise ValueError("watch_remote requires a process-backed worker pool")
        if name in self.watched:
            raise ValueError(f"environment {name!r} already watched")
        spec = dict(hydration)
        spec.update(
            slo_factor=self.slo_factor,
            baseline_runs=self.baseline_runs,
            recovery=self.recovery,
        )
        watched = RemoteWatchedEnvironment(
            name=name,
            spec=spec,
            query_name=query_name,
            manager=IncidentManager(
                name, cooldown_s=self.cooldown_s, store=self.incident_store
            ),
            pool=pool,
            info=info,
        )
        self.watched[name] = watched
        return watched

    # -- fleet progress --------------------------------------------------
    @property
    def clocks(self) -> ClockVector:
        """Per-environment simulated progress (the checkpoint clock vector)."""
        return ClockVector({name: w.advanced_s for name, w in self.watched.items()})

    @property
    def advanced_s(self) -> float:
        """Simulated seconds the *whole* fleet is guaranteed to have covered
        (the minimum over per-environment clocks; computed directly — this
        is read on the coordination hot path)."""
        return min(
            (w.advanced_s for w in self.watched.values()), default=0.0
        )

    # -- incident transitions --------------------------------------------
    def _publish(
        self,
        on_event,
        watched: WatchedEnvironment,
        incident: Incident,
        transition: str,
        **extra,
    ) -> None:
        """Publish one incident transition: feed the correlator, then emit.

        ``transition`` is ``"opened"`` or ``"resolved"`` (``extra`` flags a
        resolve: ``resolution="recovered"``, ``fleet=True``).  The event is
        built once and the correlator and the event stream get the same
        dict.  The engine only buffers opens and resolves — ready groups
        come back from ``advanced`` feeds and
        :meth:`~repro.correlate.CorrelationEngine.finalize` — so nothing
        here drills down.

        A resolve's ``clock`` is the environment clock, a chunk boundary;
        a fleet short-circuit resolve carries its ``resolved_at`` instead,
        because the member clock at which it noticed the fleet decision
        depends on how the runtime interleaved the fleet.
        """
        event = {
            "type": f"incident_{transition}",
            "env": watched.name,
            "incident_id": incident.incident_id,
            "severity": incident.severity.value,
        }
        if transition == "opened":
            event["opened_at"] = incident.opened_at
            if incident.escalated_from:
                event["escalated_from"] = incident.escalated_from
        else:
            event.update(
                top_cause=incident.top_cause_id,
                **extra,
                resolved_at=incident.resolved_at,
                clock=(
                    incident.resolved_at if extra.get("fleet") else watched.clock
                ),
            )
        if self.correlator is not None:
            self.correlator.observe(event)
        self._emit(on_event, event)

    def _fold_detections(
        self, watched: WatchedEnvironment, detections: list[Detection], on_event
    ) -> list[Incident]:
        """Feed one chunk's detections to the manager; publish what changed.

        Publishes every incident this chunk opened, then every incident the
        manager recovery-resolved because its series returned to baseline,
        and returns the latter (always empty unless the supervisor was built
        with ``recovery=True``).
        """
        opened: list[Incident] = []
        obs_metrics.inc("detectors.fires", len(detections))
        for detection in detections:
            incident = watched.manager.observe(detection)
            if incident is not None:
                opened.append(incident)
        recovered = watched.manager.drain_recoveries()
        if opened:
            obs_metrics.inc("incidents.opened", len(opened))
        if recovered:
            obs_metrics.inc("incidents.recovered", len(recovered))
        for incident in opened:
            self._publish(on_event, watched, incident, "opened")
        for incident in recovered:
            self._publish(
                on_event, watched, incident, "resolved", resolution="recovered"
            )
        return recovered

    # -- cross-environment correlation -----------------------------------
    def _on_fleet_incident(self, group) -> None:
        """Drill down across the members and attach the fleet report (looked
        up per call, so a wrapper on the module sees every drill-down)."""
        from ..correlate.diagnosis import diagnose_fleet_incident

        diagnosis = diagnose_fleet_incident(
            group,
            self.watched,
            self.correlator.membership,
            # The engine surfaces a group once the watermark passed
            # opened_at + drilldown_delay_s — the cutoff must not read
            # beyond what every member clock has provably covered.
            until=group.opened_at + self.correlator.drilldown_delay_s,
        )
        self.correlator.attach_report(group.fleet_id, diagnosis.to_report_data())

    async def _final_correlation_sweep(
        self, scheduler: Scheduler, fleet: list[WatchedEnvironment], on_event
    ) -> None:
        """Short-circuit sweep once the fleet is quiescent.

        A grouping decided by the *final* watermark advance can postdate a
        fast member's last iteration — that member would never run another
        short-circuit pass, leaving its grouped incidents open purely by
        wall-clock accident.  At quiesce the watermark is final and every
        grouping is decided, so one sweep resolves whatever a fleet report
        covers (at the group's deterministic open time), drains the
        engine's buffered resolutions, and refreshes the affected members'
        checkpoint snapshots.  Its drill-downs run on the worker pool, in
        order, like :meth:`_drive`'s: the coordination loop may be shared
        by other tenants.

        Skipped after an early :meth:`stop`: the fleet floor is then NOT
        final — draining the engine past it would consume fast members'
        buffered opens that slow members' (not yet re-emitted) opens should
        have grouped with, diverging from the uninterrupted history on
        resume.  A stopped run simply leaves the tail for its successor.
        """
        if self.correlator is None or self._stop_requested.is_set():
            return
        # Two rounds: the first drains resolutions and drills any group the
        # final watermark surfaced; the second short-circuits the member
        # incidents that drill-down just covered.
        for _round in range(2):
            for watched in fleet:
                resolved = self._apply_fleet_short_circuit(watched, on_event)
                if resolved and self.state_dir is not None:
                    self._env_snapshots[watched.name] = self._snapshot_env(watched)
            # Resolutions fed above sit at or below the final watermark;
            # drain them so fleet incidents complete their own lifecycle.
            for group in self.correlator.finalize():
                await scheduler.call(self._on_fleet_incident, group)

    def _apply_fleet_short_circuit(
        self, watched: WatchedEnvironment, on_event
    ) -> list[Incident]:
        """Resolve member incidents whose shared cause a fleet report names.

        A grouped incident never pays its own pipeline run: it is resolved
        with the fleet-level report, at the *group's* open time (a
        deterministic simulated time), and the engine is told so the fleet
        incident can complete its own lifecycle.  Every transition is
        published (and therefore journalled in the fleet event log) with its
        deterministic simulated time, so an out-of-process correlator
        tailing the log reconstructs the identical history.
        """
        if self.correlator is None:
            return []
        resolved: list[Incident] = []
        for incident in watched.manager.open_incidents():
            ticket = self.correlator.short_circuit(incident.incident_id)
            if ticket is None:
                continue
            _fleet_id, group_opened_at, report_data = ticket
            resolve_at = max(incident.opened_at, group_opened_at)
            # Detections absorbed after the (deterministic, simulated)
            # resolve instant belong to the post-resolution world: this
            # member only *noticed* the fleet decision at some wall-clock
            # moment, and everything it absorbed in between must be
            # re-routed through the manager so cooldown suppression — and
            # any successor incident — lands at simulated times independent
            # of that wall-clock lag.
            late = sorted(
                (d for d in incident.detections if d.time > resolve_at),
                key=lambda d: d.time,
            )
            if late:
                incident.detections = [
                    d for d in incident.detections if d.time <= resolve_at
                ]
                incident.deduped -= len(late)
            incident.report_data = report_data
            watched.manager.resolve(incident, resolve_at)
            self._publish(on_event, watched, incident, "resolved", fleet=True)
            resolved.append(incident)
            for detection in late:
                reopened = watched.manager.observe(detection)
                if reopened is not None:
                    self._publish(on_event, watched, reopened, "opened")
        return resolved

    def _begin_diagnosis_wave(
        self, watched: WatchedEnvironment
    ) -> tuple[list[Incident], DiagnosisRequest] | None:
        """Open incidents → DIAGNOSING + a bundle-snapshot request, if due.

        An environment whose watched query has both labels gets ONE bundle
        snapshot and ONE pipeline run; every incident it opened shares that
        report (several detection targets firing together would otherwise
        pay for the six-module pipeline once each).  Incidents stay OPEN
        until labelled runs exist on both sides.
        """
        open_incidents = watched.manager.open_incidents()
        if self.correlator is not None:
            # Only *independent* incidents pay a per-member pipeline run:
            # grouped ones are short-circuited with the fleet report, and
            # incidents whose siblings may still co-fire stay OPEN (held)
            # until the correlator's watermark passes their window.
            open_incidents = [
                incident
                for incident in open_incidents
                if self.correlator.disposition(
                    incident.incident_id, watched.name, incident.opened_at
                )
                == "independent"
            ]
        if not open_incidents or not watched.diagnosable():
            return None
        clock = watched.clock
        for incident in open_incidents:
            watched.manager.begin_diagnosis(incident, clock)
        return open_incidents, watched.diagnosis_request()

    def _resolve_wave(
        self,
        watched: WatchedEnvironment,
        incidents: list[Incident],
        report,
        on_event,
    ) -> None:
        """Attach the report, resolve at the clock diagnosis began, publish.

        The resolve clock is the environment clock captured when the wave
        was submitted — a deterministic simulated time, never wall time —
        so overlapped execution cannot perturb the incident history.

        A :class:`RemoteReport` (worker-process diagnosis) resolves through
        ``report_data`` — the same serialized-report path fleet
        short-circuits use, so `Incident.to_dict` output is byte-identical
        to thread mode's live-report serialization.
        """
        clock = watched.clock
        for incident in incidents:
            if isinstance(report, RemoteReport):
                incident.report_data = report.report_data
                watched.manager.resolve(incident, clock)
                watched.record_evaluation(incident.incident_id, report.evaluation)
            else:
                watched.manager.resolve(incident, clock, report)
            self._publish(on_event, watched, incident, "resolved")

    # -- the barrier-free loop -------------------------------------------
    def run(
        self,
        duration_s: float,
        *,
        on_event: Callable[[FleetEvent], None] | None = None,
    ) -> list[Incident]:
        """Advance every environment to ``advanced_s + duration_s``; all
        incidents.

        Barrier-free: each watched environment runs on its own clock as a
        cooperative task over the runtime scheduler.  Chunks are clamped so
        a duration that is not a multiple of ``chunk_s`` does not overshoot
        the scenario's designed end.  Environments resumed at uneven clocks
        (a checkpoint written mid-overlap) each advance only what *they*
        are missing.

        ``on_event(event)`` receives the live fleet event stream (see
        :data:`FleetEvent`) — what ``repro watch`` renders from.

        :meth:`stop` (any thread) ends the run early at the next iteration
        boundaries; state stays checkpointed and resumable.
        """
        if not self.watched:
            raise ValueError("no environments watched")
        if duration_s <= 0:
            return self.incidents()
        scheduler = Scheduler(pool=self._pool())
        return scheduler.run(
            self.run_async(duration_s, scheduler=scheduler, on_event=on_event)
        )

    async def run_async(
        self,
        duration_s: float,
        *,
        scheduler: Scheduler,
        on_event: Callable[[FleetEvent], None] | None = None,
    ) -> list[Incident]:
        """Coroutine form of :meth:`run` for callers that own the loop.

        ``repro serve`` runs many tenants' supervisors as sibling tasks on
        one shared :class:`Scheduler`; each calls ``run_async`` with that
        scheduler instead of :meth:`run` (which creates, and blocks, its own
        loop).  Semantics are identical — same events, same checkpoints,
        same byte-for-byte resume guarantee.
        """
        if not self.watched:
            raise ValueError("no environments watched")
        if duration_s <= 0:
            return self.incidents()
        fleet = list(self.watched.values())
        target_s = self.advanced_s + duration_s
        self._stop_requested.clear()
        self._attach_obs()
        await self._run_async(scheduler, fleet, target_s, on_event)
        return self.incidents()

    def stop(self) -> None:
        """Request a graceful early stop of :meth:`run` (thread-safe).

        Environment tasks finish their current iteration (including an
        in-flight diagnosis), a final checkpoint is flushed, and ``run``
        returns.  The supervisor remains consistent and resumable."""
        self._stop_requested.set()

    async def _run_async(
        self,
        scheduler: Scheduler,
        fleet: list[WatchedEnvironment],
        target_s: float,
        on_event,
    ) -> None:
        advance_gate = asyncio.Semaphore(self._workers(len(fleet)))
        diagnosis_gate = (
            asyncio.Semaphore(self.max_inflight_diagnoses)
            if self.max_inflight_diagnoses is not None
            else None
        )
        if self.state_dir is not None:
            # Every checkpoint must cover the whole fleet, including members
            # that have not completed an iteration yet this run.
            for watched in fleet:
                self._env_snapshots[watched.name] = self._snapshot_env(watched)
        flusher = (
            scheduler.spawn(
                self._flush_loop(scheduler, on_event), name="checkpoint-flusher"
            )
            if self.state_dir is not None
            else None
        )
        try:
            tasks = [
                scheduler.spawn(
                    self._drive(
                        scheduler,
                        watched,
                        target_s,
                        advance_gate,
                        diagnosis_gate,
                        on_event,
                    ),
                    name=f"drive-{watched.name}",
                )
                for watched in fleet
            ]
            # A failing environment must not leave siblings advancing on
            # pool threads while we snapshot below: flag a stop so every
            # task winds down at its next iteration boundary, then await
            # them all — the fleet is guaranteed quiescent afterwards.
            failures: list[BaseException] = []
            for task in asyncio.as_completed(tasks):
                try:
                    await task
                except Exception as exc:  # noqa: BLE001 — re-raised below
                    self._stop_requested.set()
                    failures.append(exc)
            if failures:
                raise failures[0]
            await self._final_correlation_sweep(scheduler, fleet, on_event)
        finally:
            if flusher is not None:
                flusher.cancel()
                await asyncio.gather(flusher, return_exceptions=True)
            # Journal flushes and file writes: on the pool, like the
            # flusher's, so a stopping watch never stalls the shared loop.
            await scheduler.call(self._quiesce)
        self._emit(
            on_event,
            {
                "type": "fleet_done",
                "advanced_s": self.advanced_s,
                "skew_s": self.clocks.skew,
                "incidents": len(self.incidents()),
                "stopped": self._stop_requested.is_set(),
            },
        )

    async def _drive(
        self,
        scheduler: Scheduler,
        watched: WatchedEnvironment,
        target_s: float,
        advance_gate: asyncio.Semaphore,
        diagnosis_gate: asyncio.Semaphore | None,
        on_event,
    ) -> None:
        """One environment's supervision loop: its own clock, no barrier."""
        while (
            watched.advanced_s < target_s - 1e-9
            and not self._stop_requested.is_set()
        ):
            with span("iteration", env=watched.name, sim_t=watched.advanced_s):
                step = min(self.chunk_s, target_s - watched.advanced_s)
                if self.max_skew_s is not None:
                    # Skew gate: don't start a chunk that would put this
                    # member more than max_skew_s ahead of the fleet floor.
                    # Pure wall pacing — simulated histories are unaffected.
                    if (
                        watched.advanced_s + step - self.advanced_s
                        > self.max_skew_s + 1e-9
                    ):
                        with span("wait", phase="skew-gate"):
                            while (
                                not self._stop_requested.is_set()
                                and watched.advanced_s + step - self.advanced_s
                                > self.max_skew_s + 1e-9
                            ):
                                await asyncio.sleep(0.002)
                    if self._stop_requested.is_set():
                        break
                with span("wait", phase="advance-slot"):
                    await advance_gate.acquire()
                try:
                    with span("advance", chunk_s=step):
                        detections = await scheduler.call(watched.advance, step)
                finally:
                    advance_gate.release()
                watched.advanced_s += step
                with span("detect", detections=len(detections)):
                    resolved = self._fold_detections(watched, detections, on_event)
                    resolved.extend(
                        self._apply_fleet_short_circuit(watched, on_event)
                    )
                    due = self._begin_diagnosis_wave(watched)
                if due is not None:
                    incidents, request = due
                    with span("diagnose", incidents=len(incidents)):
                        self._emit(
                            on_event,
                            {
                                "type": "diagnosis_started",
                                "env": watched.name,
                                "incident_ids": [
                                    i.incident_id for i in incidents
                                ],
                                "clock": watched.clock,
                            },
                        )
                        report = await self._diagnose_async(
                            scheduler, request, diagnosis_gate
                        )
                        self._resolve_wave(watched, incidents, report, on_event)
                        resolved.extend(incidents)
                self.ticks += 1
                # Progress feeds the correlator last (after this iteration's
                # opens and resolves are buffered) and before the snapshot
                # stash, so the engine's watermark state is never behind a
                # checkpointed environment snapshot.  Any drill-down this
                # surfaces is bridged onto the worker pool: waiting on member
                # evidence (advance locks, worker round-trips) must not stall
                # the coordination loop the whole fleet shares.
                # Re-attaching after a kill is safe (report journalling is
                # idempotent), so the snapshot-ordering invariant is
                # unaffected by awaiting here.
                with span("correlate"):
                    if self.correlator is not None:
                        ready = self.correlator.observe(
                            {
                                "type": "advanced",
                                "env": watched.name,
                                "advanced_s": watched.advanced_s,
                            }
                        )
                        for group in ready:
                            await scheduler.call(self._on_fleet_incident, group)
                if self.state_dir is not None:
                    with span("snapshot"):
                        self._env_snapshots[watched.name] = self._snapshot_env(
                            watched
                        )
                        self._checkpoint_dirty = True
                with span("emit"):
                    self._emit(
                        on_event,
                        {
                            "type": "advanced",
                            "env": watched.name,
                            "clock": watched.clock,
                            "advanced_s": watched.advanced_s,
                            "fleet_advanced_s": self.advanced_s,
                            "detections": len(detections),
                            "resolved": len(resolved),
                        },
                    )
                obs_metrics.inc("supervisor.iterations")
                if resolved:
                    obs_metrics.inc("incidents.resolved", len(resolved))
            # Yield even on quiet iterations so a large fleet interleaves
            # fairly instead of one member monopolising the loop.
            await asyncio.sleep(0)
        self._emit(
            on_event,
            {"type": "env_done", "env": watched.name, "clock": watched.clock},
        )

    async def _diagnose_async(
        self,
        scheduler: Scheduler,
        request: DiagnosisRequest,
        diagnosis_gate: asyncio.Semaphore | None,
    ):
        """Submit one diagnosis to the runtime; await only this env's report.

        A :class:`RemoteDiagnosisRequest` routes into the environment's
        sticky worker process (no bundle crosses the boundary); a plain
        :class:`DiagnosisRequest` runs the pipeline on the scheduler's pool
        (the thread front of a process pool is fine — pipelines release the
        GIL on store scans and this path only carries local environments).
        """
        async with diagnosis_gate if diagnosis_gate is not None else nullcontext():
            obs_metrics.add_gauge("diagnoses.in_flight", 1)
            try:
                if isinstance(request, RemoteDiagnosisRequest):
                    future = request.submit()
                else:
                    future = self.pipeline.submit_many(
                        [request], pool=scheduler.pool
                    )[0]
                return await asyncio.wrap_future(future)
            finally:
                obs_metrics.add_gauge("diagnoses.in_flight", -1)

    def _emit(self, on_event, event: FleetEvent) -> None:
        """Deliver one fleet event: durable journal first, then the callback.

        With a state dir every event is journalled through the fleet event
        log (keyspace ``fleet_events``), so external consumers can tail the
        state dir without living in-process."""
        if self.event_log is not None:
            self.event_log.append(event)
        if on_event is not None:
            on_event(event)

    # -- observability sidecar -------------------------------------------
    def _attach_obs(self) -> None:
        """Point the process-wide tracer at this run's sidecar backend."""
        if self.obs_backend is not None:
            obs_trace.tracer().set_sink(self.obs_backend)

    def _quiesce(self) -> None:
        """End-of-run writes, stopped or finished: checkpoint, then obs.

        The checkpoint persists the stored iteration-BOUNDARY snapshots,
        never a fresh re-snapshot: after a failed or cancelled advance an
        environment's live detector state is mid-chunk (torn against its
        boundary clock), and resuming from it would double-count the
        re-simulated samples.  The boundary snapshots are consistent by
        construction.  Then the observability sidecar: one last metrics
        snapshot, flush the span journal, and detach the process-wide sink
        so a later run (or another supervisor) attaches its own.
        """
        if self.state_dir is not None:
            self._checkpoint_dirty = False
            self._write_checkpoint()
        self._snapshot_obs()
        if self.obs_backend is not None:
            obs_trace.tracer().set_sink(None)
            self.obs_backend.flush()

    def _snapshot_obs(self) -> None:
        """Persist one metrics snapshot (pool gauges refreshed first).

        Called on the flusher's wall cadence and once at quiesce — never
        from the per-iteration hot path.  No-op without a sidecar backend
        or with observability off.
        """
        if self.obs_backend is None or not obs_clock.is_enabled():
            return
        pool = self._pool()
        # Process-backed pools buffer worker-side spans and metric dumps;
        # pull them home before the snapshot so the sidecar sees one
        # coherent fleet (worker.<pid>.* plus workers.* aggregates).
        collect = getattr(pool, "collect_obs", None)
        if collect is not None:
            try:
                collect()
            except Exception:
                pass  # observability must never fail a snapshot
        stats = pool.stats()
        obs_metrics.set_gauge("pool.queued", stats["queued"])
        obs_metrics.set_gauge("pool.active", stats["active"])
        obs_metrics.set_gauge("pool.utilisation", stats["utilisation"])
        # Process-backed pools also expose per-worker routing gauges (pid,
        # sticky affinity keys, tasks routed, handoff bytes) — same registry,
        # same snapshot cadence, so the obs overhead gate still covers them.
        for row in stats.get("workers", ()):
            prefix = f"pool.worker{row['worker']}"
            obs_metrics.set_gauge(f"{prefix}.pid", float(row["pid"] or 0))
            obs_metrics.set_gauge(f"{prefix}.affinity_keys", row["affinity_keys"])
            obs_metrics.set_gauge(f"{prefix}.tasks_routed", row["tasks_routed"])
            obs_metrics.set_gauge(f"{prefix}.handoff_bytes", row["handoff_bytes"])
        obs_metrics.registry().snapshot_to(self.obs_backend, self.advanced_s)
        self.obs_backend.flush()

    # -- persistence -----------------------------------------------------
    def _snapshot_env(self, watched: WatchedEnvironment) -> dict:
        """Freeze one environment's resumable state (call at a quiesce
        point: between that environment's iterations)."""
        return {
            "query_name": watched.query_name,
            "clock": watched.clock,
            "advanced_s": watched.advanced_s,
            **watched.detector_state(),
            "manager": watched.manager.state_dict(),
        }

    def _write_checkpoint(self) -> None:
        """Persist the latest snapshots (atomic tmp + rename).

        The incident journal is flushed first, so a kill at any point leaves
        a consistent pair: a checkpoint as of each environment's last
        snapshotted iteration plus a journal holding at least those
        transitions (duplicates from the resumed re-simulation fold
        idempotently).
        """
        if self.state_dir is None:
            return
        with self._checkpoint_write_lock:
            self._write_checkpoint_locked()

    def _write_checkpoint_locked(self) -> None:
        snapshots = dict(self._env_snapshots)
        clocks = {name: snap["advanced_s"] for name, snap in snapshots.items()}
        state = {
            "version": 2,
            "meta": self.checkpoint_meta,
            "ticks": self.ticks,
            "chunk_s": self.chunk_s,
            "advanced_s": min(clocks.values(), default=0.0),
            "clocks": clocks,
            "environments": snapshots,
        }
        if self.correlator is not None:
            # Captured AFTER the environment snapshots: the engine must never
            # be behind them (events a resumed environment re-emits fold
            # idempotently; events the engine never saw would be lost).
            state["correlator"] = self.correlator.state_dict()
        if self.incident_store is not None:
            self.incident_store.flush()
        if self.event_log is not None:
            self.event_log.flush()
        if self.correlator is not None and self.correlator.store is not None:
            self.correlator.store.flush()
        atomic_write_json(self.state_dir / CHECKPOINT_FILE, state)

    async def _flush_loop(self, scheduler: Scheduler, on_event) -> None:
        """The dirty-flag batched checkpoint flusher.

        Wakes every ``checkpoint_interval_s`` wall seconds; writes only when
        an iteration marked the state dirty, so the hot advance path never
        pays for serialisation or I/O.  The write itself (serialising every
        snapshot + the atomic file replace) is bridged onto the worker pool
        — the coordination loop keeps dispatching environments while the
        checkpoint lands.  Snapshots are safe to serialise off-thread:
        iteration boundaries replace a member's entry wholesale and never
        mutate a stored snapshot.  A transient write failure (disk full,
        EACCES on the tmp file) must not kill periodic checkpointing for
        the rest of a long watch: the state is re-marked dirty and the
        write retries next interval, with the error surfaced on the event
        stream.  No write on cancellation: the run's quiesce checkpoint
        immediately follows."""
        while True:
            await asyncio.sleep(self.checkpoint_interval_s)
            if self._checkpoint_dirty:
                self._checkpoint_dirty = False
                try:
                    with span("checkpoint", sim_t=self.advanced_s):
                        await scheduler.call(self._write_checkpoint)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # noqa: BLE001 — retried next wake
                    self._checkpoint_dirty = True
                    self._emit(
                        on_event,
                        {"type": "checkpoint_error", "error": str(exc)},
                    )
                else:
                    self._emit(
                        on_event,
                        {"type": "checkpoint", "advanced_s": self.advanced_s},
                    )
            # Periodic metrics snapshot into the sidecar, on the flusher's
            # wall cadence (not per iteration — the hot loop never pays).
            await scheduler.call(self._snapshot_obs)

    def has_checkpoint(self) -> bool:
        return (
            self.state_dir is not None
            and (self.state_dir / CHECKPOINT_FILE).exists()
        )

    def resume(self) -> float:
        """Resume from the state dir's checkpoint; returns simulated seconds
        the whole fleet is guaranteed to have covered.

        Call after registering the *same* fleet (names, scenarios, seeds)
        that produced the checkpoint.  Environments are deterministic, so
        they are rebuilt by fast-forwarding the simulation — each to *its
        own* checkpointed clock.  Only version-2 checkpoints (which carry
        that per-environment clock vector) resume; any other version raises
        ``ValueError`` before the fleet is touched.  Detectors stay attached
        during the fast-forward (run labelling and baselines evolve exactly
        as in the uninterrupted run) but the detections drained along the
        way are discarded: the checkpointed manager state already accounts
        for them.  Detector and manager state are then restored, after which
        :meth:`run` continues as if the process never died.
        """
        if not self.has_checkpoint():
            raise FileNotFoundError(f"no {CHECKPOINT_FILE} under {self.state_dir}")
        if self.ticks:
            raise ValueError("resume() must run before any tick")
        state = json.loads((self.state_dir / CHECKPOINT_FILE).read_text())
        if state.get("version") != 2:
            raise ValueError(
                f"checkpoint version {state.get('version')!r} is not supported "
                "(only version 2 resumes)"
            )
        saved_meta = state.get("meta")
        if (
            self.checkpoint_meta is not None
            and saved_meta is not None
            and saved_meta != self.checkpoint_meta
        ):
            raise ValueError(
                "checkpoint was produced by a different run configuration: "
                f"checkpoint {saved_meta!r} vs current {self.checkpoint_meta!r}"
            )
        saved = state["environments"]
        missing = sorted(set(saved) - set(self.watched))
        extra = sorted(set(self.watched) - set(saved))
        if missing or extra:
            raise ValueError(
                "watched fleet does not match the checkpoint "
                f"(missing: {missing or '-'}, unexpected: {extra or '-'})"
            )
        for name, env_state in saved.items():
            if self.watched[name].query_name != env_state["query_name"]:
                raise ValueError(
                    f"environment {name!r} watches {self.watched[name].query_name!r}"
                    f" but the checkpoint recorded {env_state['query_name']!r}"
                )

        clocks = {name: env_state["advanced_s"] for name, env_state in saved.items()}
        fleet = list(self.watched.values())
        workers = self._workers(len(fleet))

        def fast_forward(watched: WatchedEnvironment) -> None:
            cover = clocks[watched.name]
            if cover > 0:
                watched.advance(cover)  # drains (discards) tap detections

        if workers > 1 and len(fleet) > 1:
            self._pool().map_bounded(fast_forward, fleet, limit=workers)
        else:
            for watched in fleet:
                fast_forward(watched)
        for name, env_state in saved.items():
            watched = self.watched[name]
            watched.load_detector_state(env_state)
            watched.manager.load_state(env_state["manager"])
            watched.advanced_s = clocks[name]
        if self.correlator is not None and state.get("correlator") is not None:
            self.correlator.load_state(state["correlator"])
        self.ticks = state["ticks"]
        return self.advanced_s

    # -- reporting -------------------------------------------------------
    def incidents(self) -> list[Incident]:
        out: list[Incident] = []
        for watched in self.watched.values():
            out.extend(watched.manager.incidents)
        return sorted(out, key=lambda i: (i.opened_at, i.incident_id))

    def status_rows(self) -> list[dict]:
        rows = [w.status() for w in self.watched.values()]
        if self.correlator is not None:
            for row in rows:
                row["group"] = self.correlator.group_for_env(row["env"])
        return rows

    def fleet_incident_rows(self) -> list[dict]:
        """Fleet-incident rollup tickets (empty without a correlator)."""
        if self.correlator is None:
            return []
        return self.correlator.to_dict()

    def to_dict(self) -> dict:
        """JSON-friendly fleet state (``repro watch --json``)."""
        out = {
            "ticks": self.ticks,
            "chunk_s": self.chunk_s,
            "advanced_s": self.advanced_s,
            "clocks": self.clocks.to_dict(),
            "skew_s": self.clocks.skew,
            "fleet": self.status_rows(),
            "incidents": [i.to_dict() for i in self.incidents()],
        }
        if self.correlator is not None:
            out["fleet_incidents"] = self.fleet_incident_rows()
        return out

    def render_table(self) -> str:
        """The live fleet table ``repro watch`` prints each refresh.

        With a correlator, each member row carries the id of the fleet
        incident it was grouped into, and a rollup section lists one row per
        fleet incident (members, confidence, state, top shared cause)."""
        grouped = self.correlator is not None
        group_col = f" {'group':<18}" if grouped else ""
        header = (
            f"{'env':<32} {'t(h)':>5} {'runs':>4} {'inc':>3} {'open':>4} "
            f"{'state':<11} {'sev':<8}{group_col} top cause"
        )
        lines = [header, "-" * len(header)]
        for row in self.status_rows():
            verified = (
                ""
                if row["verified"] is None
                else ("  [=truth]" if row["verified"] else "  [MISMATCH]")
            )
            group = f" {row.get('group') or '-':<18}" if grouped else ""
            lines.append(
                f"{row['env']:<32} {row['clock'] / 3600.0:>5.1f} {row['runs']:>4} "
                f"{row['incidents']:>3} {row['open']:>4} {row['state']:<11} "
                f"{row['severity']:<8}{group} {row['top_cause'] or '-'}{verified}"
            )
        rollup = self.fleet_incident_rows()
        if rollup:
            lines.append("")
            lines.append(
                f"{'fleet incident':<24} {'component':<12} {'members':>7} "
                f"{'conf':>5} {'state':<9} top cause"
            )
            lines.append("-" * len(lines[-1]))
            from ..correlate.engine import ticket_top_cause

            for ticket in rollup:
                top = ticket_top_cause(ticket) or "-"
                lines.append(
                    f"{ticket['fleet_id']:<24} {ticket['component_id']:<12} "
                    f"{len(ticket['members']):>7} {ticket['confidence']:>5.2f} "
                    f"{ticket['state']:<9} {top}"
                )
        return "\n".join(lines)
