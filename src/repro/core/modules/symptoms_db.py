"""Module SD — Symptoms Database matching.

Converts the outputs of Modules PD/CO/CR/DA plus the logged events into a
set of structured symptoms, then evaluates the codebook-style symptoms
database to produce confidence-scored root causes.  This is where domain
knowledge reins in the statistics: event propagation produces many anomalous
observations, but only specific *combinations* of symptoms (with temporal
structure — e.g. a zoning change before the slowdown onset) elevate a root
cause to high confidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...san.events import SanEventKind
from ..registry import register_module
from ..symptoms import RootCauseMatch, Symptom, SymptomsDatabase, default_symptoms_database
from .base import DiagnosisContext, ModuleResult
from .correlated_operators import COResult
from .dependency_analysis import DAResult
from .plan_diff import PDResult
from .record_counts import CRResult

__all__ = ["SDResult", "SymptomsDatabaseModule", "extract_symptoms"]


@dataclass
class SDResult(ModuleResult):
    """Outcome of Module SD."""

    symptoms: list[Symptom] = field(default_factory=list)
    matches: list[RootCauseMatch] = field(default_factory=list)

    def high_confidence(self) -> list[RootCauseMatch]:
        return [m for m in self.matches if m.confidence.value == "high"]

    def match(self, cause_id: str) -> RootCauseMatch:
        for m in self.matches:
            if m.cause_id == cause_id:
                return m
        raise KeyError(f"no match for {cause_id!r}")


def extract_symptoms(ctx: DiagnosisContext) -> list[Symptom]:
    """Normalise module outputs and events into the symptom vocabulary."""
    symptoms: list[Symptom] = []
    apg = ctx.apg
    pd: PDResult | None = ctx.results.get("PD")  # type: ignore[assignment]
    co: COResult | None = ctx.results.get("CO")  # type: ignore[assignment]
    cr: CRResult | None = ctx.results.get("CR")  # type: ignore[assignment]
    da: DAResult | None = ctx.results.get("DA")  # type: ignore[assignment]

    # --- plan-level symptoms -------------------------------------------
    if pd is not None and pd.plans_differ:
        symptoms.append(Symptom.make("plan-changed", "executed plan changed"))
        for cause in pd.confirmed_causes:
            symptoms.append(
                Symptom.make(
                    f"plan-cause-confirmed:{cause.kind}",
                    cause.describe(),
                    time=cause.time,
                )
            )

    # --- operator symptoms -----------------------------------------------
    if co is not None and co.cos:
        symptoms.append(
            Symptom.make("operators-anomalous", f"{len(co.cos)} operators anomalous")
        )
        if apg is not None:
            for volume_id in sorted(apg.volumes_used()):
                leaves = set(apg.leaves_on_volume(volume_id))
                flagged = leaves & co.cos
                if flagged:
                    symptoms.append(
                        Symptom.make(
                            f"operators-anomalous-volume:{volume_id}",
                            f"{len(flagged)}/{len(leaves)} leaves on {volume_id} anomalous",
                        )
                    )
                if leaves and len(flagged) <= len(leaves) / 2:
                    symptoms.append(
                        Symptom.make(
                            f"most-volume-leaves-normal:{volume_id}",
                            f"only {len(flagged)}/{len(leaves)} leaves on "
                            f"{volume_id} anomalous",
                        )
                    )

    # --- record-count symptoms ----------------------------------------------
    if cr is not None and cr.crs:
        symptoms.append(
            Symptom.make(
                "record-count-anomaly",
                f"record counts shifted for {sorted(cr.crs)}",
            )
        )

    # --- component-metric symptoms -------------------------------------------
    if da is not None:
        volume_ids = (
            {v.component_id for v in ctx.bundle.topology.volumes} if apg else set()
        )
        for component_id in sorted(da.components_with_anomalies()):
            if component_id in volume_ids:
                anomalous = [f.metric for f in da.anomalous_metrics(component_id)]
                symptoms.append(
                    Symptom.make(
                        f"volume-metric-anomaly:{component_id}",
                        f"anomalous metrics: {', '.join(sorted(anomalous))}",
                    )
                )
        # Database-internal symptom extraction (direction-aware).
        lock_wait = da.score("db", "lockWaitTime")
        if lock_wait >= ctx.threshold:
            symptoms.append(Symptom.make("lock-wait-anomaly", "lock wait time elevated"))
        locks_held = da.score("db", "locksHeld")
        if locks_held >= ctx.threshold:
            symptoms.append(Symptom.make("locks-held-anomaly", "contended locks held"))
        blocks = da.score("db", "blocksRead")
        if blocks >= ctx.threshold:
            symptoms.append(Symptom.make("db-io-increase", "database physical I/O increased"))
        buffer_finding = da.findings.get(("db", "bufferHits"))
        if buffer_finding is not None and buffer_finding.anomaly_score <= 1.0 - ctx.threshold:
            symptoms.append(Symptom.make("buffer-hit-drop", "buffer hit ratio collapsed"))
        server_id = ctx.bundle.testbed.db_server_id
        if da.score(server_id, "cpuUsagePct") >= ctx.threshold:
            symptoms.append(Symptom.make("server-cpu-anomaly", "DB server CPU elevated"))

    # --- event symptoms --------------------------------------------------------
    symptoms.extend(_event_symptoms(ctx))
    return symptoms


def _event_symptoms(ctx: DiagnosisContext) -> list[Symptom]:
    """Symptoms derived from SAN/DB events near the slowdown onset."""
    topology = ctx.bundle.topology
    window_start = ctx.last_satisfactory_before_onset
    window_end = ctx.horizon
    events = ctx.bundle.stores.events.in_window(window_start, window_end)
    symptoms: list[Symptom] = []

    def shared_disk_volumes(volume_id: str) -> list[str]:
        try:
            return [
                v.component_id for v in topology.volumes_sharing_disks(volume_id)
            ]
        except Exception:
            return []

    for event in events:
        if event.kind == SanEventKind.VOLUME_CREATED.value:
            for victim in shared_disk_volumes(event.component_id):
                symptoms.append(
                    Symptom.make(
                        f"new-volume-on-shared-disks:{victim}",
                        f"volume {event.component_id} created on disks shared "
                        f"with {victim}",
                        time=event.time,
                    )
                )
        elif event.kind in (
            SanEventKind.ZONE_CHANGED.value,
            SanEventKind.ZONE_CREATED.value,
            SanEventKind.LUN_MAPPED.value,
        ):
            symptoms.append(
                Symptom.make("zone-or-lun-change", event.describe(), time=event.time)
            )
        elif event.kind == SanEventKind.HIGH_SUBSYSTEM_LOAD.value:
            for victim in shared_disk_volumes(event.component_id):
                symptoms.append(
                    Symptom.make(
                        f"external-workload-on-shared-disks:{victim}",
                        f"external workload on {event.component_id} shares disks "
                        f"with {victim}",
                        time=event.time,
                    )
                )
        elif event.kind == SanEventKind.VOLUME_PERF_DEGRADED.value:
            symptoms.append(
                Symptom.make(
                    f"volume-perf-degraded-event:{event.component_id}",
                    event.describe(),
                    time=event.time,
                )
            )
        elif event.kind == SanEventKind.RAID_REBUILD_STARTED.value:
            disk_id = event.component_id
            for volume in topology.volumes:
                disk_ids = {
                    d.component_id for d in topology.disks_of_volume(volume.component_id)
                }
                if disk_id in disk_ids:
                    symptoms.append(
                        Symptom.make(
                            f"raid-rebuild-on-disks-of:{volume.component_id}",
                            event.describe(),
                            time=event.time,
                        )
                    )
        elif event.kind == "dml_batch":
            symptoms.append(
                Symptom.make("dml-event", event.describe(), time=event.time)
            )
    return symptoms


@register_module
class SymptomsDatabaseModule:
    """Module SD."""

    name = "SD"
    # No hard requires: extract_symptoms reads PD/CO/CR/DA optionally, so a
    # bypassed drill-down (even PD itself) still yields a symptoms match.
    requires: tuple[str, ...] = ()
    after = ("PD", "CO", "CR", "DA")
    provides = "SD"

    def __init__(self, database: SymptomsDatabase | None = None) -> None:
        self.database = database or default_symptoms_database()

    def run(self, ctx: DiagnosisContext) -> SDResult:
        symptoms = extract_symptoms(ctx)
        volumes = [v.component_id for v in ctx.bundle.topology.volumes]
        matches = self.database.evaluate(symptoms, volumes, onset=ctx.onset)
        high = [m for m in matches if m.confidence.value == "high"]
        result = SDResult(
            module=self.name,
            summary=f"{len(symptoms)} symptoms; {len(high)} high-confidence root "
            f"cause(s): {', '.join(m.display_id for m in high) or 'none'}",
            symptoms=symptoms,
            matches=matches,
        )
        ctx.set_result(result)
        return result
