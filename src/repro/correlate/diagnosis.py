"""Shared-root-cause drill-down: one fleet report instead of N tickets.

When a :class:`~repro.correlate.CorrelationEngine` opens a
:class:`~repro.correlate.FleetIncident`, the question changes from "why is
this query slow?" to "which *shared* component is degrading all of these
environments at once?".  This module answers it with a cross-member
dependency-path analysis:

1. per member, the candidate shared components are checked against the
   dependency paths of the member's watched query
   (:func:`repro.core.dependency.compute_dependency_paths` via the APG) —
   a shared component that cannot affect a member's operators cannot be its
   cause;
2. per member, each on-path candidate is scored by how strongly its metrics
   co-move with the query's per-run duration
   (:func:`repro.stats.correlation.pearson` over per-run metric window
   means) — the same evidence rule Module DA applies inside one
   environment, lifted to the component level;
3. across members, candidates are ranked by **coverage × correlation**:
   the fraction of the component's attached membership that is affected
   *and* has it on-path, times the mean correlation strength among those
   members.  A pool shared by exactly the six degraded environments beats
   the switch shared by all eight, because two attached-but-healthy members
   are evidence against the switch.

Each member runs steps 1 and 2 where it lives (a watched environment's
``shared_evidence``, in its worker process under the process pool), so only
:class:`ComponentEvidence` rows meet here.  The per-member scoring is also a
registered :class:`~repro.core.registry.DiagnosisModule` (``"SC"``), so a
single environment's pipeline can rank shared SAN components on demand
(``default_pipeline(extra_modules=["SC"])``).  The drill-down emits one
:class:`FleetDiagnosis`, which the supervisor attaches to the fleet incident
and to every member incident it short-circuits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from ..core.apg import COMPONENT_METRICS, build_apg
from ..core.modules.base import DiagnosisContext, ModuleResult
from ..core.registry import register_module
from ..stats.correlation import pearson

if TYPE_CHECKING:  # pragma: no cover
    from ..lab.environment import DiagnosisBundle
    from ..stream.supervisor import WatchedEnvironment
    from .engine import FleetIncident

__all__ = [
    "ComponentEvidence",
    "SharedCause",
    "FleetDiagnosis",
    "rank_components_for_member",
    "diagnose_fleet_incident",
    "SCResult",
    "SharedComponentRankModule",
]

#: Cause-id prefix fleet reports use, so member tickets resolved by a fleet
#: report are distinguishable from per-member symptom-database matches.
SHARED_CAUSE_PREFIX = "shared-component"


@dataclass(frozen=True)
class ComponentEvidence:
    """One member's evidence for one candidate shared component."""

    component_id: str
    env: str
    on_path: bool
    best_metric: str | None
    correlation: float  # |pearson| of the best metric vs run duration


@dataclass(frozen=True)
class SharedCause:
    """A candidate shared component, scored across the affected members."""

    component_id: str
    attached: tuple[str, ...]
    affected: tuple[str, ...]
    on_path: tuple[str, ...]
    coverage: float
    mean_correlation: float
    score: float
    evidence: tuple[ComponentEvidence, ...] = ()

    @property
    def cause_id(self) -> str:
        return f"{SHARED_CAUSE_PREFIX}:{self.component_id}"

    def describe(self) -> str:
        return (
            f"{self.cause_id}: coverage {self.coverage:.2f} "
            f"({len(self.on_path)}/{len(self.attached)} attached members), "
            f"correlation {self.mean_correlation:.2f}, score {self.score:.2f}"
        )


@dataclass
class FleetDiagnosis:
    """The fleet-level report: shared components ranked across members."""

    fleet_id: str
    causes: list[SharedCause] = field(default_factory=list)

    @property
    def top_cause(self) -> SharedCause | None:
        return self.causes[0] if self.causes else None

    def to_report_data(self) -> dict:
        """Serialised form attached to fleet *and* short-circuited member
        incidents (``causes[0]["cause_id"]`` is what ticket surfaces read)."""
        return {
            "kind": "fleet",
            "fleet_id": self.fleet_id,
            "causes": [
                {
                    "cause_id": cause.cause_id,
                    "component_id": cause.component_id,
                    "score": round(cause.score, 4),
                    "coverage": round(cause.coverage, 4),
                    "correlation": round(cause.mean_correlation, 4),
                    "attached": list(cause.attached),
                    "affected": list(cause.affected),
                    "on_path": list(cause.on_path),
                }
                for cause in self.causes
            ],
        }

    def render(self) -> str:
        lines = [f"fleet diagnosis {self.fleet_id}: shared-component ranking"]
        for rank, cause in enumerate(self.causes, start=1):
            lines.append(f"  {rank}. {cause.describe()}")
        return "\n".join(lines)


def _metrics_for(bundle: "DiagnosisBundle", component_id: str) -> list[str]:
    try:
        ctype = bundle.topology.get(component_id).ctype.value
    except Exception:
        return []
    return COMPONENT_METRICS.get(ctype, [])


def rank_components_for_member(
    bundle: "DiagnosisBundle",
    query_name: str,
    candidates: Sequence[str],
    *,
    env: str = "-",
    until: float | None = None,
) -> list[ComponentEvidence]:
    """Score candidate components against one member's run history.

    For each candidate: is it on any operator's dependency path, and how
    strongly does its best metric (per-run window mean) co-move with the
    query's per-run duration?  Labels are not required — durations alone
    carry the degradation signal — so the drill-down works even for members
    whose SLO detector has not labelled runs on both sides yet.

    ``until`` restricts the evidence to runs that *completed* by that
    simulated time.  The fleet drill-down passes the correlator's cutoff
    (group open + drill-down delay): every member clock has provably passed
    it, so the analysis reads identical data no matter how far ahead other
    members have raced — which keeps the fleet report deterministic.  A
    member with no run completed by ``until`` has no evidence: every
    candidate comes back off-path (it still counts as affected; it just
    cannot vote).
    """
    if until is not None:
        runs = [
            r
            for r in bundle.stores.runs.runs(query_name)
            if r.end_time <= until
        ]
        if not runs:
            return [
                ComponentEvidence(component_id, env, False, None, 0.0)
                for component_id in candidates
            ]
        apg = build_apg(bundle, query_name, plan=runs[-1].plan, runs=runs)
    else:
        apg = build_apg(bundle, query_name)
    on_path = apg.component_ids()
    runs = apg.runs
    durations = [run.duration for run in runs]
    metrics_store = bundle.stores.metrics
    evidence: list[ComponentEvidence] = []
    for component_id in candidates:
        if component_id not in on_path:
            evidence.append(
                ComponentEvidence(component_id, env, False, None, 0.0)
            )
            continue
        best_metric, best_corr = None, 0.0
        for metric in _metrics_for(bundle, component_id):
            paired_means, paired_durations = [], []
            for run, duration in zip(runs, durations):
                mean = metrics_store.window_mean(
                    component_id, metric, run.start_time, run.end_time
                )
                if mean is not None:
                    paired_means.append(mean)
                    paired_durations.append(duration)
            if len(paired_means) < 2:
                continue
            coeff = abs(pearson(paired_means, paired_durations))
            if coeff > best_corr:
                best_metric, best_corr = metric, coeff
        evidence.append(
            ComponentEvidence(component_id, env, True, best_metric, best_corr)
        )
    return evidence


def diagnose_fleet_incident(
    incident: "FleetIncident",
    members: Mapping[str, "WatchedEnvironment"],
    membership: Mapping[str, Sequence[str]],
    *,
    until: float | None = None,
) -> FleetDiagnosis:
    """Cross-member dependency-path analysis for one fleet incident.

    ``members`` maps environment names to watched environments, local or
    process-backed; each affected one scores the candidates against its own
    run history where it lives (``shared_evidence``), so no member's stores
    leave it.  ``membership``
    is the engine's shared-component map.  Every shared component with at
    least one affected attached member is a candidate; the ranking is
    coverage × mean correlation as described in the module docstring.
    ``until`` is the deterministic evidence cutoff (see
    :func:`rank_components_for_member`).
    """
    affected = [env for env in incident.member_envs if env in members]
    candidates = sorted(
        component
        for component, attached in membership.items()
        if set(attached) & set(affected)
    )
    per_member = {
        env: members[env].shared_evidence(candidates, until=until)
        for env in affected
    }

    causes: list[SharedCause] = []
    for component in candidates:
        attached = tuple(membership[component])
        affected_attached = tuple(e for e in affected if e in attached)
        evidence = tuple(
            ev
            for env in affected_attached
            for ev in per_member[env]
            if ev.component_id == component
        )
        contributing = tuple(ev.env for ev in evidence if ev.on_path)
        corrs = [ev.correlation for ev in evidence if ev.on_path]
        mean_corr = sum(corrs) / len(corrs) if corrs else 0.0
        coverage = len(contributing) / len(attached) if attached else 0.0
        causes.append(
            SharedCause(
                component_id=component,
                attached=attached,
                affected=affected_attached,
                on_path=contributing,
                coverage=coverage,
                mean_correlation=mean_corr,
                score=coverage * mean_corr,
                evidence=evidence,
            )
        )
    causes.sort(key=lambda c: (-c.score, -c.coverage, c.component_id))
    return FleetDiagnosis(fleet_id=incident.fleet_id, causes=causes)


# ---------------------------------------------------------------------------
# The per-member scoring as a pluggable pipeline module
# ---------------------------------------------------------------------------
@dataclass
class SCResult(ModuleResult):
    """Outcome of the shared-component ranking module."""

    evidence: list[ComponentEvidence] = field(default_factory=list)

    def ranked(self) -> list[ComponentEvidence]:
        return sorted(
            self.evidence, key=lambda ev: (-ev.correlation, ev.component_id)
        )


@register_module
class SharedComponentRankModule:
    """Module SC — rank shared SAN components for one environment.

    A drill-down module (not part of the default Figure-2 workflow): given a
    set of candidate shared components (pools, switches, hosts), it scores
    each by dependency-path membership and metric-vs-duration correlation —
    the per-member half of :func:`diagnose_fleet_incident`.  With no
    explicit candidates it considers every pool and switch in the member's
    topology.

    Plug it into a pipeline with
    ``default_pipeline(extra_modules=[SharedComponentRankModule(["P1"])])``.
    """

    name = "SC"
    requires = ()

    def __init__(self, candidates: Sequence[str] | None = None) -> None:
        self.candidates = tuple(candidates) if candidates is not None else None

    def run(self, ctx: DiagnosisContext) -> SCResult:
        topology = ctx.bundle.topology
        candidates = self.candidates
        if candidates is None:
            candidates = tuple(
                sorted(
                    c.component_id
                    for c in list(topology.pools) + list(topology.switches)
                )
            )
        evidence = rank_components_for_member(
            ctx.bundle, ctx.query_name, candidates
        )
        on_path = [ev for ev in evidence if ev.on_path]
        result = SCResult(
            module=self.name,
            summary=(
                f"{len(on_path)} of {len(evidence)} candidate shared components "
                "on the query's dependency paths"
            ),
            evidence=list(evidence),
        )
        ctx.set_result(result)
        return result
