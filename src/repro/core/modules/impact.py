"""Module IA — Impact Analysis.

For each root cause R that survived Module SD, compute an *impact score*:
the percentage of the query slowdown attributable to R individually.  The
primary implementation is the paper's "inverse dependency analysis":

1. start from R and find the components it affects, ``comp(R)``;
2. find the operators whose performance those components affect, ``op(R)``;
3. impact = extra running time of ``op(R)`` relative to the extra plan
   running time, where *extra* is the difference of means between
   unsatisfactory and satisfactory runs.

Operator "extra time" uses **exclusive (self) times** — reconstructed from
the monitored start/stop intervals as ``inclusive − Σ children inclusive`` —
so an ancestor chain does not double-count its slow leaf.

For volume-contention causes the score is additionally weighted by how much
the volume's response time actually moved: a cause whose volume latency is
flat cannot have produced the extra time its operators show (that extra I/O
time came from *more reads*, i.e. a data change — this is how IA rules out
volume contention in scenario 3 and separates concurrent problems in
scenario 4).  This refinement corresponds to the paper's second IA
implementation, which leverages cost models to attribute time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ...db.executor import QueryRun
from ...db.plans import PlanOperator
from ..registry import register_module
from ..symptoms import RootCauseMatch
from .base import DiagnosisContext, ModuleResult
from .correlated_operators import COResult
from .dependency_analysis import DAResult
from .record_counts import CRResult
from .symptoms_db import SDResult

__all__ = ["ImpactScore", "IAResult", "ImpactAnalysisModule", "self_times"]


def self_times(plan: PlanOperator, run: QueryRun) -> dict[str, float]:
    """Exclusive per-operator times from monitored inclusive intervals."""
    out: dict[str, float] = {}
    for op in plan.walk():
        if op.op_id not in run.operators:
            continue
        inclusive = run.operators[op.op_id].inclusive_time
        children = sum(
            run.operators[c.op_id].inclusive_time
            for c in op.children
            if c.op_id in run.operators
        )
        out[op.op_id] = max(inclusive - children, 0.0)
    return out


@dataclass(frozen=True)
class ImpactScore:
    """Impact of one root cause on the slowdown."""

    cause_id: str
    binding: str | None
    impact_pct: float
    confidence: str
    detail: str = ""

    @property
    def display_id(self) -> str:
        return f"{self.cause_id}[{self.binding}]" if self.binding else self.cause_id


@dataclass
class IAResult(ModuleResult):
    """Outcome of Module IA."""

    impacts: list[ImpactScore] = field(default_factory=list)
    extra_plan_time: float = 0.0

    def impact_of(self, cause_id: str) -> float:
        for score in self.impacts:
            if score.cause_id == cause_id:
                return score.impact_pct
        raise KeyError(f"no impact computed for {cause_id!r}")

    def ranked(self) -> list[ImpactScore]:
        order = {"high": 0, "medium": 1, "low": 2}
        return sorted(
            self.impacts,
            key=lambda s: (order.get(s.confidence, 3), -s.impact_pct),
        )


@register_module
class ImpactAnalysisModule:
    """Module IA."""

    name = "IA"
    requires = ("PD", "SD")
    after = ("CO", "CR", "DA")
    provides = "IA"

    def run(self, ctx: DiagnosisContext) -> IAResult:
        if ctx.apg is None:
            raise RuntimeError("Module PD must run before IA (APG not built)")
        sd: SDResult = ctx.result("SD")
        co: COResult = ctx.results.get("CO") or COResult(  # type: ignore[assignment]
            module="CO", summary="skipped (plan changed)", scores={}, cos=set()
        )
        cr: CRResult | None = ctx.results.get("CR")  # type: ignore[assignment]
        da: DAResult | None = ctx.results.get("DA")  # type: ignore[assignment]

        extra_self, extra_plan = self._extra_times(ctx)
        if extra_plan <= 0.0:
            result = IAResult(
                module=self.name,
                summary="no measurable slowdown (extra plan time <= 0)",
                impacts=[],
                extra_plan_time=extra_plan,
            )
            ctx.set_result(result)
            return result

        impacts: list[ImpactScore] = []
        candidates = [
            m for m in sd.matches if m.confidence.value in ("high", "medium")
        ]
        for match in candidates:
            impact, detail = self._impact_for(
                ctx, match, extra_self, extra_plan, co, cr, da
            )
            impacts.append(
                ImpactScore(
                    cause_id=match.cause_id,
                    binding=match.binding,
                    impact_pct=impact,
                    confidence=match.confidence.value,
                    detail=detail,
                )
            )
        impacts.sort(key=lambda s: s.impact_pct, reverse=True)
        top = impacts[0] if impacts else None
        result = IAResult(
            module=self.name,
            summary=(
                f"top impact: {top.display_id} = {top.impact_pct:.1f}%"
                if top
                else "no medium/high-confidence causes to score"
            ),
            impacts=impacts,
            extra_plan_time=extra_plan,
        )
        ctx.set_result(result)
        return result

    # ------------------------------------------------------------------
    def _extra_times(self, ctx: DiagnosisContext) -> tuple[dict[str, float], float]:
        apg = ctx.apg
        assert apg is not None
        sat_self: dict[str, list[float]] = {}
        unsat_self: dict[str, list[float]] = {}
        for run in apg.runs:
            if run.satisfactory is None:
                continue
            selves = self_times(apg.plan, run)
            target = sat_self if run.satisfactory else unsat_self
            for op_id, value in selves.items():
                target.setdefault(op_id, []).append(value)
        extra: dict[str, float] = {}
        for op_id in set(sat_self) & set(unsat_self):
            extra[op_id] = float(
                np.mean(unsat_self[op_id]) - np.mean(sat_self[op_id])
            )
        # Plan-level extra time uses every labelled run of the query (the APG
        # only holds runs of one plan, which would lose the satisfactory side
        # entirely after a plan change).
        sat_plan = [r.duration for r in ctx.sat_runs]
        unsat_plan = [r.duration for r in ctx.unsat_runs]
        extra_plan = float(np.mean(unsat_plan) - np.mean(sat_plan)) if sat_plan and unsat_plan else 0.0
        return extra, extra_plan

    def _impact_for(
        self,
        ctx: DiagnosisContext,
        match: RootCauseMatch,
        extra_self: dict[str, float],
        extra_plan: float,
        co: COResult,
        cr: CRResult | None,
        da: DAResult | None,
    ) -> tuple[float, str]:
        apg = ctx.apg
        assert apg is not None

        def pct(op_ids: set[str], factor: float = 1.0) -> float:
            # Sorted: a float sum in set order differs between hash seeds.
            base = sum(max(extra_self.get(op_id, 0.0), 0.0) for op_id in sorted(op_ids))
            return min(max(base * factor / extra_plan * 100.0, 0.0), 100.0)

        if match.kind == "plan-regression":
            return 100.0, "plan change explains the entire slowdown"

        if match.kind == "volume-contention" and match.binding:
            volume_id = match.binding
            op_ids = set(apg.leaves_on_volume(volume_id)) & co.cos
            factor, detail = self._latency_factor(ctx, volume_id)
            return pct(op_ids or set(apg.leaves_on_volume(volume_id)), factor), detail

        if match.kind == "data-change":
            crs = cr.crs if cr is not None else set()
            # count only leaf-level extra time plus interior CRS operators
            return pct(crs), "extra time of operators with shifted record counts"

        if match.kind == "lock-contention":
            tables = {
                e.component_id
                for e in ctx.bundle.stores.events.of_kind("lock_escalation")
            }
            op_ids: set[str] = set()
            for op in apg.plan.leaves():
                if op.table in tables:
                    op_ids.add(op.op_id)
            if not op_ids:
                op_ids = {o for o in co.cos if apg.plan.find(o).is_leaf}
            return pct(op_ids), "extra time of operators on contended tables"

        # generic causes (CPU, buffer pool, ...): extra *self* time of the
        # whole correlated operator set — self times never double count
        return pct(co.cos), "extra self time of correlated operators"

    def _latency_factor(self, ctx: DiagnosisContext, volume_id: str) -> tuple[float, str]:
        """Fraction of the volume's operators' extra time attributable to the
        volume actually getting slower (response-time shift)."""
        store = ctx.bundle.stores.metrics
        apg = ctx.apg
        assert apg is not None
        sat_vals, unsat_vals = [], []
        for run in apg.runs:
            mean = store.window_mean(volume_id, "readTime", run.start_time, run.end_time)
            if mean is None:
                continue
            if run.satisfactory is True:
                sat_vals.append(mean)
            elif run.satisfactory is False:
                unsat_vals.append(mean)
        if len(sat_vals) < 2 or not unsat_vals:
            return 1.0, "no latency data; attributing full extra time"
        lat_sat = float(np.mean(sat_vals))
        lat_unsat = float(np.mean(unsat_vals))
        if lat_sat <= 0:
            return 1.0, "baseline latency unavailable"
        delta = max(lat_unsat - lat_sat, 0.0)
        factor = min(delta / lat_sat, 1.0)
        return factor, (
            f"volume readTime {lat_sat:.2f} -> {lat_unsat:.2f} ms "
            f"(latency factor {factor:.2f})"
        )
