"""Module DA — Dependency Analysis.

Identifies the correlated component set (CCS): components that (i) lie on the
dependency path of at least one operator in COS, and (ii) have at least one
performance metric significantly correlated with the slowdown.  Property (i)
alone is not enough — a component may sit on a path without having caused
anything (the V2 volume in scenario 1) — so DA additionally requires the
metric to be anomalous under KDE *and* to co-move with an affected operator's
running time across runs.

Anomaly scores are computed over *phase-level* monitoring samples: every
bucket recorded while the query was behaving well vs the buckets after the
slowdown onset.  (Per-run windows would miss bursty contention that happens
*between* executions — precisely the Table-2 variant.)  The correlation check
stays per-run: a metric that is anomalous at phase level but uncorrelated
with any affected operator's time (an off-window burst) is observed but does
not enter CCS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...stats.correlation import pearson
from ..apg import COMPONENT_METRICS, DB_METRICS
from ..registry import register_module
from .base import DiagnosisContext, ModuleResult, plans_match
from .correlated_operators import COResult, kde_anomaly

__all__ = ["MetricFinding", "DAResult", "DependencyAnalysisModule"]


@dataclass(frozen=True)
class MetricFinding:
    """Scores for one (component, metric) pair."""

    component_id: str
    metric: str
    anomaly_score: float
    best_correlation: float
    correlated_operator: str | None

    @property
    def key(self) -> tuple[str, str]:
        return (self.component_id, self.metric)


@dataclass
class DAResult(ModuleResult):
    """Outcome of Module DA."""

    findings: dict[tuple[str, str], MetricFinding] = field(default_factory=dict)
    ccs: set[str] = field(default_factory=set)
    threshold: float = 0.8
    correlation_threshold: float = 0.5

    def score(self, component_id: str, metric: str) -> float:
        finding = self.findings.get((component_id, metric))
        return finding.anomaly_score if finding else 0.0

    def anomalous_metrics(self, component_id: str) -> list[MetricFinding]:
        return [
            f
            for f in self.findings.values()
            if f.component_id == component_id and f.anomaly_score >= self.threshold
        ]

    def components_with_anomalies(self) -> set[str]:
        return {
            f.component_id
            for f in self.findings.values()
            if f.anomaly_score >= self.threshold
        }


@register_module
class DependencyAnalysisModule:
    """Module DA."""

    name = "DA"
    requires = ("PD", "CO")
    after = ("CR",)
    provides = "DA"
    gate = staticmethod(plans_match)

    def run(self, ctx: DiagnosisContext) -> DAResult:
        if ctx.apg is None:
            raise RuntimeError("Module PD must run before DA (APG not built)")
        co: COResult = ctx.result("CO")
        apg = ctx.apg
        metrics_store = ctx.bundle.stores.metrics

        # Components on the dependency paths of correlated operators.
        components: set[str] = set()
        for op_id in co.cos:
            paths = apg.dependency.get(op_id)
            if paths is not None:
                components |= paths.all_components

        # Per-run window means per (component, metric), split by label.
        sat_runs, unsat_runs = [], []
        for run in apg.runs:
            if run.satisfactory is True:
                sat_runs.append(run)
            elif run.satisfactory is False:
                unsat_runs.append(run)

        # Operator per-run times for the correlation check (property ii).
        op_series: dict[str, list[float]] = {}
        labelled_runs = sat_runs + unsat_runs
        for op_id in co.cos:
            op_series[op_id] = [
                run.operators[op_id].inclusive_time
                for run in labelled_runs
                if op_id in run.operators
            ]

        # Phase boundaries for the anomaly side of the analysis.
        sat_start = min(r.start_time for r in sat_runs) if sat_runs else 0.0
        sat_end = max(r.end_time for r in sat_runs) if sat_runs else 0.0
        onset = ctx.onset
        horizon = ctx.horizon

        findings: dict[tuple[str, str], MetricFinding] = {}
        for component_id in sorted(components):
            for metric in self._metrics_for(ctx, component_id):
                if component_id == "db":
                    # db metrics only exist around runs; score per-run windows
                    sat_vals = metrics_store.run_window_means(
                        component_id, metric, sat_runs
                    )
                    unsat_vals = metrics_store.run_window_means(
                        component_id, metric, unsat_runs
                    )
                else:
                    sat_vals = metrics_store.values_between(
                        component_id, metric, sat_start, sat_end
                    )
                    unsat_vals = metrics_store.values_between(
                        component_id, metric, onset, horizon
                    )
                if len(sat_vals) < 2 or not unsat_vals:
                    continue
                score = kde_anomaly(sat_vals, unsat_vals)
                all_vals = metrics_store.run_window_means(
                    component_id, metric, labelled_runs
                )
                best_corr, best_op = 0.0, None
                if len(all_vals) == len(labelled_runs):
                    for op_id, times in op_series.items():
                        if len(times) != len(all_vals) or len(times) < 2:
                            continue
                        if component_id not in apg.dependency[op_id].all_components:
                            continue
                        coeff = pearson(all_vals, times)
                        if abs(coeff) > abs(best_corr):
                            best_corr, best_op = coeff, op_id
                findings[(component_id, metric)] = MetricFinding(
                    component_id=component_id,
                    metric=metric,
                    anomaly_score=score,
                    best_correlation=best_corr,
                    correlated_operator=best_op,
                )

        ccs = {
            f.component_id
            for f in findings.values()
            if f.anomaly_score >= ctx.threshold
            and abs(f.best_correlation) >= ctx.correlation_threshold
        }
        result = DAResult(
            module=self.name,
            summary=f"{len(ccs)} components correlated with the slowdown "
            f"(of {len(components)} on dependency paths)",
            findings=findings,
            ccs=ccs,
            threshold=ctx.threshold,
            correlation_threshold=ctx.correlation_threshold,
        )
        ctx.set_result(result)
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _metrics_for(ctx: DiagnosisContext, component_id: str) -> list[str]:
        if component_id == "db":
            return DB_METRICS
        try:
            ctype = ctx.bundle.topology.get(component_id).ctype.value
        except Exception:
            return []
        return COMPONENT_METRICS.get(ctype, [])
