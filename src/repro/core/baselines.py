"""Silo-tool baselines: what DB-only, SAN-only and pure-ML diagnosis report.

Section 5 argues: *"a SAN-only diagnosis tool may spot higher I/O loads in
both V1 and V2, and attribute both of these as potential root causes.  Even
worse, the tool may give more importance to V2 because most of the data is on
V2.  A database-only tool can pinpoint the slowdown in the operators, but it
would likely give several false positives like a suboptimal buffer pool
setting or a suboptimal choice of execution plan."*  These diagnosers
implement exactly those strategies so the claim becomes measurable
(experiment E10), plus a pure-correlation "ML-only" tool that demonstrates
event flooding.

Each baseline is expressed as an alternate *pipeline configuration*: a
single registered :class:`DiagnosisModule` wrapped by
:func:`baseline_pipeline`, so the baselines run on the same engine as the
integrated workflow (and can be mixed into custom pipelines for
side-by-side comparisons).  :func:`baseline_findings` runs one and returns
what the silo tool reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..lab.environment import DiagnosisBundle
from ..stats.correlation import pearson
from .apg import COMPONENT_METRICS
from .modules.base import DiagnosisContext, ModuleResult
from .modules.correlated_operators import kde_anomaly
from .pipeline import DiagnosisPipeline
from .registry import register_module

__all__ = [
    "BaselineFinding",
    "BaselineResult",
    "SanOnlyModule",
    "DbOnlyModule",
    "CorrelationOnlyModule",
    "baseline_pipeline",
    "baseline_findings",
]


@dataclass(frozen=True)
class BaselineFinding:
    """One candidate cause reported by a baseline tool."""

    cause: str
    target: str
    score: float
    detail: str = ""

    def describe(self) -> str:
        return f"{self.cause} @ {self.target} (score {self.score:.2f}) {self.detail}".rstrip()


@dataclass
class BaselineResult(ModuleResult):
    """Pipeline-module form of a baseline's findings list."""

    findings: list[BaselineFinding] = field(default_factory=list)

    def targets(self) -> list[str]:
        return [f.target for f in self.findings]


def _labelled_runs(bundle: DiagnosisBundle, query_name: str):
    runs = bundle.stores.runs.runs(query_name)
    sat = [r for r in runs if r.satisfactory is True]
    unsat = [r for r in runs if r.satisfactory is False]
    return sat, unsat


@register_module
@dataclass
class SanOnlyModule:
    """A storage administrator's tool: volumes + their metrics, nothing else.

    It flags every volume with anomalous I/O metrics and — lacking any notion
    of which data the query actually reads — ranks the suspects by how much
    I/O they serve ("most of the data is on V2").
    """

    threshold: float = 0.8

    name = "SAN_ONLY"
    requires: tuple[str, ...] = ()

    def run(self, ctx: DiagnosisContext) -> BaselineResult:
        bundle = ctx.bundle
        sat, unsat = ctx.sat_runs, ctx.unsat_runs
        store = bundle.stores.metrics
        # A SAN tool has no notion of query runs — it compares the healthy
        # period against the complaint period wholesale.
        sat_start = min(r.start_time for r in sat)
        sat_end = max(r.end_time for r in sat)
        onset = min(r.start_time for r in unsat)
        horizon = max(r.end_time for r in unsat)
        findings = []
        for volume in bundle.topology.volumes:
            vid = volume.component_id
            best_metric, best_score = None, 0.0
            for metric in COMPONENT_METRICS["volume"]:
                s = store.values_between(vid, metric, sat_start, sat_end)
                u = store.values_between(vid, metric, onset, horizon)
                if len(s) < 2 or not u:
                    continue
                score = kde_anomaly(s, u)
                if score > best_score:
                    best_metric, best_score = metric, score
            if best_score >= self.threshold:
                io_weight = float(
                    np.mean(store.run_window_means(vid, "totalIOs", sat + unsat) or [0.0])
                )
                findings.append(
                    BaselineFinding(
                        cause="volume-contention",
                        target=vid,
                        score=best_score,
                        detail=f"metric {best_metric}, totalIOs≈{io_weight:.0f}",
                    )
                )
        # rank by served I/O, not by causal relevance — the silo-tool mistake
        def io_of(f: BaselineFinding) -> float:
            return float(
                np.mean(
                    store.run_window_means(f.target, "totalIOs", sat + unsat)
                    or [0.0]
                )
            )

        findings.sort(key=io_of, reverse=True)
        result = BaselineResult(
            module=self.name,
            summary=f"{len(findings)} anomalous volumes (ranked by served I/O)",
            findings=findings,
        )
        ctx.set_result(result)
        return result


@register_module
@dataclass
class DbOnlyModule:
    """A database administrator's tool: operators + DB metrics, no SAN view.

    It correctly pinpoints the slow operators but, with no visibility into
    the storage layer, falls back to the usual database suspects — buffer
    pool sizing, plan choice, locking — several of which are false positives
    whenever the true cause lives in the SAN.
    """

    threshold: float = 0.8

    name = "DB_ONLY"
    requires: tuple[str, ...] = ()

    def run(self, ctx: DiagnosisContext) -> BaselineResult:
        bundle, query_name = ctx.bundle, ctx.query_name
        sat, unsat = ctx.sat_runs, ctx.unsat_runs
        store = bundle.stores.metrics
        findings: list[BaselineFinding] = []

        # operator drill-down (this part it gets right)
        sat_times: dict[str, list[float]] = {}
        unsat_times: dict[str, list[float]] = {}
        for run in sat:
            for op_id, t in run.operator_times().items():
                sat_times.setdefault(op_id, []).append(t)
        for run in unsat:
            for op_id, t in run.operator_times().items():
                unsat_times.setdefault(op_id, []).append(t)
        slow_ops = []
        for op_id in sat_times:
            if op_id not in unsat_times:
                continue
            score = kde_anomaly(sat_times[op_id], unsat_times[op_id])
            if score >= self.threshold:
                slow_ops.append((op_id, score))
        slow_ops.sort(key=lambda kv: kv[1], reverse=True)
        if slow_ops:
            findings.append(
                BaselineFinding(
                    cause="slow-operators",
                    target=",".join(op for op, _ in slow_ops[:6]),
                    score=slow_ops[0][1],
                    detail=f"{len(slow_ops)} operators slowed down",
                )
            )

        # database-internal hypotheses — emitted with no way to verify them
        def db_score(metric: str) -> float:
            s = store.run_window_means("db", metric, sat)
            u = store.run_window_means("db", metric, unsat)
            if len(s) < 2 or not u:
                return 0.0
            return kde_anomaly(s, u)

        lock_score = db_score("lockWaitTime")
        if lock_score >= self.threshold:
            findings.append(
                BaselineFinding("lock-contention", "db", lock_score, "lock waits elevated")
            )
        io_score = db_score("blocksRead")
        findings.append(
            BaselineFinding(
                cause="suboptimal-buffer-pool",
                target="db",
                score=max(io_score, 0.5),
                detail="operators wait on I/O; buffer pool may be undersized",
            )
        )
        findings.append(
            BaselineFinding(
                cause="suboptimal-plan-choice",
                target=query_name,
                score=0.5,
                detail="plan may be mis-costed for current data",
            )
        )
        result = BaselineResult(
            module=self.name,
            summary=f"{len(findings)} database-side hypotheses",
            findings=findings,
        )
        ctx.set_result(result)
        return result


def _correlation_findings(
    bundle: DiagnosisBundle, query_name: str, top_k: int, min_correlation: float
) -> list[BaselineFinding]:
    """Correlate every metric's per-run means with the query durations.

    Needs only >= 3 labelled runs overall — unlike the integrated workflow
    it does not care whether *both* labels are present.
    """
    sat, unsat = _labelled_runs(bundle, query_name)
    runs = sat + unsat
    if len(runs) < 3:
        return []
    store = bundle.stores.metrics
    durations = [r.duration for r in runs]
    findings: list[BaselineFinding] = []
    for component_id, metric in store.keys():
        values = store.run_window_means(component_id, metric, runs)
        if len(values) != len(runs):
            continue
        coeff = pearson(values, durations)
        if abs(coeff) >= min_correlation:
            findings.append(
                BaselineFinding(
                    cause="correlated-metric",
                    target=f"{component_id}.{metric}",
                    score=abs(coeff),
                    detail=f"r={coeff:+.2f}",
                )
            )
    findings.sort(key=lambda f: f.score, reverse=True)
    return findings[:top_k]


@register_module
@dataclass
class CorrelationOnlyModule:
    """Pure machine learning: correlate every metric with the slowdown.

    No dependency pruning, no domain knowledge — every series whose per-run
    means co-move with the query duration is reported.  Event flooding makes
    innocent components (switches, sibling volumes) score highly.
    """

    top_k: int = 10
    min_correlation: float = 0.6

    name = "CORR_ONLY"
    requires: tuple[str, ...] = ()

    def run(self, ctx: DiagnosisContext) -> BaselineResult:
        findings = _correlation_findings(
            ctx.bundle, ctx.query_name, self.top_k, self.min_correlation
        )
        result = BaselineResult(
            module=self.name,
            summary=f"{len(findings)} correlated metrics (top {self.top_k})",
            findings=findings,
        )
        ctx.set_result(result)
        return result


_BASELINE_MODULES = {
    "san-only": SanOnlyModule,
    "db-only": DbOnlyModule,
    "correlation-only": CorrelationOnlyModule,
}


def baseline_pipeline(kind: str, **kwargs) -> DiagnosisPipeline:
    """A one-module pipeline for a silo baseline.

    ``kind`` is one of ``san-only``, ``db-only``, ``correlation-only``;
    ``kwargs`` configure the module (``threshold``, ``top_k``, ...).
    """
    try:
        factory = _BASELINE_MODULES[kind]
    except KeyError:
        raise ValueError(
            f"unknown baseline {kind!r} (choose from {sorted(_BASELINE_MODULES)})"
        ) from None
    return DiagnosisPipeline([factory(**kwargs)])


def baseline_findings(
    kind: str, bundle: DiagnosisBundle, query_name: str, **module_kwargs
) -> list[BaselineFinding]:
    """What the ``kind`` silo tool reports for ``query_name``.

    Runs :func:`baseline_pipeline` and returns its module's findings.  A
    pipeline needs both satisfactory and unsatisfactory runs; without them
    the SAN- and DB-only tools report nothing, while pure correlation
    (which needs only >= 3 labelled runs) computes its findings directly.
    """
    pipeline = baseline_pipeline(kind, **module_kwargs)
    sat, unsat = _labelled_runs(bundle, query_name)
    if sat and unsat:
        report = pipeline.diagnose(bundle, query_name)
        return report.context.result(pipeline.order[0]).findings
    if kind == "correlation-only":
        module = pipeline.module(pipeline.order[0])
        return _correlation_findings(
            bundle, query_name, module.top_k, module.min_correlation
        )
    return []
