"""JSON-friendly serialization of APGs and diagnosis reports.

DIADS is a tool in a management pipeline: diagnoses get attached to problem
tickets, APGs get displayed by other frontends.  Everything here produces
plain dict/list/scalar structures (``json.dumps``-able).  Plans and the
other round-tripping state live in :mod:`repro.storage.serializers`.
"""

from __future__ import annotations

from typing import Any

from ..storage.serializers import plan_to_dict
from .apg import AnnotatedPlanGraph
from .workflow import DiagnosisReport

__all__ = ["apg_to_dict", "report_to_dict"]


def apg_to_dict(apg: AnnotatedPlanGraph, include_annotations: bool = False) -> dict[str, Any]:
    """Structural (and optionally annotated) JSON form of an APG."""
    out: dict[str, Any] = {
        "query": apg.query_name,
        "plan": plan_to_dict(apg.plan),
        "operator_count": apg.operator_count,
        "leaf_count": apg.leaf_count,
        "volumes_used": sorted(apg.volumes_used()),
        "dependency": {
            op_id: {
                "inner": sorted(paths.inner),
                "outer": sorted(paths.outer),
            }
            for op_id, paths in sorted(apg.dependency.items())
        },
        "runs": [
            {
                "run_id": run.run_id,
                "start": run.start_time,
                "duration": run.duration,
                "satisfactory": run.satisfactory,
            }
            for run in apg.runs
        ],
    }
    if include_annotations and apg.runs:
        last = apg.runs[-1]
        out["annotations"] = {
            op.op_id: {
                "window": [last.operators[op.op_id].start, last.operators[op.op_id].stop],
                "actual_rows": last.operators[op.op_id].actual_rows,
                "components": apg.annotate(op.op_id, last).component_metrics,
            }
            for op in apg.plan.walk()
            if op.op_id in last.operators
        }
    return out


def report_to_dict(report: DiagnosisReport) -> dict[str, Any]:
    """JSON form of a diagnosis report (the ticket attachment)."""
    ctx = report.context
    sd = ctx.results.get("SD")
    return {
        "query": report.query_name,
        "runs": {
            "satisfactory": len(ctx.sat_runs),
            "unsatisfactory": len(ctx.unsat_runs),
            "onset": ctx.onset,
        },
        "modules": {
            name: result.summary for name, result in sorted(ctx.results.items())
        },
        "skipped": dict(sorted(report.skipped.items())),
        "symptoms": [
            {"sid": s.sid, "time": s.time, "description": s.description}
            for s in (sd.symptoms if sd is not None else [])
        ],
        "causes": [
            {
                "cause_id": rc.match.cause_id,
                "binding": rc.match.binding,
                "confidence": rc.match.confidence.value,
                "score": rc.match.score,
                "impact_pct": rc.impact_pct,
                "description": rc.match.description,
            }
            for rc in report.ranked_causes
        ],
    }
