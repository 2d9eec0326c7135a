"""The Annotated Plan Graph (APG) — the paper's central data structure.

An APG ties together, for one query:

* the **plan** (operator tree) with per-execution operator annotations
  (start/stop times, estimated vs actual record counts),
* the **SAN layer**: every component on any operator's inner or outer
  dependency path, annotated with the monitoring data collected during each
  execution's ``[tb, te]`` window,
* the **configuration**: which tablespace/volume each leaf reads, and the
  events/config changes in force.

APGs are *views on the monitoring data* — they hold references into the
stores and materialise annotations on demand, which is what makes them cheap
enough for production-style usage (the paper stresses APGs come from
light-weight monitoring that is already collected).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..db.catalog import Catalog
from ..db.executor import QueryRun
from ..db.plans import PlanOperator
from ..lab.environment import DiagnosisBundle
from ..monitor.timeseries import MetricStore
from ..san.topology import SanTopology
from .dependency import DependencyPaths, compute_dependency_paths

__all__ = ["AnnotatedPlanGraph", "OperatorAnnotation", "build_apg"]

#: Metrics surfaced per SAN component type when annotating operators.
COMPONENT_METRICS = {
    "volume": ["readIO", "writeIO", "readTime", "writeTime", "totalIOs"],
    "disk": ["iops", "utilisation", "latency"],
    "pool": ["totalIOs", "avgLatency", "maxUtilisation"],
    "subsystem": ["totalIOs", "cacheHitRate"],
    "switch": ["bytesTransmitted", "bytesReceived", "errorFrames"],
    "server": ["cpuUsagePct", "physicalMemoryUsagePct"],
    "hba": ["bytesTransferred"],
    "fc_port": ["bytesTransferred"],
}

#: Database-level metrics annotated on the pseudo-component "db".
DB_METRICS = ["blocksRead", "bufferHits", "locksHeld", "lockWaitTime", "planRunningTime"]


@dataclass(frozen=True)
class OperatorAnnotation:
    """The APG annotation of one operator for one execution."""

    op_id: str
    run_id: str
    start: float
    stop: float
    estimated_rows: float
    actual_rows: float
    component_metrics: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def running_time(self) -> float:
        return self.stop - self.start


@dataclass
class AnnotatedPlanGraph:
    """APG for one query: plan + dependency paths + annotation accessors."""

    query_name: str
    plan: PlanOperator
    catalog: Catalog
    topology: SanTopology
    server_id: str
    runs: list[QueryRun]
    metric_store: MetricStore
    dependency: dict[str, DependencyPaths] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.dependency:
            self.dependency = compute_dependency_paths(
                self.plan, self.catalog, self.topology, self.server_id
            )

    # -- structure ---------------------------------------------------------
    @property
    def operator_count(self) -> int:
        return self.plan.size

    @property
    def leaf_count(self) -> int:
        return len(self.plan.leaves())

    def component_ids(self) -> set[str]:
        out: set[str] = set()
        for paths in self.dependency.values():
            out |= paths.all_components
        return out

    def inner_path(self, op_id: str) -> frozenset[str]:
        return self.dependency[op_id].inner

    def outer_path(self, op_id: str) -> frozenset[str]:
        return self.dependency[op_id].outer

    def volume_of_operator(self, op_id: str) -> str | None:
        op = self.plan.find(op_id)
        if op.table is None:
            return None
        return self.catalog.volume_of_table(op.table)

    def leaves_on_volume(self, volume_id: str) -> list[str]:
        return [
            op.op_id
            for op in self.plan.leaves()
            if op.table and self.catalog.volume_of_table(op.table) == volume_id
        ]

    def volumes_used(self) -> set[str]:
        return {
            self.catalog.volume_of_table(op.table)
            for op in self.plan.leaves()
            if op.table
        }

    # -- annotations ---------------------------------------------------------
    def annotate(self, op_id: str, run: QueryRun) -> OperatorAnnotation:
        """Materialise the APG annotation of one operator for one run:
        performance data of every dependency-path component over [tb, te]."""
        rt = run.operators[op_id]
        metrics: dict[str, dict[str, float]] = {}
        for component_id in sorted(self.dependency[op_id].all_components):
            values = self._component_window(component_id, rt.start, rt.stop)
            if values:
                metrics[component_id] = values
        return OperatorAnnotation(
            op_id=op_id,
            run_id=run.run_id,
            start=rt.start,
            stop=rt.stop,
            estimated_rows=rt.est_rows,
            actual_rows=rt.actual_rows,
            component_metrics=metrics,
        )

    def _component_window(
        self, component_id: str, start: float, stop: float
    ) -> dict[str, float]:
        if component_id == "db":
            names = DB_METRICS
        else:
            try:
                ctype = self.topology.get(component_id).ctype.value
            except Exception:
                return {}
            names = COMPONENT_METRICS.get(ctype, [])
        out = {}
        for metric in names:
            mean = self.metric_store.window_mean(component_id, metric, start, stop)
            if mean is not None:
                out[metric] = mean
        return out

    def operator_times_by_label(self) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        """(satisfactory, unsatisfactory) op_id → per-run inclusive times."""
        sat: dict[str, list[float]] = {}
        unsat: dict[str, list[float]] = {}
        for run in self.runs:
            target = sat if run.satisfactory else unsat
            if run.satisfactory is None:
                continue
            for op_id, t in run.operator_times().items():
                target.setdefault(op_id, []).append(t)
        return sat, unsat


def build_apg(
    bundle: DiagnosisBundle,
    query_name: str,
    plan: PlanOperator | None = None,
    runs: list[QueryRun] | None = None,
) -> AnnotatedPlanGraph:
    """Construct the APG for a query from a diagnosis bundle.

    ``plan`` defaults to the plan of the latest recorded run; ``runs`` to all
    recorded runs executing that same plan (matching the workflow's "same
    plan P involved in good and bad performance" requirement).
    """
    all_runs = bundle.stores.runs.runs(query_name)
    if not all_runs:
        raise ValueError(f"no recorded runs for query {query_name!r}")
    if plan is None:
        plan = all_runs[-1].plan
    signature = plan.signature()
    if runs is None:
        runs = [r for r in all_runs if r.plan_signature == signature]
    return AnnotatedPlanGraph(
        query_name=query_name,
        plan=plan,
        catalog=bundle.catalog,
        topology=bundle.topology,
        server_id=bundle.testbed.db_server_id,
        runs=runs,
        metric_store=bundle.stores.metrics,
    )
