"""Analytical query executor: plans → per-operator timings and record counts.

This substrate plays the role of PostgreSQL in the paper's testbed.  For a
query run it produces exactly the per-operator monitoring data an APG stores
(Section 3): each operator's start time, stop time, and estimated vs actual
record counts — plus the decomposition (CPU / I/O / lock wait) that the
simulator knows but DIADS must *infer*.

Timing model
------------
All simulation times are in **seconds**; SAN latencies arrive in
milliseconds and are converted here.

* Leaf operators read pages.  Sequential scans touch every heap page and pay
  a discounted per-page latency (read-ahead); index scans pay full random
  latency on the pages the buffer cache misses.  The buffer model decides the
  miss rate; the SAN sample decides the per-read latency of the tablespace's
  volume — this is the database→SAN coupling that DIADS diagnoses.
* Interior operators pay CPU per input row (type-specific constants), with an
  ``n log n`` term for sorts.
* Lock waits are sampled from the lock manager per table access.
* Operators execute depth-first with children sequential, so an operator's
  [start, stop] window covers its subtree — the *inclusive* times through
  which a slow leaf propagates upward ("event flooding").
* Every operator's self time receives multiplicative log-normal noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .buffer import BufferModel
from .catalog import Catalog
from .locks import LockManager
from .plans import OpType, PlanOperator

__all__ = ["OperatorRuntime", "QueryRun", "Executor", "SEQ_LATENCY_DISCOUNT"]

#: Sequential reads pay this fraction of the volume's random-read latency.
SEQ_LATENCY_DISCOUNT = 0.3

#: CPU seconds per input row for interior operators.
_CPU_PER_ROW = {
    OpType.HASH_JOIN: 8e-7,
    OpType.MERGE_JOIN: 7e-7,
    OpType.NESTED_LOOP: 3e-7,
    OpType.HASH: 5e-7,
    OpType.SORT: 2e-7,  # multiplied by log2(n)
    OpType.AGGREGATE: 6e-7,
    OpType.GROUP_AGGREGATE: 6e-7,
    OpType.MATERIALIZE: 3e-7,
    OpType.LIMIT: 1e-8,
    OpType.RESULT: 1e-8,
}

#: CPU seconds per scanned row for leaf operators.
_SCAN_CPU_PER_ROW = 5e-7


@dataclass
class OperatorRuntime:
    """Measured execution of one operator during one run."""

    op_id: str
    op_type: OpType
    table: str | None
    volume_id: str | None
    start: float
    stop: float
    actual_rows: float
    est_rows: float
    self_time: float
    inclusive_time: float
    io_time: float = 0.0
    cpu_time: float = 0.0
    lock_wait: float = 0.0
    physical_reads: float = 0.0
    logical_reads: float = 0.0

    @property
    def duration(self) -> float:
        return self.stop - self.start


@dataclass
class QueryRun:
    """One complete execution of a plan — an APG annotation source."""

    run_id: str
    query_name: str
    plan: PlanOperator
    start_time: float
    operators: dict[str, OperatorRuntime] = field(default_factory=dict)
    db_metrics: dict[str, float] = field(default_factory=dict)
    satisfactory: bool | None = None

    @property
    def duration(self) -> float:
        root = self.operators[self.plan.op_id]
        return root.inclusive_time

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    @property
    def plan_signature(self) -> str:
        return self.plan.signature()

    def operator_times(self) -> dict[str, float]:
        """op_id → inclusive running time (the t(Oi) of Module CO)."""
        return {op_id: rt.inclusive_time for op_id, rt in self.operators.items()}

    def record_counts(self) -> dict[str, float]:
        """op_id → actual output record count (Module CR's input)."""
        return {op_id: rt.actual_rows for op_id, rt in self.operators.items()}


@dataclass
class Executor:
    """Analytical executor bound to a catalog, buffer model and lock manager."""

    catalog: Catalog
    buffer: BufferModel = field(default_factory=BufferModel)
    locks: LockManager = field(default_factory=LockManager)
    noise_sigma: float = 0.02

    # ------------------------------------------------------------------
    def execute(
        self,
        plan: PlanOperator,
        at_time: float,
        volume_read_latency_ms: Mapping[str, float],
        data_multipliers: Mapping[str, float] | None = None,
        run_id: str = "run",
        query_name: str = "query",
        rng: np.random.Generator | None = None,
        cpu_multiplier: float = 1.0,
    ) -> QueryRun:
        """Execute ``plan`` starting at simulation time ``at_time``.

        ``volume_read_latency_ms`` maps volume ids to the per-read response
        time the SAN currently delivers; ``data_multipliers`` scales actual
        row counts per table (the data-property-change knob of scenario 3);
        ``cpu_multiplier`` stretches CPU work (server CPU contention).
        """
        if cpu_multiplier <= 0:
            raise ValueError("cpu_multiplier must be positive")
        # Seeded fallback: callers that do not thread an RNG through (the
        # environment always does) still get reproducible noise.
        rng = rng if rng is not None else np.random.default_rng(0)
        mults = dict(data_multipliers or {})
        run = QueryRun(run_id=run_id, query_name=query_name, plan=plan, start_time=at_time)

        def latency_for(table: str) -> float:
            volume = self.catalog.volume_of_table(table)
            return float(volume_read_latency_ms.get(volume, 1.0))

        def noisy(value: float) -> float:
            if value <= 0.0:
                return 0.0
            return value * float(rng.lognormal(mean=0.0, sigma=self.noise_sigma))

        def subtree_multiplier(op: PlanOperator) -> float:
            result = 1.0
            for table in op.tables_used():
                result *= mults.get(table, 1.0)
            return result

        def visit(op: PlanOperator, cursor: float) -> OperatorRuntime:
            start = cursor
            children_time = 0.0
            child_rows = 0.0
            for child in op.children:
                child_rt = visit(child, cursor + children_time)
                children_time += child_rt.inclusive_time
                child_rows += child_rt.actual_rows

            mult = subtree_multiplier(op)
            io_time = 0.0
            cpu_time = 0.0
            lock_wait = 0.0
            physical = 0.0
            logical = 0.0
            volume_id: str | None = None

            if op.is_leaf and op.table:
                table = self.catalog.table(op.table)
                volume_id = self.catalog.volume_of_table(op.table)
                latency_s = latency_for(op.table) / 1000.0
                table_mult = mults.get(op.table, 1.0)
                if op.op_type is OpType.SEQ_SCAN:
                    logical = table.pages * table_mult * op.loops
                    physical = self.buffer.physical_reads(table, logical, hot=False)
                    io_time = physical * latency_s * SEQ_LATENCY_DISCOUNT
                    scanned = table.row_count * table_mult * op.loops
                else:  # INDEX_SCAN
                    index_height = 2.0
                    rows_per_loop = max(op.est_rows * table_mult, 1.0)
                    heap_pages = min(rows_per_loop, float(table.pages))
                    logical = op.loops * (index_height + heap_pages)
                    physical = self.buffer.physical_reads(table, logical, hot=True)
                    io_time = physical * latency_s
                    scanned = rows_per_loop * op.loops
                cpu_time = scanned * _SCAN_CPU_PER_ROW
                lock_wait = self.locks.wait_time_ms(op.table, at_time, rng) / 1000.0
                actual_rows = op.est_rows * op.loops * table_mult
            else:
                per_row = _CPU_PER_ROW.get(op.op_type, 5e-7)
                n = max(child_rows, 1.0)
                if op.op_type is OpType.SORT:
                    cpu_time = n * math.log2(n + 1.0) * per_row
                else:
                    cpu_time = n * per_row
                actual_rows = op.est_rows * mult
                if op.op_type is OpType.LIMIT:
                    actual_rows = min(actual_rows, op.est_rows)

            cpu_time *= cpu_multiplier
            self_time = noisy(io_time + cpu_time) + lock_wait
            inclusive = children_time + self_time
            rt = OperatorRuntime(
                op_id=op.op_id,
                op_type=op.op_type,
                table=op.table,
                volume_id=volume_id,
                start=start,
                stop=start + inclusive,
                actual_rows=actual_rows,
                est_rows=op.est_rows * op.loops if op.is_leaf else op.est_rows,
                self_time=self_time,
                inclusive_time=inclusive,
                io_time=io_time,
                cpu_time=cpu_time,
                lock_wait=lock_wait,
                physical_reads=physical,
                logical_reads=logical,
            )
            run.operators[op.op_id] = rt
            return rt

        visit(plan, at_time)
        run.db_metrics = self._run_metrics(run, at_time)
        return run

    # ------------------------------------------------------------------
    def _run_metrics(self, run: QueryRun, at_time: float) -> dict[str, float]:
        """Database-level metrics for the run (Figure 4's database family)."""
        ops = run.operators.values()
        blocks_read = sum(rt.physical_reads for rt in ops)
        logical = sum(rt.logical_reads for rt in ops)
        return {
            "blocksRead": blocks_read,
            "bufferHits": max(logical - blocks_read, 0.0),
            "seqScans": float(sum(1 for rt in ops if rt.op_type is OpType.SEQ_SCAN)),
            "indexScans": float(sum(1 for rt in ops if rt.op_type is OpType.INDEX_SCAN)),
            "indexReads": sum(rt.physical_reads for rt in ops if rt.op_type is OpType.INDEX_SCAN),
            "indexFetches": sum(rt.actual_rows for rt in ops if rt.op_type is OpType.INDEX_SCAN),
            "locksHeld": float(self.locks.locks_held(at_time)),
            "lockWaitTime": sum(rt.lock_wait for rt in ops),
            "cpuTime": sum(rt.cpu_time for rt in ops),
            "planRunningTime": run.duration,
        }

    # ------------------------------------------------------------------
    def estimate_volume_load(
        self,
        plan: PlanOperator,
        duration_s: float,
        data_multipliers: Mapping[str, float] | None = None,
    ) -> dict[str, "VolumeLoadLike"]:
        """The read load (IOPS) a run of ``plan`` offers to each volume.

        Used by the environment to close the loop: the query's own I/O
        contributes to disk utilisation alongside any external workloads.
        Returns plain dicts (converted to ``VolumeLoad`` by the caller to
        avoid an import cycle with :mod:`repro.san`).
        """
        duration_s = max(duration_s, 1.0)
        mults = dict(data_multipliers or {})
        reads: dict[str, float] = {}
        seq_reads: dict[str, float] = {}
        for op in plan.leaves():
            if not op.table:
                continue
            table = self.catalog.table(op.table)
            volume = self.catalog.volume_of_table(op.table)
            table_mult = mults.get(op.table, 1.0)
            if op.op_type is OpType.SEQ_SCAN:
                physical = self.buffer.physical_reads(
                    table, table.pages * table_mult * op.loops, hot=False
                )
                seq_reads[volume] = seq_reads.get(volume, 0.0) + physical
            else:
                rows_per_loop = max(op.est_rows * table_mult, 1.0)
                heap_pages = min(rows_per_loop, float(table.pages))
                physical = self.buffer.physical_reads(
                    table, op.loops * (2.0 + heap_pages), hot=True
                )
            reads[volume] = reads.get(volume, 0.0) + physical
        loads: dict[str, dict] = {}
        for volume, total in reads.items():
            seq = seq_reads.get(volume, 0.0)
            loads[volume] = {
                "read_iops": total / duration_s,
                "write_iops": 0.0,
                "sequential_fraction": min(seq / total, 1.0) if total > 0 else 0.0,
            }
        return loads


#: Loose structural type for estimate_volume_load results.
VolumeLoadLike = dict
