"""The in-process workloads, ``diagnose`` and ``watch``, and their checks.

Each workload function takes its generated inputs and an optional
:class:`~ledger.Ledger` (installed by the caller for a traced pass; it is
snapshotted before the output checks) and returns a :class:`Result`: named
metrics with units and sample counts, exact counts, output-check failures
and the timed wall intervals.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from ledger import diff


#: Watch set-up samples per run; set-up time is their median.  A fleet
#: builds in a few milliseconds, so each sample times several builds.
BUILD_SAMPLES = 11
BUILDS_PER_SAMPLE = 10


@dataclass
class Result:
    workload: str
    inputs: dict
    #: name -> {"value", "unit", "n"}; ``n`` is the sample count.
    metrics: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Wall intervals (perf_counter) of the timed operations.
    timed: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.metrics[name] = {"value": value, "unit": unit, "n": n}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def attempt(self, label: str, work, *args):
        """Time one operation.  Returns ``(value, seconds)``, or None when it
        raised: the failure is then counted and reported."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            value = work(*args)
        except Exception as exc:  # noqa: BLE001 — counted, reported, run goes on
            self.failed += 1
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        ended = time.perf_counter()
        self.timed.append((start, ended))
        return value, ended - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def one_cpu():
    """Run the calling thread, and every thread it starts, on one CPU.

    The program's threads take turns at the interpreter lock.  Spread over
    two virtual CPUs, every handover wakes the other one, and what that
    costs follows the host's load, not the program.  Single-threaded work
    is better left unpinned: the kernel can then move it off a virtual CPU
    the host is slowing.  Yields the CPU."""
    affinity = os.sched_getaffinity(0)
    cpu = min(affinity)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, affinity)


def note_ledger(result: Result, ledger) -> None:
    if ledger is not None:
        result.notes["ledger"] = ledger.snapshot()
        result.notes["ledger_intervals"] = ledger.top_level_intervals()


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fleet_digest(history: list[dict]) -> str:
    """Digest of a fleet-incident history without its float scores, so it
    compares across processes."""
    projection = [
        {
            "fleet_id": row.get("fleet_id"),
            "component_id": row.get("component_id"),
            "state": row.get("state"),
            "opened_at": row.get("opened_at"),
            "resolved_at": row.get("resolved_at"),
            "members": sorted((m["env"], m["incident_id"]) for m in row.get("members", [])),
            "top_cause": ((row.get("report") or {}).get("causes") or [{}])[0].get("cause_id"),
        }
        for row in history
    ]
    return hashlib.sha256(canonical(projection).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------
def run_diagnose(inputs: dict, *, check: bool = True, ledger=None) -> Result:
    """Per Table-1 environment, in the seed's order: simulate its history,
    append-relabel-diagnose, then release it.  One history at a time keeps
    the heap, and so the collector's share of every figure, the size of one
    environment.  The last environment is checked after the timed work."""
    from repro import DiagnosisPipeline
    from repro.cli import SCENARIOS

    result = Result("diagnose", inputs)
    pipeline = DiagnosisPipeline()
    setup = []
    latencies = []
    correct = 0
    samples = 0
    own = []  # ledger figures of the benchmark's own collections, left out below

    def collect() -> None:
        before = ledger.snapshot() if ledger is not None else None
        gc.collect()
        if ledger is not None:
            own.append(diff(ledger.snapshot(), before))

    for name in inputs["scenarios"]:
        scenario = SCENARIOS[name](hours=inputs["scenario_hours"], seed=inputs["scenario_seed"])
        start = time.perf_counter()
        env = scenario.build()
        env.advance(inputs["history_h"] * 3600.0)
        setup.append(time.perf_counter() - start)
        report = bundle = None
        for _ in range(inputs["ops_per_env"]):
            result.attempted += 1
            # Start every operation from a collected heap, so a collection
            # owed to earlier garbage does not land in it.
            collect()
            start = time.perf_counter()
            try:
                env.advance(inputs["append_s"])
                bundle = env.bundle()
                bundle.stores.runs.label_by_window(
                    scenario.query_name, scenario.info.fault_time, scenario.duration_s + 1.0
                )
                began = time.perf_counter()
                report = pipeline.diagnose(bundle, scenario.query_name)
                ended = time.perf_counter()
            except Exception as exc:  # noqa: BLE001 — counted, reported, run goes on
                result.failed += 1
                result.failures.append(f"op on {name}: {type(exc).__name__}: {exc}")
                report = None
                continue
            result.timed.append((start, ended))
            latencies.append(ended - began)
            top = report.top_cause
            correct += top is not None and top.match.cause_id in scenario.info.ground_truth
        samples += len(env.stores.metrics)
        if name != inputs["checked"]:
            env = bundle = report = None  # the report's context holds the stores

    result.metric("setup_s", statistics.median(setup), "s", len(setup))
    env_hours = inputs["history_h"] * len(setup)
    result.metric("sim_h_per_s", env_hours / sum(setup), "env-h/s", len(setup))
    ok = result.attempted - result.failed
    if latencies:
        result.metric("diag_p50_s", statistics.median(latencies), "s", len(latencies))
        # Every scenario takes the same number of operations, and their
        # diagnoses differ in cost, so the compared figure is the mean: the
        # median would be one diagnosis of the middle-cost scenario.
        result.metric("latency_ms", 1000.0 * statistics.fmean(latencies), "ms", len(latencies))
    result.metric("accuracy", correct / max(ok, 1), "ratio", ok)
    result.metric("ok_share", ok / result.attempted, "ratio", result.attempted)
    result.counts["monitor.samples"] = samples
    result.counts["core.diagnoses"] = len(latencies)
    # Read before the check, whose rebuilt copy would double the peak.
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    note_ledger(result, ledger)
    for cost in own:
        result.notes["ledger"] = diff(result.notes["ledger"], cost)
    if check:
        _check_rebuilt(result, pipeline, inputs["checked"], scenario, env, report)
    return result


def _check_rebuilt(result: Result, pipeline, name: str, scenario, env, report) -> None:
    """Live versus rebuilt: the report over the live stores equals the
    report over stores rebuilt from the bundle's payload."""
    from repro.core.serialize import report_to_dict
    from repro.lab.environment import DiagnosisBundle

    if report is None:
        result.check(False, f"{name}: no live report to compare")
        return
    rebuilt = DiagnosisBundle.from_payload(env.bundle().to_payload())
    again = pipeline.diagnose(rebuilt, scenario.query_name)
    result.check(
        canonical(report_to_dict(report)) == canonical(report_to_dict(again)),
        f"{name}: live report differs from the report over the rebuilt store",
    )


# ---------------------------------------------------------------------------
# watch
# ---------------------------------------------------------------------------
def _incident_projection(incidents) -> list:
    return [
        [
            i.incident_id,
            i.env_name,
            list(i.key),
            i.state.value,
            i.opened_at,
            i.resolved_at,
            i.top_cause_id,
        ]
        for i in incidents
    ]


def _build_fleet(inputs: dict, state_dir: Path):
    from repro import FleetSupervisor
    from repro.correlate import FleetIncidentStore, fabric_shared_pool_saturation

    fabric = fabric_shared_pool_saturation(
        hours=inputs["hours"],
        seed=inputs["fabric_seed"],
        n_envs=inputs["n_envs"],
        attached=inputs["attached"],
    )
    engine = fabric.correlator(
        window_s=inputs["correlation_window_minutes"] * 60.0,
        min_members=inputs["min_members"],
        store=FleetIncidentStore.open(state_dir),
    )
    supervisor = FleetSupervisor(
        chunk_s=inputs["chunk_minutes"] * 60.0,
        cooldown_s=inputs["cooldown_minutes"] * 60.0,
        max_workers=inputs["max_workers"],
        state_dir=state_dir,
        correlator=engine,
        checkpoint_meta={k: inputs[k] for k in ("fabric", "fabric_seed", "hours", "n_envs")},
    )
    fabric.watch_all(supervisor)
    return fabric, engine, supervisor


def _time_builds(inputs: dict, work_dir: Path) -> list[float]:
    """Per-build wall time of :data:`BUILD_SAMPLES` batches of fleet builds."""
    warm = work_dir / "warm-up"
    _build_fleet(inputs, warm)[1].store.close()  # pays for lazy imports
    shutil.rmtree(warm, ignore_errors=True)
    samples = []
    for i in range(BUILD_SAMPLES):
        batch = work_dir / f"builds-{i}"
        start = time.perf_counter()
        for j in range(BUILDS_PER_SAMPLE):
            _build_fleet(inputs, batch / str(j))[1].store.close()
        samples.append((time.perf_counter() - start) / BUILDS_PER_SAMPLE)
        shutil.rmtree(batch, ignore_errors=True)
    return samples


def run_watch(inputs: dict, work_dir: Path, *, check: bool = True, ledger=None) -> Result:
    """Watch the shared-pool fabric with a JSONL state dir, then resume it.
    A failed run or resume is counted, reported and ends the workload."""
    result = Result("watch", inputs)
    builds = _time_builds(inputs, work_dir)
    result.metric("setup_s", statistics.median(builds), "s", len(builds))

    state_dir = work_dir / "state"
    fabric, engine, supervisor = _build_fleet(inputs, state_dir)
    hours = inputs["hours"]
    with one_cpu() as cpu:
        ran = result.attempt("run", supervisor.run, hours * 3600.0)
    result.notes["cpus"] = {"run": cpu}
    if ran is None:
        engine.store.close()
        return _watch_done(result, ledger)
    env_hours = hours * len(supervisor.watched)
    result.metric("sim_h_per_s", env_hours / ran[1], "env-h/s")

    injected = {f"shared-component:{fault.component_id}" for fault in fabric.faults}
    truth = {cause for fault in fabric.faults for cause in fault.ground_truth}
    groups = engine.fleet_incidents()
    member_reports = [
        i for i in supervisor.incidents()
        if i.top_cause_id is not None and not str(i.top_cause_id).startswith("shared-component:")
    ]
    diagnoses = len(groups) + len(member_reports)
    correct = sum(g.top_cause_id in injected for g in groups) + sum(
        i.top_cause_id in truth for i in member_reports
    )
    result.metric("accuracy", correct / max(diagnoses, 1), "ratio", diagnoses)
    history = engine.store.history()
    result.counts["monitor.samples"] = sum(
        len(w.env.stores.metrics) for w in supervisor.watched.values()
    )
    result.counts["stream.opened"] = len(supervisor.incidents())
    result.counts["stream.pipeline_runs"] = len(member_reports)
    result.counts["correlate.fleet_incidents"] = len(groups)
    result.notes["fleet_digest"] = fleet_digest(history)
    projection = _incident_projection(supervisor.incidents())
    correlator_state = canonical(engine.state_dict())
    engine.store.close()
    del supervisor, engine, fabric
    gc.collect()

    # A fresh process would rebuild the same fleet and resume from disk.
    _fabric, engine2, resumed = _build_fleet(inputs, state_dir)
    done = result.attempt("resume", resumed.resume)
    if done is None:
        engine2.store.close()
        return _watch_done(result, ledger)
    covered, seconds = done
    result.metric("resume_s", seconds, "s")
    result.metric("latency_ms", 1000.0 * seconds, "ms")
    _watch_done(result, ledger)
    if check:
        result.check(abs(covered - hours * 3600.0) < 1e-6, f"resume covered {covered} s")
        result.check(
            _incident_projection(resumed.incidents()) == projection,
            "resumed incident projection differs from the run's",
        )
        result.check(
            canonical(engine2.state_dict()) == correlator_state,
            "resumed correlator state differs from the run's",
        )
        reopened = engine2.store.history()
        result.check(canonical(reopened) == canonical(history), "fleet-incident history differs on reopen")
        # A group drills down once the correlator's watermark passes its
        # open time plus the drill-down delay; one opened within that delay
        # of the horizon is still gathering evidence when the watch ends.
        horizon = hours * 3600.0
        for row in history:
            if row["opened_at"] + engine2.drilldown_delay_s <= horizon:
                result.check(
                    row["state"] == "resolved" and bool(row.get("report")),
                    f"fleet incident {row['fleet_id']} ended {row['state']} without a report",
                )
            else:
                result.check(row["state"] == "open", f"fleet incident {row['fleet_id']} "
                             "resolved before its drill-down delay elapsed")
                result.notes["open_at_horizon"] = result.notes.get("open_at_horizon", 0) + 1
    engine2.store.close()
    return result


def _watch_done(result: Result, ledger) -> Result:
    result.metric("ok_share", (result.attempted - result.failed) / result.attempted, "ratio", result.attempted)
    result.metric("peak_rss_mb", peak_rss_mb(), "MB")
    note_ledger(result, ledger)
    return result
