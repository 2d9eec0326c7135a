"""Real-workload benchmark for repro: the ``diagnose``, ``watch`` and
``serve`` workloads, with an outside-in layer ledger.

    python3 perfbench/run.py --workload diagnose --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Prints each metric by name, unit and
sample count, the exact counts, the workload's inputs and its output
checks; the last line is one JSON object for tools.  ``--trace 1`` runs the
workload untraced and then traced, and reports the per-layer ledger, the
tracing overhead and the timed wall time no traced span covers.  Exits 1
when an output check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The metrics every workload reports with ``--trace 0``, with the value a
#: run reports when it could not measure one: the worst possible.
END_TO_END = {
    "setup_s": ("s", sys.float_info.max),
    "sim_h_per_s": ("env-h/s", 0.0),
    "latency_ms": ("ms", sys.float_info.max),
    "ok_share": ("ratio", 0.0),
    "peak_rss_mb": ("MB", sys.float_info.max),
}

#: Workload-specific end-to-end metrics, printed by name.
NAMED = {
    "diagnose": ("setup_s", "diag_p50_s", "latency_ms", "sim_h_per_s", "accuracy", "ok_share", "peak_rss_mb"),
    "watch": ("setup_s", "sim_h_per_s", "resume_s", "accuracy", "ok_share", "peak_rss_mb"),
    "serve": ("setup_s", "sim_h_per_s", "rest_p50_ms", "rest_tail_ms", "ok_share", "peak_rss_mb"),
}

#: Which end-to-end metric each traced layer should move, and where.
MOVES = {
    "lab": "sim_h_per_s, resume_s (watch); setup_s (diagnose)",
    "db": "sim_h_per_s, resume_s (watch); setup_s (diagnose)",
    "san": "sim_h_per_s, resume_s (watch); setup_s (diagnose)",
    "monitor.append_many": "sim_h_per_s, resume_s (watch); setup_s (diagnose)",
    "monitor": "diag_p50_s (diagnose); sim_h_per_s (watch)",
    "core": "diag_p50_s (diagnose); sim_h_per_s (watch)",
    "stream": "sim_h_per_s, resume_s (watch)",
    "correlate": "sim_h_per_s, resume_s (watch)",
    "storage.incident_history": "rest_p50_ms, rest_tail_ms (serve)",
    "storage.fleet_history": "rest_p50_ms, rest_tail_ms (serve)",
    "storage": "sim_h_per_s (watch)",
}

#: Wall-time metrics present on every workload (the rest are counts).
LAYER_TIMES = (
    "lab.advance.busy_s",
    "lab.advance.self_s",
    "db.execute.self_s",
    "san.simulate.self_s",
    "monitor.append_many.self_s",
    "py.gc.pause_s",
    "trace.uncovered_s",
)


def moves(name: str) -> str:
    for prefix in sorted(MOVES, key=len, reverse=True):
        if name == prefix or name.startswith(prefix + "."):
            return MOVES[prefix]
    return ""


def per_layer_names() -> list[str]:
    from ledger import TARGETS

    return [f"{name}.calls" for name in TARGETS] + ["py.gc.gen2", *LAYER_TIMES, "trace.overhead_pct"]


# ---------------------------------------------------------------------------
def make_inputs(workload: str, seed: int, seconds: int) -> dict:
    import inputs

    if workload == "diagnose":
        return inputs.diagnose_inputs(seed, seconds)
    if workload == "watch":
        return inputs.watch_inputs(seed, seconds)
    return inputs.serve_inputs(seed, seconds)


def run_pass(workload: str, inputs: dict, work: Path, *, traced: bool = False, check: bool = True):
    """One pass of a workload.  Traced, the in-process workloads run under a
    ledger that is snapshotted before the output checks, and ``serve``
    starts its measured server under a ledger of its own."""
    work.mkdir(parents=True, exist_ok=True)
    spans = HERE / ".work" / f"trace-{workload}-{inputs['seed']}.spans.jsonl"
    if workload == "serve":
        from serve import run_serve

        ledger_out = spans.with_suffix("").with_suffix(".json") if traced else None
        return run_serve(inputs, work, ledger_out=ledger_out, check=check)

    from ledger import Ledger
    from workloads import run_diagnose, run_watch

    ledger = Ledger() if traced else None
    if ledger is not None:
        ledger.install()
    try:
        if workload == "diagnose":
            return run_diagnose(inputs, check=check, ledger=ledger)
        return run_watch(inputs, work, check=check, ledger=ledger)
    finally:
        if ledger is not None:
            ledger.uninstall()
            ledger.write_spans(spans)


def ledger_metrics(result, untraced) -> tuple[dict, dict]:
    """Per-layer metrics of a traced pass, plus a printable layer table."""
    import ledger as ledger_mod

    if result.workload == "serve":
        servers = result.notes["server_ledgers"]
        snapshot = ledger_mod.total(
            [ledger_mod.diff(s["marks"]["end"]["snapshot"], s["marks"]["start"]["snapshot"]) for s in servers]
        )
        intervals = [interval for s in servers for interval in s["intervals"]]
        timed = [(s["marks"]["start"]["t"], s["marks"]["end"]["t"]) for s in servers]
    else:
        snapshot = result.notes["ledger"]
        intervals = result.notes["ledger_intervals"]
        timed = result.timed
    metrics = ledger_mod.layer_metrics(snapshot)
    timed_s = sum(hi - lo for lo, hi in timed)
    covered = sum(ledger_mod.covered_s(intervals, lo, hi) for lo, hi in timed)
    metrics["trace.uncovered_s"] = timed_s - covered
    if "latency_ms" in result.metrics and "latency_ms" in untraced.metrics:
        traced_latency = result.metrics["latency_ms"]["value"]
        untraced_latency = untraced.metrics["latency_ms"]["value"]
        metrics["trace.overhead_pct"] = 100.0 * (traced_latency - untraced_latency) / untraced_latency
    else:
        metrics["trace.overhead_pct"] = 0.0
    result.notes["timed_s"] = timed_s
    return metrics, snapshot


# ---------------------------------------------------------------------------
def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def report(result, *, label: str = "") -> None:
    print(f"== {result.workload}{label}")
    print(f"{'metric':<16} {'value':>14} {'unit':<8} {'n':>5}")
    for name in NAMED[result.workload]:
        m = result.metrics.get(name)
        if m is None:
            print(f"{name:<16} {'(none)':>14}")
            continue
        extra = ""
        if name == "rest_tail_ms":
            extra = f"  (p{result.notes['rest_tail_pct']:g})"
        print(f"{name:<16} {fmt(m['value']):>14} {m['unit']:<8} {m['n']:>5}{extra}")
    if result.workload == "serve" and "rest_tail_ms" not in result.metrics:
        print(f"{'rest_tail_ms':<16} {'(none)':>14}  fewer than 10 samples beyond p90")
    counts = " ".join(f"{k}={v}" for k, v in sorted(result.counts.items()))
    print(f"counts: {counts}")
    for key in ("fleet_digest", "open_at_horizon", "sse_events_total", "window_peak_rss_mb",
                "window_sim_h_per_s", "cpus"):
        if key in result.notes:
            print(f"{key}: {json.dumps(result.notes[key], sort_keys=True)}")
    for name, value in result.notes.get("client_layers", {}).items():
        print(f"{name:<30} {fmt(value):>12}")


def layer_report(result, untraced, metrics: dict, snapshot: dict) -> None:
    print(f"== {result.workload}: layer ledger (traced pass)")
    print(f"{'layer':<26} {'calls':>9} {'busy_s':>10} {'self_s':>10}  should move")
    for name, (calls, busy, self_s) in sorted(snapshot["layers"].items()):
        print(f"{name:<26} {calls:>9} {busy:>10.4f} {self_s:>10.4f}  {moves(name)}")
    print(f"py.gc.gen2 {snapshot['gc_gen2']}, py.gc.pause_s {snapshot['gc_pause_s']:.4f} (all workloads)")
    print(f"timed wall {result.notes['timed_s']:.4f} s, not covered by any span {metrics['trace.uncovered_s']:.4f} s")
    print("tracing overhead (traced minus untraced):")
    for name, (unit, _worst) in END_TO_END.items():
        if name in result.metrics and name in untraced.metrics:
            t, u = result.metrics[name]["value"], untraced.metrics[name]["value"]
            print(f"  {name:<14} {fmt(t - u):>12} {unit}")


def e2e_metrics(result) -> dict:
    out = {}
    for name, (unit, worst) in END_TO_END.items():
        value = result.metrics.get(name, {}).get("value", worst)
        out[name] = {"value": value if math.isfinite(value) else worst, "unit": unit}
    return out


def crashed(workload: str, inputs: dict):
    """The result of a pass that raised: one failed operation."""
    from workloads import Result

    result = Result(workload, inputs, attempted=1, failed=1)
    result.failures.append("workload raised:\n" + traceback.format_exc())
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(NAMED))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    inputs = make_inputs(args.workload, args.seed, args.seconds)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"inputs: {json.dumps(inputs, sort_keys=True)}")
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    metrics: dict = {}
    try:
        if args.trace:
            untraced = run_pass(args.workload, inputs, work / "untraced", check=False)
            report(untraced, label=" (untraced pass)")
            gc.collect()
            result = run_pass(args.workload, inputs, work / "traced", traced=True)
            report(result, label=" (traced pass)")
            metrics, snapshot = ledger_metrics(result, untraced)
            layer_report(result, untraced, metrics, snapshot)
        else:
            result = run_pass(args.workload, inputs, work)
            report(result)
    except Exception:  # noqa: BLE001 — reported as a failed run below
        result = crashed(args.workload, inputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.trace:
        out = {name: {"value": metrics.get(name, 0.0), "unit": "s" if name in LAYER_TIMES else "count"}
               for name in per_layer_names()}
        out["trace.overhead_pct"]["unit"] = "%"
    else:
        out = e2e_metrics(result)

    correct = not result.failures
    print("checks: " + ("ok" if correct else "FAILED"))
    for failure in result.failures:
        print(f"  - {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": out,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
