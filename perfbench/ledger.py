"""Outside-in layer ledger: wall time attributed to the ``repro.*`` layers.

The ledger times calls into each layer's public functions by replacing the
function on its class or module with a thin wrapper, from this directory,
so nothing under ``src/`` changes.  For every traced name it keeps the call
count, busy time (wall time inside the function, counted once when it
recurses) and self time (busy time minus the time spent in traced child
calls on the same thread).  Spans are kept in memory up to a cap and
written out when the benchmark ends; the intervals of top-level spans are
always kept, so the timed wall time no span covers can be computed.

Python's collector is timed through ``gc.callbacks``: pauses of every
generation are summed, and generation-2 collections are counted.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import threading
import time
from array import array
from pathlib import Path

#: Traced name -> (module, class or None, attribute).  Module functions that
#: other modules import by name are listed once per importing module, all
#: under the same traced name.
TARGETS: dict[str, list[tuple[str, str | None, str]]] = {
    "lab.advance": [("repro.lab.environment", "Environment", "advance")],
    "db.execute": [("repro.db.executor", "Executor", "execute")],
    "san.simulate": [("repro.san.iomodel", "IoSimulator", "simulate")],
    "monitor.append_many": [("repro.monitor.timeseries", "MetricStore", "append_many")],
    "monitor.series": [("repro.monitor.timeseries", "MetricStore", "series")],
    "monitor.values_between": [("repro.monitor.timeseries", "MetricStore", "values_between")],
    "monitor.window_mean": [("repro.monitor.timeseries", "MetricStore", "window_mean")],
    "core.diagnose": [("repro.core.pipeline", "DiagnosisPipeline", "diagnose")],
    "core.PD": [("repro.core.modules.plan_diff", "PlanDiffModule", "run")],
    "core.CO": [("repro.core.modules.correlated_operators", "CorrelatedOperatorsModule", "run")],
    "core.CR": [("repro.core.modules.record_counts", "RecordCountsModule", "run")],
    "core.DA": [("repro.core.modules.dependency_analysis", "DependencyAnalysisModule", "run")],
    "core.SD": [("repro.core.modules.symptoms_db", "SymptomsDatabaseModule", "run")],
    "core.IA": [("repro.core.modules.impact", "ImpactAnalysisModule", "run")],
    "stream.detect": [("repro.stream.detectors", "DetectorBank", "observe")],
    "stream.incidents": [("repro.stream.incidents", "IncidentManager", "observe")],
    "stream.eventlog": [("repro.stream.eventlog", "FleetEventLog", "append")],
    "stream.resume": [("repro.stream.supervisor", "FleetSupervisor", "resume")],
    "correlate.observe": [("repro.correlate.engine", "CorrelationEngine", "observe")],
    "correlate.drill_down": [("repro.correlate.diagnosis", None, "diagnose_fleet_incident")],
    "storage.append_many": [("repro.storage.jsonl", "JsonlBackend", "append_many")],
    "storage.flush": [("repro.storage.jsonl", "JsonlBackend", "flush")],
    "storage.atomic_write": [
        ("repro.storage.backend", None, "atomic_write_json"),
        ("repro.storage.jsonl", None, "atomic_write_json"),
        ("repro.stream.supervisor", None, "atomic_write_json"),
        ("repro.serve.app", None, "atomic_write_json"),
        ("repro.serve.tenants", None, "atomic_write_json"),
    ],
    "storage.incident_history": [("repro.stream.incidents", "IncidentStore", "history")],
    "storage.fleet_history": [("repro.correlate.engine", "FleetIncidentStore", "history")],
}


class Ledger:
    """Per-name call counts, busy and self time, kept per thread."""

    def __init__(self, clock=time.perf_counter, span_limit: int = 100_000) -> None:
        self.clock = clock
        self.span_limit = span_limit
        self.spans: list[tuple[str, int, float, float]] = []
        self.dropped_spans = 0
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_started: float | None = None
        self._local = threading.local()
        self._threads: list[tuple[int, dict, array]] = []
        # Re-entrant: a signal handler may snapshot while this thread holds it.
        self._threads_lock = threading.RLock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # stack of [name, start, child_s]; per-name stats; top-level spans
            state = ([], {}, array("d"), threading.get_ident())
            self._local.state = state
            with self._threads_lock:
                self._threads.append((state[3], state[1], state[2]))
        return state

    def enter(self, name: str) -> list:
        stack = self._state()[0]
        frame = [name, self.clock(), 0.0]
        stack.append(frame)
        return frame

    def leave(self, frame: list) -> None:
        end = self.clock()
        stack, stats, top, tid = self._state()
        stack.pop()
        name, start, child_s = frame
        duration = end - start
        entry = stats.get(name)
        if entry is None:
            entry = stats[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[2] += duration - child_s
        if stack:
            stack[-1][2] += duration
            if not any(f[0] == name for f in stack):
                entry[1] += duration
        else:
            entry[1] += duration
            top.append(start)
            top.append(end)
        if len(self.spans) < self.span_limit:
            self.spans.append((name, tid, start, end))
        else:
            self.dropped_spans += 1

    def wrap(self, func, name: str):
        enter, leave = self.enter, self.leave

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = self.clock()
        elif self._gc_started is not None:
            self.gc_pause_s += self.clock() - self._gc_started
            self._gc_started = None
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    # -- installation --------------------------------------------------------
    def install(self, targets: dict = TARGETS) -> None:
        """Wrap every target and hook the garbage collector."""
        for name, sites in targets.items():
            for module_name, class_name, attr in sites:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                original = owner.__dict__[attr] if class_name else getattr(owner, attr)
                setattr(owner, attr, self.wrap(original, name))
                self._patches.append((owner, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- reading -------------------------------------------------------------
    def snapshot(self) -> dict:
        """Merged ``{name: [calls, busy_s, self_s]}`` plus GC counters."""
        merged: dict[str, list] = {}
        with self._threads_lock:
            threads = list(self._threads)
        for _tid, stats, _top in threads:
            for name, (calls, busy, self_s) in list(stats.items()):
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += busy
                entry[2] += self_s
        return {"layers": merged, "gc_pause_s": self.gc_pause_s, "gc_gen2": self.gc_gen2}

    def top_level_intervals(self) -> list[tuple[float, float]]:
        with self._threads_lock:
            threads = list(self._threads)
        out = []
        for _tid, _stats, top in threads:
            flat = list(top)
            out.extend(zip(flat[0::2], flat[1::2]))
        return out

    def write_spans(self, path: Path) -> None:
        """Write the kept spans as JSON lines (name, thread, start, end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, tid, start, end in self.spans:
                out.write(json.dumps({"name": name, "thread": tid, "start": start, "end": end}))
                out.write("\n")


def covered_s(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def diff(after: dict, before: dict) -> dict:
    """Ledger snapshot ``after`` minus ``before`` (the calls in between)."""
    layers = {}
    for name, (calls, busy, self_s) in after["layers"].items():
        b = before["layers"].get(name, [0, 0.0, 0.0])
        layers[name] = [calls - b[0], busy - b[1], self_s - b[2]]
    return {
        "layers": layers,
        "gc_pause_s": after["gc_pause_s"] - before["gc_pause_s"],
        "gc_gen2": after["gc_gen2"] - before["gc_gen2"],
    }


def total(snapshots: list[dict]) -> dict:
    """The sum of ledger snapshots, such as one per server process."""
    layers: dict[str, list] = {}
    for snapshot in snapshots:
        for name, (calls, busy, self_s) in snapshot["layers"].items():
            entry = layers.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += busy
            entry[2] += self_s
    return {
        "layers": layers,
        "gc_pause_s": sum(s["gc_pause_s"] for s in snapshots),
        "gc_gen2": sum(s["gc_gen2"] for s in snapshots),
    }


def layer_metrics(snapshot: dict) -> dict[str, float]:
    """Flatten a snapshot into ``<layer>.<fn>.calls|busy_s|self_s`` metrics."""
    out: dict[str, float] = {}
    for name in TARGETS:
        calls, busy, self_s = snapshot["layers"].get(name, [0, 0.0, 0.0])
        out[f"{name}.calls"] = calls
        out[f"{name}.busy_s"] = busy
        out[f"{name}.self_s"] = self_s
    out["py.gc.gen2"] = snapshot["gc_gen2"]
    out["py.gc.pause_s"] = snapshot["gc_pause_s"]
    return out
