"""Process-wide metrics registry: counters, gauges, histograms.

The numeric side of ``repro.obs``: where spans answer "where did this iteration's
wall time go", metrics answer "how deep is the pool queue, how many
diagnoses are in flight, how fast are storage appends" — cheap instruments
updated from hot paths and *snapshotted* periodically into the sidecar
``obs_metrics`` keyspace (and rendered live by ``repro watch --stats``).

Three instrument kinds, all lock-guarded per the PR-6 discipline
(``# guarded-by`` annotations, enforced statically by ``repro lint`` and
dynamically by the sanitizer):

* :class:`Counter` — monotonically increasing totals (tasks completed,
  detector fires, bytes written);
* :class:`Gauge` — last-write-wins levels (queue depth, watermark lag,
  in-flight diagnoses, via ``add()`` for up/down tracking);
* :class:`Histogram` — fixed exponential latency buckets with count/sum/
  min/max (scheduler task latency, storage op latency).

One metrics model: :meth:`MetricsRegistry.snapshot` is the only registry
read — raw values, histogram buckets included, mergeable across processes.
Every renderer reads it: Prometheus exposition directly, and ``watch
--stats``, ``GET /metrics`` and the sidecar snapshots through
:func:`json_view`, the pure function that derives per-histogram count/sum/
mean/min/max and bucket-estimated p50/p95.

Call sites use the module-level helpers (:func:`inc`, :func:`set_gauge`,
:func:`add_gauge`, :func:`observe`, :func:`timed`), which check
:func:`repro.obs.clock.is_enabled` first — one flag test per call when the
subsystem is off, no instrument allocation, no locking.  Wall-clock reads
stay inside this module (``timed`` brackets with
:func:`~repro.obs.clock.wall_clock`), keeping instrumented packages clean
under the determinism lint.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from itertools import accumulate
from typing import Any

from .clock import is_enabled, wall_clock

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "json_view",
    "registry",
    "inc",
    "set_gauge",
    "add_gauge",
    "observe",
    "timed",
    "loop_lag_probe",
]

#: Default histogram bucket upper bounds (seconds): half-decade exponential
#: from 100µs to 10s — spans the range from a MemoryBackend append to a
#: straggler diagnosis pipeline.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    def set_total(self, value: float) -> None:
        """Replace the cumulative total — the cross-process fold path only.

        A parent-side mirror of a worker counter tracks the worker's
        *reported* cumulative value (which legitimately restarts from zero
        when the worker does); normal call sites must use :meth:`inc`.
        """
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A last-write-wins level; ``add()`` supports up/down tracking."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self._value += delta

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket latency histogram (seconds): bucket counts plus
    count/sum/min/max, allocation-free and mergeable across processes."""

    __slots__ = ("name", "bounds", "_lock", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(bounds)
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._counts = [0] * (len(self.bounds) + 1)  # +1: overflow bucket
        # guarded-by: _lock
        self._count = 0
        # guarded-by: _lock
        self._sum = 0.0
        # guarded-by: _lock
        self._min = float("inf")
        # guarded-by: _lock
        self._max = 0.0

    def observe(self, value: float) -> None:
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    def dump(self) -> dict:
        """Raw, mergeable state: bucket counts, not derived percentiles."""
        with self._lock:
            return {
                "bounds": list(self.bounds),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max,
            }

    def load(self, state: dict) -> None:
        """Replace this histogram's state with a :meth:`dump` (fold path)."""
        counts = [int(c) for c in state.get("counts") or ()]
        count = int(state.get("count", 0))
        with self._lock:
            if len(counts) == len(self._counts):
                self._counts = counts
            self._count = count
            self._sum = float(state.get("sum", 0.0))
            self._min = float(state.get("min", 0.0)) if count else float("inf")
            self._max = float(state.get("max", 0.0))


class MetricsRegistry:
    """Name → instrument, get-or-create, one per process.

    Instruments are identified by dotted names (``pool.queue_depth``,
    ``storage.jsonl.append_s``); the registry is the single source every
    renderer (``watch --stats``), snapshotter, and query path reads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # guarded-by: _lock
        self._counters: dict[str, Counter] = {}
        # guarded-by: _lock
        self._gauges: dict[str, Gauge] = {}
        # guarded-by: _lock
        self._histograms: dict[str, Histogram] = {}
        self._worker_lock = threading.Lock()
        # guarded-by: _worker_lock
        self._worker_dumps: dict[str, dict] = {}

    # -- get-or-create ---------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters.setdefault(name, Counter(name))
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges.setdefault(name, Gauge(name))
            return instrument

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms.setdefault(name, Histogram(name, bounds))
            return instrument

    # -- snapshotting -----------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able point-in-time raw values of every instrument.

        Histograms keep their bucket counts: this is what workers ship
        across the process boundary and what every renderer reads (see
        :func:`json_view`).
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {
                name: h.dump() for name, h in sorted(histograms.items())
            },
        }

    def fold_worker(self, pid: int | str, dump: dict) -> None:
        """Fold one worker-registry snapshot into this (parent) registry.

        Every worker instrument lands twice: verbatim under
        ``worker.<pid>.<name>`` (cumulative as reported, so re-folding the
        same snapshot is idempotent) and summed across workers under
        ``workers.<name>`` — the fleet-level aggregate ``repro metrics``,
        ``watch --stats``, and the serve endpoints surface.
        """
        if not isinstance(dump, dict):
            return
        prefix = f"worker.{pid}."
        for name, value in (dump.get("counters") or {}).items():
            self.counter(prefix + name).set_total(float(value))
        for name, value in (dump.get("gauges") or {}).items():
            self.gauge(prefix + name).set(float(value))
        for name, state in (dump.get("histograms") or {}).items():
            bounds = tuple(state.get("bounds") or DEFAULT_BUCKETS)
            self.histogram(prefix + name, bounds).load(state)
        with self._worker_lock:
            self._worker_dumps[str(pid)] = dump
            dumps = list(self._worker_dumps.values())
        totals: dict[str, float] = {}
        levels: dict[str, float] = {}
        histograms: dict[str, list[dict]] = {}
        for worker_dump in dumps:
            for name, value in (worker_dump.get("counters") or {}).items():
                totals[name] = totals.get(name, 0.0) + float(value)
            for name, value in (worker_dump.get("gauges") or {}).items():
                levels[name] = levels.get(name, 0.0) + float(value)
            for name, state in (worker_dump.get("histograms") or {}).items():
                histograms.setdefault(name, []).append(state)
        for name, value in totals.items():
            self.counter(f"workers.{name}").set_total(value)
        for name, value in levels.items():
            self.gauge(f"workers.{name}").set(value)
        for name, states in histograms.items():
            merged = _merge_histograms(states)
            self.histogram(f"workers.{name}", tuple(merged["bounds"])).load(merged)

    def snapshot_to(
        self, backend: Any, sim_t: float, *, keyspace: str | None = None
    ) -> dict:
        """Append one :func:`json_view` record (simulated timestamp) to a
        backend."""
        if keyspace is None:
            from ..storage import keyspaces as _keyspaces  # lazy: keep obs import-light

            keyspace = _keyspaces.OBS_METRICS
        view = json_view(self.snapshot())
        backend.append(keyspace, {"t": sim_t, "metrics": view})
        return view

    def reset(self) -> None:
        """Drop every instrument (tests / fresh benchmark legs)."""
        with self._lock:
            self._counters = {}
            self._gauges = {}
            self._histograms = {}
        with self._worker_lock:
            self._worker_dumps = {}


def _merge_histograms(states: list[dict]) -> dict:
    """Sum :meth:`Histogram.dump` states that share their bucket bounds."""
    return {
        "bounds": states[0]["bounds"],
        "counts": [sum(column) for column in zip(*(s["counts"] for s in states))],
        "count": sum(s["count"] for s in states),
        "sum": sum(s["sum"] for s in states),
        "min": min((s["min"] for s in states if s["count"]), default=0.0),
        "max": max(s["max"] for s in states),
    }


def _percentile(state: dict, q: float) -> float:
    """Bucket-estimated quantile: the upper bound of the first bucket whose
    cumulative count reaches the rank, clamped to the observed max."""
    if not state["count"]:
        return 0.0
    i = bisect_left(list(accumulate(state["counts"])), q * state["count"])
    bounds = state["bounds"]
    return min(bounds[i], state["max"]) if i < len(bounds) else state["max"]


def json_view(snapshot: dict) -> dict:
    """The derived view of a :meth:`MetricsRegistry.snapshot`.

    Counters and gauges pass through; each histogram becomes count, sum
    (seconds) and mean/min/max/p50/p95 in milliseconds.  What ``watch
    --stats``, ``watch --json --stats``, ``GET /metrics`` and the sidecar
    snapshots show.
    """
    histograms = {}
    for name, state in snapshot["histograms"].items():
        count, total = state["count"], state["sum"]
        histograms[name] = {
            "count": count,
            "sum_s": total,
            "mean_ms": (total / count * 1000.0) if count else 0.0,
            "min_ms": state["min"] * 1000.0,
            "max_ms": state["max"] * 1000.0,
            "p50_ms": _percentile(state, 0.50) * 1000.0,
            "p95_ms": _percentile(state, 0.95) * 1000.0,
        }
    return {
        "counters": dict(snapshot["counters"]),
        "gauges": dict(snapshot["gauges"]),
        "histograms": histograms,
    }


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry (one per process, like the tracer)."""
    return _registry


# ---------------------------------------------------------------------------
# hot-path helpers: one enabled-flag check, then the instrument op
# ---------------------------------------------------------------------------


def inc(name: str, amount: float = 1.0) -> None:
    """Increment a counter (no-op while observability is off)."""
    if not is_enabled():
        return
    _registry.counter(name).inc(amount)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge level (no-op while observability is off)."""
    if not is_enabled():
        return
    _registry.gauge(name).set(value)


def add_gauge(name: str, delta: float) -> None:
    """Move a gauge up/down (no-op while observability is off)."""
    if not is_enabled():
        return
    _registry.gauge(name).add(delta)


def observe(name: str, value: float) -> None:
    """Record one histogram observation (no-op while observability is off)."""
    if not is_enabled():
        return
    _registry.histogram(name).observe(value)


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_TIMER = _NullTimer()


class _Timer:
    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = wall_clock()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._histogram.observe(max(0.0, wall_clock() - self._start))


def timed(name: str):
    """Context manager recording the block's wall duration to a histogram.

    The wall-clock reads happen *here*, inside ``repro.obs`` — instrumented
    packages never touch the clock themselves, which is what keeps them
    clean under the determinism lint and the ``obs-discipline`` checker.
    """
    if not is_enabled():
        return _NULL_TIMER
    return _Timer(_registry.histogram(name))


async def loop_lag_probe(
    interval_s: float = 0.25,
    *,
    gauge: str = "scheduler.loop_lag_s",
    cycles: int | None = None,
) -> None:
    """Event-loop-lag probe: measure ``asyncio.sleep`` overshoot forever.

    A coroutine the :class:`~repro.runtime.scheduler.Scheduler` spawns when
    observability is on.  Each cycle sleeps ``interval_s`` and records how
    late the loop woke it — the coordination loop's scheduling lag, the
    number that climbs when a blocking call sneaks onto the loop.  Lives in
    ``repro.obs`` so the wall-clock reads stay inside the allowlisted
    package.  ``cycles`` bounds the probe for tests; the default runs until
    the owning loop cancels it.
    """
    import asyncio

    remaining = cycles
    while remaining is None or remaining > 0:
        if remaining is not None:
            remaining -= 1
        start = wall_clock()
        await asyncio.sleep(interval_s)
        lag = max(0.0, (wall_clock() - start) - interval_s)
        if is_enabled():
            _registry.gauge(gauge).set(lag)
            _registry.histogram(f"{gauge}.hist").observe(lag)
