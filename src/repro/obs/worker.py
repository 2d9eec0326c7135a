"""Cross-process observability: the worker half of distributed tracing.

:class:`~repro.runtime.procpool.ProcessWorkerPool` runs advance/diagnose/
bundle work in worker processes, where the parent's span ``ContextVar`` and
process-wide registry do not exist.  This module carries observability
across that seam in both directions:

* **Outbound** (parent side): :func:`context_payload` serialises the active
  span context — trace id, parent span id, simulated instant — into a small
  JSON document the pool tucks into the task envelope.  Nothing is sent
  while observability is off, so the obs-off wire bytes are unchanged.
* **Worker side**: :func:`task_scope` installs the incoming context and
  opens a root ``worker.task`` span; :func:`worker_span` opens buffered
  child spans under it.  Worker spans never block the task path and never
  touch a sidecar — they append to a bounded in-process buffer with
  pid-scoped span ids (``w<pid>s<n>``, collision-free against the parent's
  ``s<n>`` counter).  The ``obs-discipline`` lint checker enforces that
  worker-side modules emit spans *only* through this API.
* **Inbound** (parent side): the buffer — plus a periodic registry dump —
  ships back piggy-backed on task results (and through the bounded
  :func:`flush_task`); :func:`ingest` merges spans into the parent tracer's
  sidecar with worker pid annotations and folds metrics into the parent
  registry under ``worker.<pid>.*``.  Ingest deduplicates by span id, so
  merging the same buffer twice (piggy-back racing a flush, a resumed
  parent re-collecting) is idempotent.

Worker wall clocks are not comparable across processes (``perf_counter``
origins differ), so drained spans carry their *age* relative to the drain
instant and the parent rebases them onto its own clock at ingest — the
rendered timeline is coherent to within one result-queue hop.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

from . import metrics as obs_metrics
from . import trace as obs_trace
from .clock import enable as _obs_enable
from .clock import is_enabled, wall_clock

__all__ = [
    "context_payload",
    "task_scope",
    "worker_span",
    "drain",
    "flush_task",
    "ingest",
    "reset",
]

#: Incoming task context: ``{"trace_id", "span_id", "sim_t", "affinity"}``
#: (any key may be absent).  ``None`` means the envelope carried no context
#: and worker spans stay inert.
_ctx: ContextVar[dict | None] = ContextVar("repro_obs_worker_ctx", default=None)

#: The innermost open *worker* span of the current task.
_wcurrent: ContextVar["_WorkerSpan | None"] = ContextVar(
    "repro_obs_worker_span", default=None
)

#: Per-process worker span id source; combined with the pid at record time
#: (``w<pid>s<n>``) so ids never collide with the parent or other workers.
_wids = itertools.count(1)

#: Bounded span buffer: one task's spans normally drain with its result;
#: the cap only matters for failed tasks, whose spans wait for the next
#: drain or periodic flush.
_BUFFER_LIMIT = 4096

#: Piggy-back a full registry dump on every Nth drain (the periodic flush
#: always includes one) — span freshness per task, metric freshness bounded.
_METRICS_EVERY = 8

_buffer_lock = threading.Lock()
_buffer: list[dict] = []
_dropped = 0
_drains = 0

#: Parent-side dedup of already-merged worker span ids (bounded LRU).
_SEEN_LIMIT = 8192
_ingest_lock = threading.Lock()
_seen: "OrderedDict[str, None]" = OrderedDict()


# -- parent side: outbound context ------------------------------------------


def context_payload() -> dict | None:
    """Serialise the active span context for a procpool task envelope.

    Returns ``None`` while observability is off — the pool then ships the
    raw payload, byte-identical to an obs-off run.  With observability on
    but no open span, an empty context still rides along so the worker
    activates its buffered instruments.
    """
    if not is_enabled():
        return None
    parent = obs_trace.current_span()
    if parent is None:
        return {}
    ctx: dict = {"trace_id": parent.trace_id, "span_id": parent.span_id}
    if parent.sim_t is not None:
        ctx["sim_t"] = parent.sim_t
    return ctx


# -- worker side: buffered spans ---------------------------------------------


class _WorkerSpan:
    """A buffered span: records into the worker buffer, never a sidecar."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "sim_t",
        "attrs",
        "wall_start",
        "_token",
    )

    def __init__(self, name: str, *, sim_t: float | None = None, **attrs: Any) -> None:
        self.name = name
        self.span_id = f"w{os.getpid()}s{next(_wids)}"
        parent = _wcurrent.get()
        if parent is not None:
            self.parent_id = parent.span_id
            self.trace_id = parent.trace_id
            if sim_t is None:
                sim_t = parent.sim_t
        else:
            ctx = _ctx.get() or {}
            self.parent_id = ctx.get("span_id")
            self.trace_id = ctx.get("trace_id") or self.span_id
            if sim_t is None:
                sim_t = ctx.get("sim_t")
        self.sim_t = sim_t
        self.attrs = {k: v for k, v in attrs.items() if v is not None}
        self.wall_start = 0.0
        self._token = None

    def annotate(self, **attrs: Any) -> "_WorkerSpan":
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_WorkerSpan":
        self._token = _wcurrent.set(self)
        self.wall_start = wall_clock()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        wall_end = wall_clock()
        if self._token is not None:
            _wcurrent.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        record: dict = {
            "t": self.sim_t if self.sim_t is not None else 0.0,
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "wall_start": self.wall_start,
            "wall_dur": max(0.0, wall_end - self.wall_start),
        }
        env = self.attrs.get("env")
        if env is not None:
            record["k"] = env
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        extra = {k: v for k, v in self.attrs.items() if k != "env"}
        if extra:
            record["attrs"] = extra
        global _dropped
        with _buffer_lock:
            if len(_buffer) >= _BUFFER_LIMIT:
                _dropped += 1
            else:
                _buffer.append(record)


def worker_span(name: str, *, sim_t: float | None = None, **attrs: Any):
    """Open a buffered worker span; inert without an installed task context.

    The worker-side counterpart of :func:`repro.obs.trace.span`: same
    ``with`` discipline, but finished spans land in the process-local
    buffer for the parent to merge — never in a sink.
    """
    if _ctx.get() is None:
        return obs_trace._NOOP
    return _WorkerSpan(name, sim_t=sim_t, **attrs)


@contextmanager
def task_scope(ctx: dict | None, *, task: str | None = None) -> Iterator[Any]:
    """Install an incoming task context and bracket the task in a root span.

    The pool's worker loop wraps every context-carrying task through here.
    The first context a worker sees also switches its process-local
    observability on, so registry instruments (counters/timers in task
    bodies) record regardless of the pool start method.
    """
    if ctx is None:
        yield None
        return
    if not is_enabled():
        _obs_enable()
    token = _ctx.set(ctx)
    try:
        root = _WorkerSpan("worker.task", task=task, affinity=ctx.get("affinity"))
        with root:
            yield root
    finally:
        _ctx.reset(token)


def drain(*, include_metrics: bool | None = None) -> dict | None:
    """Swap the span buffer out and package it for the return path.

    Spans carry ``rel_start`` — their age at drain time — instead of a raw
    ``wall_start``, since worker and parent monotonic clocks share no
    origin.  Every :data:`_METRICS_EVERY`-th drain (and every explicit
    flush) attaches a full registry dump.  Returns ``None`` when there is
    nothing to ship, so the result envelope stays untouched.
    """
    global _dropped, _drains
    with _buffer_lock:
        spans = _buffer[:]
        _buffer.clear()
        dropped, _dropped = _dropped, 0
        _drains += 1
        nth = _drains
    if include_metrics is None:
        include_metrics = nth % _METRICS_EVERY == 1
    now = wall_clock()
    for record in spans:
        record["rel_start"] = max(0.0, now - record.pop("wall_start", now))
    payload: dict = {"pid": os.getpid(), "spans": spans}
    if dropped:
        payload["dropped"] = dropped
    if include_metrics and is_enabled():
        payload["metrics"] = obs_metrics.registry().snapshot()
    if not spans and "metrics" not in payload:
        return None
    return payload


# -- procpool tasks ----------------------------------------------------------


def flush_task(payload: dict) -> dict:
    """Procpool task: drain this worker's obs buffer (bounded periodic flush).

    Dispatched to every worker by ``ProcessWorkerPool.collect_obs`` so spans
    and metrics stranded by failed tasks (or quiet periods) still reach the
    parent sidecar.  Returns the drain payload directly — or ``{}``.
    """
    return drain(include_metrics=True) or {}


# -- parent side: inbound merge ----------------------------------------------


def ingest(payload: dict | None, *, worker: int | None = None) -> int:
    """Merge one worker obs payload into the parent tracer and registry.

    Spans are rebased onto the parent clock (``rel_start`` ages against
    "now"), annotated with the worker pid (and parent-side worker index),
    deduplicated by span id, and appended through the tracer — so they land
    in the same sidecar keyspace as parent spans.  Metrics dumps fold under
    ``worker.<pid>.*`` plus ``workers.*`` fleet aggregates.  Returns the
    number of spans merged; never raises into the task path.
    """
    if not payload:
        return 0
    pid = payload.get("pid")
    spans = payload.get("spans") or []
    fresh: list[dict] = []
    with _ingest_lock:
        for record in spans:
            span_id = record.get("span_id")
            if span_id is None or span_id in _seen:
                continue
            _seen[span_id] = None
            while len(_seen) > _SEEN_LIMIT:
                _seen.popitem(last=False)
            fresh.append(record)
    if fresh:
        now = wall_clock()
        rebased = []
        for record in fresh:
            record = dict(record)
            age = record.pop("rel_start", 0.0)
            record["wall_start"] = max(0.0, now - float(age))
            attrs = dict(record.get("attrs") or {})
            if pid is not None:
                attrs.setdefault("pid", pid)
            if worker is not None:
                attrs.setdefault("worker", worker)
            if attrs:
                record["attrs"] = attrs
            rebased.append(record)
        obs_trace.tracer().ingest(rebased)
    dropped = payload.get("dropped")
    if dropped:
        obs_metrics.registry().counter("obs.worker_spans_dropped").inc(float(dropped))
    dump = payload.get("metrics")
    if dump and pid is not None:
        obs_metrics.registry().fold_worker(pid, dump)
    return len(fresh)


def reset() -> None:
    """Drop worker buffers and the parent-side dedup state (tests)."""
    global _dropped, _drains
    with _buffer_lock:
        _buffer.clear()
        _dropped = 0
        _drains = 0
    with _ingest_lock:
        _seen.clear()
