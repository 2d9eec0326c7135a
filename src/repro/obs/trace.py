"""Simulation-aware tracing: lightweight spans over both clocks.

A *span* brackets one unit of work — an environment's advance chunk, a
diagnosis-pipeline module run, a storage append, a correlation watermark
advance — and records **both** clocks: the simulated time the work belongs
to (``sim_t``, supplied by the instrument site) and the wall-clock duration
it actually took (measured through :func:`repro.obs.clock.wall_clock`, the
tree's one allowlisted monotonic read).  Spans nest through a
:class:`contextvars.ContextVar`, so the current span follows ``async``
task switches for free; :func:`wrap_task` carries it across the one place
context does *not* flow automatically — the thread hop into
:class:`repro.runtime.WorkerPool` — so a pipeline run on a pool thread is
parented under the supervisor iteration that submitted it.

Spans are **write-only sidecar data**: finished spans append to the
``traces`` keyspace of whatever sink the process attached (a state dir's
``obs/`` backend under ``repro watch``), and nothing in the simulation,
detection, or checkpoint path ever reads them back — the byte-for-byte
kill/resume guarantee cannot see them.  ``repro trace`` renders the
journal as a table, Chrome trace-event JSON, or a per-iteration critical path
(:mod:`repro.obs.export`).

Zero-cost when disabled: :func:`span` returns a shared no-op object
without touching the tracer, so an instrumented hot loop pays one function
call and one flag check per site.

Usage::

    from repro.obs import span

    with span("advance", env=watched.name, sim_t=watched.advanced_s):
        detections = await scheduler.call(watched.advance, step)
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator

from .clock import is_enabled, wall_clock

__all__ = [
    "Span",
    "Tracer",
    "span",
    "current_span",
    "context",
    "wrap_task",
    "tracer",
]

#: The innermost open span of the current task/thread (context-local).
_current: ContextVar["Span | None"] = ContextVar("repro_obs_span", default=None)

#: Process-wide span id source.  Deterministic (a counter, never wall time
#: or randomness) so trace journals are stable artifacts of execution order.
_ids = itertools.count(1)


class _NoopSpan:
    """Shared do-nothing span returned while observability is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def annotate(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class Span:
    """One bracketed unit of work; use as a context manager only.

    (The ``obs-discipline`` lint checker enforces the ``with`` form — a
    manually opened span that is never closed would hold the context for
    the rest of the task and misparent every later span.)
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "sim_t",
        "attrs",
        "wall_start",
        "wall_end",
        "_token",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        *,
        sim_t: float | None = None,
        parent: "Span | None" = None,
        **attrs: Any,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = f"s{next(_ids)}"
        self.parent_id = parent.span_id if parent is not None else None
        self.trace_id = parent.trace_id if parent is not None else self.span_id
        # Simulated time inherits from the parent when the site has no
        # better anchor (a storage append during an advance belongs to the
        # advance's simulated instant).
        if sim_t is None and parent is not None:
            sim_t = parent.sim_t
        self.sim_t = sim_t
        self.attrs = attrs
        self.wall_start = 0.0
        self.wall_end = 0.0
        self._token = None

    @property
    def wall_dur(self) -> float:
        return max(0.0, self.wall_end - self.wall_start)

    def annotate(self, **attrs: Any) -> "Span":
        """Attach attributes discovered mid-span (e.g. a result count)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._token = _current.set(self)
        self.wall_start = wall_clock()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.wall_end = wall_clock()
        if self._token is not None:
            _current.reset(self._token)
            self._token = None
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)

    def to_record(self) -> dict:
        """The journal form: a storage record on the simulated timeline."""
        record: dict = {
            "t": self.sim_t if self.sim_t is not None else 0.0,
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "wall_start": self.wall_start,
            "wall_dur": self.wall_dur,
        }
        env = self.attrs.get("env")
        if env is not None:
            record["k"] = env
        if self.parent_id is not None:
            record["parent_id"] = self.parent_id
        extra = {k: v for k, v in self.attrs.items() if k != "env"}
        if extra:
            record["attrs"] = extra
        return record


class Tracer:
    """Process-wide span factory and journal writer.

    Finished spans append to the attached sink's ``traces`` keyspace, if
    any; the tracer keeps nothing in memory.  Aggregation is
    :mod:`repro.obs.export`'s job, over the journal.
    """

    def __init__(self) -> None:
        self._sink: Any | None = None
        self._keyspace: str | None = None

    # -- span construction ----------------------------------------------
    def span(self, name: str, *, sim_t: float | None = None, **attrs: Any) -> Span:
        return Span(self, name, sim_t=sim_t, parent=_current.get(), **attrs)

    def _finish(self, span: Span) -> None:
        sink = self._sink
        if sink is not None:
            sink.append(self._keyspace, span.to_record())

    def ingest(self, records: list[dict]) -> None:
        """Journal already-finished span records (worker-process buffers).

        The cross-process half of tracing: spans opened in pool workers come
        back as journal-form records (pid-scoped ids, parent rebased wall
        starts) and enter the same sidecar keyspace as locally finished
        spans — one coherent trace across backends.
        """
        sink = self._sink
        if sink is not None:
            for record in records:
                sink.append(self._keyspace, record)

    # -- sink -------------------------------------------------------------
    def set_sink(self, backend: Any | None, *, keyspace: str | None = None) -> None:
        """Attach (or detach, with None) the journal backend for spans."""
        if backend is None:
            self._sink = None
            self._keyspace = None
            return
        if keyspace is None:
            from ..storage import keyspaces as _keyspaces  # lazy: keep obs import-light

            keyspace = _keyspaces.TRACES
        self._keyspace = keyspace
        self._sink = backend

    @property
    def sink(self) -> Any | None:
        return self._sink


_tracer = Tracer()


def tracer() -> Tracer:
    """The process-wide tracer (one per process, like the metrics registry)."""
    return _tracer


def span(name: str, *, sim_t: float | None = None, **attrs: Any):
    """Open a span (context manager).  No-op unless observability is on.

    ``sim_t`` anchors the span on the simulated timeline; ``env=`` becomes
    the journal record's routing key; other keywords become attributes.
    """
    if not is_enabled():
        return _NOOP
    return _tracer.span(name, sim_t=sim_t, **attrs)


def current_span() -> Span | None:
    """The innermost open span of this task/thread, if any."""
    return _current.get()


@contextmanager
def context(parent: Span | None) -> Iterator[None]:
    """Install ``parent`` as the current span (cross-thread hand-off)."""
    token = _current.set(parent)
    try:
        yield
    finally:
        _current.reset(token)


def wrap_task(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Carry the caller's current span across a worker-pool thread hop.

    contextvars flow into asyncio tasks automatically but **not** into
    executor threads; :meth:`repro.runtime.WorkerPool.submit` wraps every
    task through here so span parentage survives the hop.  Returns ``fn``
    unchanged when observability is off or no span is open — the common
    case stays allocation-free.
    """
    if not is_enabled():
        return fn
    parent = _current.get()
    if parent is None:
        return fn

    def task(*args: Any, **kwargs: Any) -> Any:
        with context(parent):
            return fn(*args, **kwargs)

    return task
