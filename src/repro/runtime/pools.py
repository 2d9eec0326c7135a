"""Shared, long-lived worker pools for the execution substrate.

Before the runtime layer existed, every fan-out site (the fleet supervisor,
``DiagnosisPipeline.diagnose_many``, ``repro batch``) spun up a throwaway
:class:`~concurrent.futures.ThreadPoolExecutor` per call — thread churn on
the hot loop and no way to bound *total* concurrency across subsystems.
:class:`WorkerPool` wraps one long-lived executor behind a small surface
(``submit`` / ``map_bounded``), and :func:`shared_pool` hands every caller in
the process the same instance, so the supervisor's advance phases and the
pipeline's diagnosis waves draw from one budget of threads.

:func:`shared_pool` also selects the execution *backend*: ``"threads"`` (this
module), ``"process"`` (:mod:`repro.runtime.procpool`, true parallelism for
CPU-bound simulation), or ``"auto"`` (processes when the host has the cores
to pay for the handoff).  ``REPRO_POOL`` sets the default; ``repro watch`` /
``repro serve`` expose it as ``--pool``.
"""

from __future__ import annotations

import atexit
import itertools
import os
import threading
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import Any, Callable, Iterable, TypeVar

from ..obs import trace as obs_trace

__all__ = [
    "WorkerPool",
    "resolve_pool_backend",
    "shared_pool",
    "reset_shared_pool",
]

POOL_BACKENDS = ("threads", "process", "auto")

T = TypeVar("T")
R = TypeVar("R")


def _default_workers() -> int:
    return min(32, (os.cpu_count() or 4) + 4)


def _scoped_task(fn: Callable[..., R]) -> Callable[..., R]:
    """Wrap a submitted callable in a sanitizer task scope.

    Under ``REPRO_SANITIZE=1`` every pool task runs inside
    :func:`repro.devtools.sanitize.task_scope`, so lock violations are
    attributed to the task that hit them and a task returning with a lock
    still held is flagged as a leak before it can deadlock a later task on
    the same pool thread.
    """
    from ..devtools import sanitize

    label = getattr(fn, "__qualname__", None) or repr(fn)

    def task(*args: Any, **kwargs: Any) -> R:
        with sanitize.task_scope(label):
            return fn(*args, **kwargs)

    return task


class WorkerPool:
    """A long-lived thread pool with bounded fan-out helpers.

    The pool is deliberately dumb: threads, not processes (the workloads are
    numpy-heavy simulation steps and store scans that release the GIL often
    enough), created once and reused for the lifetime of the owner.  The
    interesting part is :meth:`map_bounded`, which keeps at most ``limit``
    items in flight — the primitive ``diagnose_many`` and the supervisor's
    resume fast-forward use instead of constructing executors per call.
    """

    backend = "threads"

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        thread_name_prefix: str = "repro-runtime",
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = max_workers or _default_workers()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix=thread_name_prefix
        )
        self._closed = False
        self._stats_lock = threading.Lock()
        # Every task is in exactly one of {queued, active, completed, failed,
        # cancelled}; transitions are counted where they happen, so the
        # invariant  submitted == queued + active + completed + failed +
        # cancelled  holds at every instant the lock is released.
        # guarded-by: _stats_lock
        self._submitted = 0
        # guarded-by: _stats_lock
        self._queued = 0
        # guarded-by: _stats_lock
        self._active = 0
        # guarded-by: _stats_lock
        self._completed = 0
        # guarded-by: _stats_lock
        self._failed = 0
        # guarded-by: _stats_lock
        self._cancelled = 0

    # -- submission ------------------------------------------------------
    def _counted_task(self, fn: Callable[..., R]) -> Callable[..., R]:
        def task(*args: Any, **kwargs: Any) -> R:
            with self._stats_lock:
                self._queued -= 1
                self._active += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                with self._stats_lock:
                    self._active -= 1
                    self._failed += 1
                raise
            with self._stats_lock:
                self._active -= 1
                self._completed += 1
            return result

        return task

    def _note_done(self, future: "Future[Any]") -> None:
        # A future only cancels while still queued (`Future.cancel` fails once
        # the task starts), so exactly one of this transition or the
        # queued→active one in `_counted_task` fires per task — never both.
        if future.cancelled():
            with self._stats_lock:
                self._queued -= 1
                self._cancelled += 1

    def submit(self, fn: Callable[..., R], /, *args: Any, **kwargs: Any) -> "Future[R]":
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        from ..devtools import sanitize  # dev-only layer; keep off the import path

        if sanitize.is_enabled():
            fn = _scoped_task(fn)
        # Carry the caller's open span across the thread hop (no-op when
        # observability is off), then count the run under the stats lock.
        fn = self._counted_task(obs_trace.wrap_task(fn))
        with self._stats_lock:
            self._submitted += 1
            self._queued += 1
        future = self._executor.submit(fn, *args, **kwargs)
        future.add_done_callback(self._note_done)
        return future

    def stats(self) -> dict:
        """Point-in-time pool counters: queue depth, utilisation, outcomes.

        ``queued`` is work submitted but not yet running (and not resolved by
        cancellation), counted at each transition rather than derived — the
        old ``submitted - active - ...`` arithmetic double-counted a task
        cancelled after submission (clamping to zero hid the drift).
        """
        with self._stats_lock:
            submitted = self._submitted
            queued = self._queued
            active = self._active
            completed = self._completed
            failed = self._failed
            cancelled = self._cancelled
        return {
            "backend": self.backend,
            "max_workers": self.max_workers,
            "submitted": submitted,
            "queued": queued,
            "active": active,
            "completed": completed,
            "failed": failed,
            "cancelled": cancelled,
            "utilisation": active / self.max_workers if self.max_workers else 0.0,
        }

    def map_bounded(
        self,
        fn: Callable[[T], R],
        items: Iterable[T],
        *,
        limit: int | None = None,
    ) -> list[R]:
        """Apply ``fn`` to every item with at most ``limit`` in flight.

        Results come back in item order; the first exception propagates after
        the in-flight work drains.  ``limit`` defaults to the pool width, and
        is clamped to at least 1 so callers may pass a computed 0 (the empty-
        fleet sizing bug this API replaces).
        """
        todo = list(items)
        if not todo:
            return []
        limit = max(1, min(limit or self.max_workers, len(todo)))
        results: list[Any] = [None] * len(todo)
        stream = iter(enumerate(todo))
        in_flight: dict[Future, int] = {
            self.submit(fn, item): idx
            for idx, item in itertools.islice(stream, limit)
        }
        error: BaseException | None = None
        while in_flight:
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            refill = 0
            for future in done:
                idx = in_flight.pop(future)
                exc = future.exception()
                if exc is not None:
                    error = error or exc
                else:
                    results[idx] = future.result()
                refill += 1
            if error is None:
                for idx, item in itertools.islice(stream, refill):
                    in_flight[self.submit(fn, item)] = idx
        if error is not None:
            raise error
        return results

    # -- lifecycle -------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self._executor.shutdown(wait=wait)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


_shared: WorkerPool | None = None
_shared_lock = threading.Lock()


def resolve_pool_backend(
    choice: str | None = None, *, fleet_size: int | None = None
) -> str:
    """Resolve a pool-backend choice to a concrete ``"threads"``/``"process"``.

    Precedence: explicit ``choice`` (CLI flag / API argument), then the
    ``REPRO_POOL`` environment variable, then ``"threads"``.  ``"auto"``
    picks processes only when the host has enough cores (≥ 4) for parallel
    simulation to beat the JSON handoff cost, and — when the fleet size is
    known — enough environments to keep those cores busy.
    """
    choice = choice or os.environ.get("REPRO_POOL", "").strip() or "threads"
    if choice not in POOL_BACKENDS:
        raise ValueError(
            f"unknown pool backend {choice!r} (expected one of {', '.join(POOL_BACKENDS)})"
        )
    if choice == "auto":
        cores = os.cpu_count() or 1
        if cores >= 4 and (fleet_size is None or fleet_size >= cores):
            return "process"
        return "threads"
    return choice


def _make_pool(backend: str) -> WorkerPool:
    if backend == "process":
        from .procpool import ProcessWorkerPool  # lazy: procpool imports pools

        return ProcessWorkerPool(thread_name_prefix="repro-shared")
    return WorkerPool(thread_name_prefix="repro-shared")


def shared_pool(backend: str | None = None) -> WorkerPool:
    """The process-wide pool every runtime consumer shares.

    Created lazily on first use and shut down at interpreter exit; the
    supervisor, the diagnosis pipeline, and the CLI all fan out through this
    single instance instead of constructing executors per call.

    ``backend`` asks for a specific substrate (``"threads"``, ``"process"``,
    or ``"auto"``; see :func:`resolve_pool_backend`).  When the live shared
    pool is of a different kind it is shut down and replaced, so a caller
    that needs processes (``repro watch --pool process``) gets them even if
    an earlier import already touched the default thread pool.  Callers that
    don't care pass nothing and share whatever exists.
    """
    global _shared
    with _shared_lock:
        wanted = resolve_pool_backend(backend) if backend is not None else None
        if (
            _shared is not None
            and not _shared.closed
            and wanted is not None
            and _shared.backend != wanted
        ):
            _shared.shutdown(wait=False)
            _shared = None
        if _shared is None or _shared.closed:
            _shared = _make_pool(wanted or resolve_pool_backend())
            atexit.register(_shared.shutdown, False)
        return _shared


def reset_shared_pool() -> None:
    """Tear down the shared pool (tests); the next caller gets a fresh one."""
    global _shared
    with _shared_lock:
        if _shared is not None:
            _shared.shutdown(wait=False)
            _shared = None
