"""Process-backed worker pool: the escape hatch from the GIL.

:class:`~repro.runtime.pools.WorkerPool` overlaps CPU-bound
``Environment.advance`` chunks on threads, which buys latency hiding but not
parallelism — one interpreter still executes every simulation step.
:class:`ProcessWorkerPool` keeps the exact ``WorkerPool`` contract (``submit``
/ ``map_bounded`` / ``stats`` / ``shutdown``) and layers a process substrate
underneath it:

* **Long-lived workers, sticky affinity.**  ``submit_task(name, payload,
  affinity=key)`` routes every payload with the same affinity key to the same
  worker process, so per-environment state (the simulator, detector
  ``_Welford`` accumulators) is hydrated once and stays warm; only compact
  JSON deltas cross the boundary afterwards.
* **Serializer-based handoff.**  Payloads and results are JSON documents —
  the task registry is a dotted import path resolved *inside* the worker
  (``"repro.stream.worker:advance_env"``), so nothing is pickled except
  plain strings.  A payload that does not survive ``json.dumps`` (a lambda,
  a live object graph) fails fast in :meth:`~ProcessWorkerPool.submit_task`
  with :class:`ProcpoolPayloadError`; the process-backend suites drive every
  ``submit_task`` call site, so such a payload fails them.
* **Thread front, process back.**  ``submit``/``map_bounded`` keep running
  arbitrary callables on the inherited thread executor; those dispatch
  threads block on worker results, releasing the GIL, so the supervisor's
  driving loops are unchanged while the actual simulation work lands in
  worker processes.

Workers default to the ``fork`` start method (``REPRO_POOL_START``
overrides), start lazily on the first ``submit_task``, and are reaped by
``shutdown``; a worker that dies mid-task fails the in-flight futures routed
to it instead of hanging the dispatcher.  A forked worker drops the signal
handlers it inherits (``repro serve`` installs asyncio ones), so SIGTERM
ends it.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import queue as stdlib_queue
import signal
import threading
import traceback
from concurrent.futures import Future
from typing import Any, Callable

from ..obs import worker as obs_worker
from .pools import WorkerPool, _default_workers

__all__ = ["ProcessWorkerPool", "ProcpoolPayloadError", "default_processes"]

#: Reserved envelope keys: when observability is on, the parent wraps the
#: payload as ``{"__obs__": <span context>, "payload": ...}`` and the worker
#: wraps its result as ``{"__obs__": <span buffer + metrics>, "result": ...}``.
#: With observability off nothing is wrapped, so the wire bytes — and the
#: byte-for-byte kill/resume guarantee — are untouched.
_OBS_KEY = "__obs__"

#: The dotted task ``collect_obs`` broadcasts to drain worker buffers.
_OBS_FLUSH_TASK = "repro.obs.worker:flush_task"


class ProcpoolPayloadError(TypeError):
    """A task payload (or result) did not survive JSON serialization."""


def default_processes() -> int:
    return max(1, os.cpu_count() or 1)


# -- worker side ------------------------------------------------------------

_TASK_CACHE: dict[str, Callable[[dict], dict]] = {}


def _resolve_task(name: str) -> Callable[[dict], dict]:
    """Import ``"package.module:function"`` once per worker process."""
    fn = _TASK_CACHE.get(name)
    if fn is None:
        module_name, sep, attr = name.partition(":")
        if not sep or not module_name or not attr:
            raise ValueError(f"task name must look like 'pkg.mod:fn', got {name!r}")
        fn = getattr(importlib.import_module(module_name), attr)
        _TASK_CACHE[name] = fn
    return fn


def _worker_main(worker_id: int, tasks: Any, results: Any) -> None:
    """Worker-process loop: pull (seq, task, payload) triples until sentinel.

    Every outcome — result or failure — is reported back as a JSON string;
    the traceback rides along on failures so the parent-side exception names
    the worker-side frame, not just "task failed".
    """
    # A forked worker inherits the parent's handlers; an asyncio one would
    # swallow the SIGTERM that ``terminate()`` and interpreter exit send.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    while True:
        item = tasks.get()
        if item is None:
            break
        seq, task_name, payload_json = item
        try:
            fn = _resolve_task(task_name)
            payload = json.loads(payload_json)
            obs_ctx = None
            if isinstance(payload, dict) and _OBS_KEY in payload:
                obs_ctx = payload[_OBS_KEY]
                payload = payload["payload"]
            if obs_ctx is not None:
                with obs_worker.task_scope(obs_ctx, task=task_name):
                    out = fn(payload)
                obs_payload = obs_worker.drain()
                if obs_payload is not None:
                    out = {_OBS_KEY: obs_payload, "result": out}
            else:
                out = fn(payload)
            try:
                body = json.dumps(out)
            except TypeError as exc:
                raise ProcpoolPayloadError(
                    f"result of task {task_name!r} is not JSON-able: {exc}"
                ) from None
            results.put((seq, True, body))
        except BaseException as exc:  # noqa: BLE001 - report, never kill the loop
            detail = (
                f"worker {worker_id} task {task_name!r} failed: "
                f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
            )
            results.put((seq, False, detail))


# -- parent side ------------------------------------------------------------


class _Worker:
    """Parent-side record of one worker process and its routing stats."""

    __slots__ = ("index", "process", "tasks", "affinity_keys", "tasks_routed", "handoff_bytes")

    def __init__(self, index: int, process: Any, tasks: Any) -> None:
        self.index = index
        self.process = process
        self.tasks = tasks
        self.affinity_keys = 0
        self.tasks_routed = 0
        self.handoff_bytes = 0


class ProcessWorkerPool(WorkerPool):
    """A ``WorkerPool`` whose real work executes in long-lived processes.

    The thread executor inherited from :class:`WorkerPool` serves two jobs:
    plain ``submit``/``map_bounded`` callables run on it directly (supervisor
    driving loops, diagnosis waves over remote requests), and those threads
    are what block on cross-process results — the GIL is released while a
    worker process simulates, which is where the parallelism comes from.
    Workers never submit back into the thread pool, so a full thread front
    blocked on worker results cannot deadlock.
    """

    backend = "process"

    def __init__(
        self,
        processes: int | None = None,
        *,
        max_workers: int | None = None,
        start_method: str | None = None,
        thread_name_prefix: str = "repro-procpool",
    ) -> None:
        self.processes = processes or default_processes()
        if self.processes < 1:
            raise ValueError("processes must be at least 1")
        super().__init__(
            max_workers=max_workers or max(_default_workers(), 2 * self.processes),
            thread_name_prefix=thread_name_prefix,
        )
        self.start_method = (
            start_method or os.environ.get("REPRO_POOL_START") or "fork"
        )
        self._ctx = multiprocessing.get_context(self.start_method)
        self._proc_lock = threading.Lock()
        # guarded-by: _proc_lock
        self._procs: list[_Worker] = []
        # guarded-by: _proc_lock
        self._affinity: dict[str, int] = {}
        # guarded-by: _proc_lock
        self._rr = 0
        # guarded-by: _proc_lock
        self._seq = 0
        # guarded-by: _proc_lock
        self._inflight: dict[int, tuple[Future, int]] = {}
        # guarded-by: _proc_lock
        self._started = False
        self._results: Any = None
        self._dispatcher: threading.Thread | None = None

    # -- worker lifecycle ------------------------------------------------
    def _ensure_started(self) -> None:
        with self._proc_lock:
            if self._started:
                return
            self._results = self._ctx.Queue()
            for index in range(self.processes):
                tasks = self._ctx.Queue()
                process = self._ctx.Process(
                    target=_worker_main,
                    args=(index, tasks, self._results),
                    name=f"repro-procpool-{index}",
                    daemon=True,
                )
                process.start()
                self._procs.append(_Worker(index, process, tasks))
            self._dispatcher = threading.Thread(
                target=self._dispatch_results,
                name="repro-procpool-dispatch",
                daemon=True,
            )
            self._dispatcher.start()
            self._started = True

    def _dispatch_results(self) -> None:
        """Single parent thread resolving futures from the shared result queue."""
        while True:
            try:
                item = self._results.get(timeout=0.5)
            except stdlib_queue.Empty:
                if self._closed:
                    break
                self._reap_dead()
                continue
            if item is None:
                break
            seq, ok, body = item
            with self._proc_lock:
                entry = self._inflight.pop(seq, None)
            if entry is None:
                continue
            future, worker_idx = entry
            if ok:
                try:
                    result = json.loads(body)
                except Exception as exc:  # malformed body: fail loud, keep looping
                    future.set_exception(
                        ProcpoolPayloadError(f"result decode failed: {exc}")
                    )
                    continue
                if isinstance(result, dict) and _OBS_KEY in result:
                    try:
                        obs_worker.ingest(result.get(_OBS_KEY), worker=worker_idx)
                    except Exception:  # noqa: BLE001 - obs must never fail a task
                        pass
                    result = result.get("result")
                future.set_result(result)
            else:
                future.set_exception(RuntimeError(body))

    def _reap_dead(self) -> None:
        """Fail futures routed to workers that died without reporting back."""
        with self._proc_lock:
            dead = {
                worker.index
                for worker in self._procs
                if worker.process.pid is not None and not worker.process.is_alive()
            }
            if not dead:
                return
            orphaned = [
                (seq, future, idx)
                for seq, (future, idx) in self._inflight.items()
                if idx in dead
            ]
            for seq, _future, _idx in orphaned:
                self._inflight.pop(seq, None)
        for _seq, future, idx in orphaned:
            worker = self._procs[idx]
            future.set_exception(
                RuntimeError(
                    f"procpool worker {idx} (pid {worker.process.pid}) died with "
                    f"exit code {worker.process.exitcode} before returning a result"
                )
            )

    # -- task submission -------------------------------------------------
    def submit_task(
        self, task: str, payload: dict, *, affinity: str | None = None
    ) -> "Future[Any]":
        """Run registered task ``task`` in a worker process; returns a Future.

        ``task`` is a dotted import path (``"repro.stream.worker:advance_env"``)
        resolved inside the worker; ``payload`` must be a JSON document.  The
        future resolves to the task's decoded JSON result.  The first sight of
        an affinity key pins it to the worker owning the fewest keys (lowest
        index wins ties) — deterministic for a fixed registration order — and
        every later submit with that key lands on the same worker.
        """
        if self._closed:
            raise RuntimeError("worker pool is shut down")
        obs_ctx = obs_worker.context_payload()
        if obs_ctx is not None:
            if affinity is not None:
                obs_ctx["affinity"] = affinity
            envelope: Any = {_OBS_KEY: obs_ctx, "payload": payload}
        else:
            envelope = payload
        try:
            body = json.dumps(envelope)
        except TypeError as exc:
            raise ProcpoolPayloadError(
                f"payload for task {task!r} is not JSON-able ({exc}); build "
                "payloads from plain dicts via the storage serializers, never "
                "live object graphs"
            ) from None
        self._ensure_started()
        future: "Future[Any]" = Future()
        future.set_running_or_notify_cancel()
        with self._proc_lock:
            if affinity is None:
                index = self._rr % self.processes
                self._rr += 1
            else:
                index = self._affinity.get(affinity, -1)
                if index < 0:
                    index = min(
                        range(self.processes),
                        key=lambda i: (self._procs[i].affinity_keys, i),
                    )
                    self._affinity[affinity] = index
                    self._procs[index].affinity_keys += 1
            seq = self._seq
            self._seq += 1
            self._inflight[seq] = (future, index)
            worker = self._procs[index]
            worker.tasks_routed += 1
            worker.handoff_bytes += len(body)
        worker.tasks.put((seq, task, body))
        return future

    def run_task(
        self, task: str, payload: dict, *, affinity: str | None = None
    ) -> Any:
        """Blocking convenience wrapper over :meth:`submit_task`."""
        return self.submit_task(task, payload, affinity=affinity).result()

    # -- observability collection -----------------------------------------
    def collect_obs(self, timeout: float = 5.0) -> int:
        """Drain every live worker's span buffer + registry into the parent.

        The bounded periodic flush of cross-process tracing: broadcasts the
        obs flush task to each worker (piggy-backed buffers cover the common
        path; this catches spans stranded by failed tasks and refreshes the
        ``worker.<pid>.*`` metrics between task returns).  Called from the
        supervisor's sidecar-snapshot cadence and at quiesce.  Returns the
        number of spans merged; a worker that fails to answer within
        ``timeout`` is skipped, never raised.
        """
        pending: list[tuple[int, Future]] = []
        with self._proc_lock:
            if not self._started or self._closed:
                return 0
            for worker in self._procs:
                if not worker.process.is_alive():
                    continue
                future: "Future[Any]" = Future()
                future.set_running_or_notify_cancel()
                seq = self._seq
                self._seq += 1
                self._inflight[seq] = (future, worker.index)
                worker.tasks_routed += 1
                worker.tasks.put((seq, _OBS_FLUSH_TASK, "{}"))
                pending.append((worker.index, future))
        merged = 0
        for index, future in pending:
            try:
                payload = future.result(timeout=timeout)
            except Exception:  # noqa: BLE001 - a dead/slow worker skips its flush
                continue
            try:
                merged += obs_worker.ingest(payload or None, worker=index)
            except Exception:  # noqa: BLE001 - obs must never fail the caller
                continue
        return merged

    # -- stats -----------------------------------------------------------
    def stats(self) -> dict:
        """Thread-front counters plus per-worker process routing stats."""
        base = super().stats()
        base["backend"] = self.backend
        with self._proc_lock:
            base["processes"] = self.processes
            base["start_method"] = self.start_method
            base["affinity_keys"] = len(self._affinity)
            base["workers"] = [
                {
                    "worker": worker.index,
                    "pid": worker.process.pid if self._started else None,
                    "alive": bool(self._started and worker.process.is_alive()),
                    "affinity_keys": worker.affinity_keys,
                    "tasks_routed": worker.tasks_routed,
                    "handoff_bytes": worker.handoff_bytes,
                }
                for worker in self._procs
            ] or [
                {
                    "worker": index,
                    "pid": None,
                    "alive": False,
                    "affinity_keys": 0,
                    "tasks_routed": 0,
                    "handoff_bytes": 0,
                }
                for index in range(self.processes)
            ]
        return base

    # -- lifecycle -------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        with self._proc_lock:
            already_closed = self._closed
            started = self._started
            procs = list(self._procs)
        if not already_closed and started:
            for worker in procs:
                try:
                    worker.tasks.put(None)
                except (OSError, ValueError):
                    pass
            if wait:
                for worker in procs:
                    worker.process.join(timeout=5.0)
            for worker in procs:
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=1.0)
            # Fail anything still in flight so dispatch threads blocked on
            # .result() unwind before the thread executor joins below.
            with self._proc_lock:
                orphaned = list(self._inflight.values())
                self._inflight.clear()
            for future, index in orphaned:
                future.set_exception(
                    RuntimeError(f"procpool shut down with task in flight on worker {index}")
                )
            if self._results is not None:
                try:
                    self._results.put(None)
                except (OSError, ValueError):
                    pass
            if self._dispatcher is not None:
                self._dispatcher.join(timeout=5.0)
        super().shutdown(wait=wait)
