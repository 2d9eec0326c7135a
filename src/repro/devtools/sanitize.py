"""Opt-in runtime lock/determinism sanitizer (``REPRO_SANITIZE=1``).

The static checker (:mod:`repro.devtools.lint`) proves lock discipline
*lexically*; this module checks it *dynamically*, where the interesting
bugs live — the interleavings tier-1 only hits probabilistically.  Three
instruments, all zero-cost when the env var is unset:

* :class:`TrackedLock` (via :func:`track_lock`) — wraps any
  ``threading.Lock``/``RLock``; every acquisition records the per-thread
  held-lock set and feeds a process-wide lock-order graph.  Acquiring B
  while holding A establishes the edge A→B; a later acquisition of A while
  holding B is a **lock-order inversion** (deadlock waiting for the right
  schedule) and is recorded as a violation with both stacks' locations.
* :func:`task_scope` — wraps every :class:`repro.runtime.WorkerPool` task
  when sanitizing, labelling violations with the task that hit them and
  flagging locks still held when a task returns (a leak: the pool thread
  will deadlock some unrelated future task).
* :func:`instrument_guarded` — reads the same ``# guarded-by: <lock>``
  annotations the lint checker enforces (via
  :func:`repro.devtools.lint.guarded_fields_of`) and rebinds the instance's
  class to a checking subclass whose ``__setattr__`` records a violation
  whenever an annotated field is rebound without its lock held.  Container
  mutation in place is the static checker's job; rebinding is the runtime's.

Violations accumulate in a process-wide registry (:func:`violations`);
under ``REPRO_SANITIZE=1`` the test suite's conftest asserts the registry
is empty after every test, so CI turns any recorded violation into a named,
attributed failure instead of a once-a-month flake.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "SanitizerViolation",
    "TrackedLock",
    "is_enabled",
    "enable",
    "disable",
    "track_lock",
    "task_scope",
    "current_task",
    "held_locks",
    "instrument_guarded",
    "violations",
    "reset_violations",
    "recording",
]

_ENV_FLAG = "REPRO_SANITIZE"


@dataclass(frozen=True)
class SanitizerViolation:
    """One recorded violation; ``kind`` is lock-order / lock-leak / unguarded-mutation."""

    kind: str
    message: str
    task: str | None
    location: str

    def render(self) -> str:
        task = f" [task {self.task}]" if self.task else ""
        return f"{self.kind}{task}: {self.message} ({self.location})"


class _Registry:
    """Process-wide sanitizer state: order graph + violations."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        #: (earlier, later) → location string of the acquisition that
        #: established the edge.
        self.order: dict[tuple[str, str], str] = {}
        self.violations: list[SanitizerViolation] = []

    def record(self, kind: str, message: str) -> None:
        violation = SanitizerViolation(
            kind=kind,
            message=message,
            task=current_task(),
            location=_caller_location(),
        )
        with self.lock:
            self.violations.append(violation)


_registry = _Registry()
_local = threading.local()

_forced: bool | None = None


def is_enabled() -> bool:
    """True when sanitizing (``REPRO_SANITIZE=1`` or :func:`enable`)."""
    if _forced is not None:
        return _forced
    return os.environ.get(_ENV_FLAG, "") not in ("", "0", "false")


def enable() -> None:
    """Force the sanitizer on for this process (tests)."""
    global _forced
    _forced = True


def disable() -> None:
    """Force the sanitizer off, overriding the environment (tests)."""
    global _forced
    _forced = False


def _caller_location() -> str:
    """First stack frame outside this module — where the violation happened.

    Walks the raw frames: ``traceback.extract_stack()`` also reads every
    frame's source line, too slow for a call on every tracked acquisition.
    """
    frame = sys._getframe(1)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.endswith("sanitize.py"):
            return f"{filename}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


# ---------------------------------------------------------------------------
# held-lock bookkeeping + ordering graph
# ---------------------------------------------------------------------------


def held_locks() -> tuple[str, ...]:
    """Names of tracked locks the current thread holds, oldest first."""
    return tuple(getattr(_local, "held", ()))


def current_task() -> str | None:
    """Label of the worker-pool task this thread is running, if any."""
    return getattr(_local, "task", None)


class TrackedLock:
    """A named wrapper around a lock that feeds the order graph.

    Reentrant re-acquisition of the same name (RLock style) does not create
    edges; distinct names always do.
    """

    def __init__(self, inner: Any, name: str) -> None:
        self._inner = inner
        self.name = name

    # -- lock protocol ---------------------------------------------------
    def acquire(self, *args: Any, **kwargs: Any) -> bool:
        acquired = self._inner.acquire(*args, **kwargs)
        if acquired:
            self._on_acquire()
        return acquired

    def release(self) -> None:
        self._on_release()
        self._inner.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked() if hasattr(self._inner, "locked") else False

    # -- graph -----------------------------------------------------------
    def _on_acquire(self) -> None:
        held: list[str] | None = getattr(_local, "held", None)
        if held is None:
            held = _local.held = []
        location = _caller_location()
        for earlier in held:
            if earlier == self.name:
                continue  # reentrant
            edge = (earlier, self.name)
            inverse = (self.name, earlier)
            with _registry.lock:
                first_seen = _registry.order.get(inverse)
                _registry.order.setdefault(edge, location)
            if first_seen is not None:
                _registry.record(
                    "lock-order",
                    f"acquired {self.name!r} while holding {earlier!r}, but "
                    f"the opposite order was taken at {first_seen} — "
                    "inversion deadlocks under the right schedule",
                )
        held.append(self.name)

    def _on_release(self) -> None:
        held: list[str] = getattr(_local, "held", [])
        for index in range(len(held) - 1, -1, -1):
            if held[index] == self.name:
                del held[index]
                break


def track_lock(inner: Any, name: str) -> Any:
    """Wrap ``inner`` in a :class:`TrackedLock` when sanitizing, else pass through."""
    if not is_enabled() or isinstance(inner, TrackedLock):
        return inner
    return TrackedLock(inner, name)


@contextmanager
def task_scope(label: str) -> Iterator[None]:
    """Mark the current thread as running one worker-pool task.

    Violations recorded inside are attributed to ``label``; locks still
    held when the task finishes are reported as leaks (the pool thread
    carries them into whatever task runs next).
    """
    previous = getattr(_local, "task", None)
    _local.task = label
    entry_held = held_locks()
    try:
        yield
    finally:
        leaked = [name for name in held_locks() if name not in entry_held]
        if leaked:
            _registry.record(
                "lock-leak",
                f"task finished still holding {', '.join(sorted(leaked))}",
            )
        _local.task = previous


# ---------------------------------------------------------------------------
# guarded-field runtime checks
# ---------------------------------------------------------------------------

_instrumented_classes: dict[type, type] = {}


def _guarded_map_for(cls: type) -> dict[str, str]:
    """Field → lock for ``cls`` from its source annotations (may be empty)."""
    try:
        source = inspect.getsource(inspect.getmodule(cls))
    except (OSError, TypeError):
        return {}
    from .lint import guarded_fields_of

    return guarded_fields_of(source).get(cls.__name__, {})


def instrument_guarded(obj: Any) -> Any:
    """Instrument one object's ``# guarded-by`` fields for runtime checking.

    The object's locks named by annotations are wrapped in
    :class:`TrackedLock` (joining the order graph) and its class is rebound
    to a checking subclass: rebinding an annotated field without the lock
    held records an ``unguarded-mutation`` violation.  No-op (returning the
    object untouched) when the sanitizer is off or the class has no
    annotations.
    """
    if not is_enabled():
        return obj
    cls = type(obj)
    if cls in _instrumented_classes.values():
        return obj  # already instrumented
    guarded = _guarded_map_for(cls)
    if not guarded:
        return obj

    for lock_attr in set(guarded.values()):
        inner = getattr(obj, lock_attr, None)
        if inner is not None and not isinstance(inner, TrackedLock):
            object.__setattr__(
                obj, lock_attr, TrackedLock(inner, f"{cls.__name__}.{lock_attr}")
            )

    checked = _instrumented_classes.get(cls)
    if checked is None:

        def __setattr__(self: Any, name: str, value: Any) -> None:  # noqa: N807
            lock_attr = guarded.get(name)
            if lock_attr is not None:
                lock_name = f"{cls.__name__}.{lock_attr}"
                if lock_name not in held_locks():
                    _registry.record(
                        "unguarded-mutation",
                        f"{cls.__name__}.{name} rebound without holding "
                        f"{lock_attr} (declared `# guarded-by: {lock_attr}`)",
                    )
            super(checked, self).__setattr__(name, value)

        checked = type(f"Sanitized{cls.__name__}", (cls,), {"__setattr__": __setattr__})
        _instrumented_classes[cls] = checked
    object.__setattr__(obj, "__class__", checked)
    return obj


# ---------------------------------------------------------------------------
# inspection / test harness surface
# ---------------------------------------------------------------------------


def violations() -> list[SanitizerViolation]:
    """Snapshot of every violation recorded so far."""
    with _registry.lock:
        return list(_registry.violations)


def reset_violations() -> None:
    """Clear recorded violations and the lock-order graph."""
    with _registry.lock:
        _registry.violations.clear()
        _registry.order.clear()


@contextmanager
def recording() -> Iterator[list[SanitizerViolation]]:
    """Scope with a *fresh* registry; yields the list violations land in.

    Tests that plant deliberate violations use this so the process-wide
    registry (asserted clean after every test under ``REPRO_SANITIZE=1``)
    never sees them.
    """
    global _registry
    previous = _registry
    _registry = _Registry()
    try:
        yield _registry.violations
    finally:
        _registry = previous
