"""The observability wall clock and the subsystem's master switch.

This module is the **one** place in the tree allowed to read a monotonic
wall clock.  Everything the simulation does runs on simulated time — the
determinism lint (:mod:`repro.devtools.lint`) bans wall-clock reads in
simulation-facing packages, and the ``obs-discipline`` checker bans calls
to :func:`wall_clock` anywhere outside ``repro/obs/`` — so instrumented
code measures wall durations exclusively through the span/metric helpers,
which funnel through here.  That keeps the allowlist auditable: one module,
one function, and a byte-for-byte reproducible simulation on either side
of it.

The master switch lives here too (the lowest layer of ``repro.obs``, so
:mod:`repro.obs.trace` and :mod:`repro.obs.metrics` can both import it
without cycles): observability is **off by default** and zero-cost when
off — every public helper checks :func:`is_enabled` first and returns a
shared no-op.  Turn it on per process with :func:`enable` (what ``repro
watch --stats`` does), or per environment with ``REPRO_OBS=1``.
"""

from __future__ import annotations

import os
import time

__all__ = ["wall_clock", "is_enabled", "enable", "disable", "reset"]

_ENV_FLAG = "REPRO_OBS"

_forced: bool | None = None


def wall_clock() -> float:
    """Monotonic wall seconds (the tree's only sanctioned wall-clock read).

    Spans and ``timed()`` histograms subtract two of these; the absolute
    value is meaningless across processes and never enters a simulation,
    a detector, or a checkpoint.
    """
    return time.perf_counter()


def is_enabled() -> bool:
    """True when tracing + metrics are collecting.

    Forced state (:func:`enable`/:func:`disable`) wins; otherwise the
    ``REPRO_OBS`` environment variable opts in.
    """
    if _forced is not None:
        return _forced
    return os.environ.get(_ENV_FLAG, "") not in ("", "0", "false")


def enable() -> None:
    """Force observability on for this process (``watch --stats``, tests)."""
    global _forced
    _forced = True


def disable() -> None:
    """Force observability off, overriding the environment (tests)."""
    global _forced
    _forced = False


def reset() -> None:
    """Drop any forced state; the environment variables decide again."""
    global _forced
    _forced = None
