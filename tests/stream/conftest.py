"""Seeded schedule perturbation for the supervisor equivalence suites.

A fleet's incident history must not depend on how the runtime interleaves
its members.  :class:`PerturbedPool` turns the interleaving into a test
input: it is a :class:`~repro.runtime.WorkerPool` that sleeps a
``random.Random(seed)`` draw of 0-4 ms before each task it runs.  Every
``Scheduler.call`` hop (advances, drill-downs, checkpoint writes) and every
diagnosis goes through ``submit``, so a seed fixes one schedule and any
schedule that breaks a history can be replayed from its seed.
"""

from __future__ import annotations

import functools
import random
import time

from repro.runtime import WorkerPool

#: Upper bound of the per-task delay, in seconds.
MAX_DELAY_S = 0.004


class PerturbedPool(WorkerPool):
    """A worker pool that delays every submitted task by a seeded amount."""

    def __init__(self, seed: int, max_workers: int = 1) -> None:
        super().__init__(max_workers)
        self._rng = random.Random(seed)

    def submit(self, fn, /, *args, **kwargs):
        delay = self._rng.uniform(0.0, MAX_DELAY_S)

        @functools.wraps(fn)  # keep the task's name for spans and timeouts
        def delayed(*a, **kw):
            time.sleep(delay)
            return fn(*a, **kw)

        return super().submit(delayed, *args, **kwargs)
