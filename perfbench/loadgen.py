"""Open-loop request generation: requests go out on a fixed schedule.

Request ``i`` is due at ``start + i / rate``.  The generator sends it then,
or as soon as the previous request returns if that is later.  Latency is
timed from the due time, so a stall also counts against every request that
queued behind it; lateness (send time minus due time) shows when the
generator, not the server, fell behind.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Outcome:
    item: Any
    due: float
    sent: float
    done: float
    ok: bool
    result: Any

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def late_s(self) -> float:
        return self.sent - self.due


def run_open_loop(
    items,
    rate_per_s: float,
    send: Callable[[Any], Any],
    *,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Outcome]:
    """Send every item on schedule; ``send`` raises to report a failure."""
    if rate_per_s <= 0:
        raise ValueError("rate_per_s must be positive")
    start = clock()
    outcomes = []
    for i, item in enumerate(items):
        due = start + i / rate_per_s
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        sent = clock()
        try:
            result, ok = send(item), True
        except Exception as exc:  # noqa: BLE001 — a failed request is a result
            result, ok = exc, False
        outcomes.append(Outcome(item, due, sent, clock(), ok, result))
    return outcomes
