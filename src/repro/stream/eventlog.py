"""Durable fleet event log: the ``run(on_event=...)`` stream, journalled.

PR 4 made the fleet supervisor emit a live event stream, but consuming it
meant living in-process as the ``on_event`` callback.  The
:class:`FleetEventLog` journals every event through the pluggable
:class:`~repro.storage.StorageBackend` contract (keyspace ``fleet_events``),
so external consumers — dashboards, the out-of-process correlation engine
(:meth:`repro.correlate.CorrelationEngine.consume_log`) — can *tail a state
dir* instead:

* each event is wrapped in one record: ``t`` (the event's simulated time),
  ``k`` (the environment it concerns, when it concerns one), ``seq`` (a
  monotone sequence number), ``event`` (the raw fleet event dict);
* append order is replay order (a backend guarantee), and ``seq`` survives
  reopen — a log opened on an existing state dir continues numbering where
  the previous process stopped;
* delivery across a kill/resume is **at least once**: a resumed supervisor
  deterministically re-emits the events of any iteration that ran after the
  last checkpoint, so the same logical event can appear twice with a fresh
  ``seq``.  Consumers that need exactly-once semantics de-duplicate on event
  content (the correlation engine keys on incident ids, which re-simulate
  identically).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Iterator

from ..storage.keyspaces import FLEET_EVENTS

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.backend import StorageBackend

__all__ = ["FleetEventLog"]

#: Event fields consulted (in order) for the record's simulated timestamp.
_TIME_FIELDS = ("clock", "opened_at", "advanced_s")


class FleetEventLog:
    """Append-only journal of fleet supervisor events over a backend."""

    KEYSPACE = FLEET_EVENTS

    def __init__(self, backend: "StorageBackend") -> None:
        self.backend = backend
        self._seq = -1
        self._last_t = 0.0
        #: The record wrapped by the most recent :meth:`append` — lets an
        #: ``on_event`` consumer on the same thread (the SSE broker) recover
        #: the exact journalled record, ``seq`` included, without a re-scan.
        self.last_record: dict | None = None
        for rec in backend.scan(self.KEYSPACE):
            self._seq = max(self._seq, rec.get("seq", -1))
            self._last_t = max(self._last_t, rec.get("t", 0.0))

    @classmethod
    def open(cls, state_dir: str | os.PathLike) -> "FleetEventLog":
        """Open (or create) the journal under ``state_dir/fleet_events``."""
        from pathlib import Path

        from ..storage.jsonl import JsonlBackend

        return cls(JsonlBackend(Path(state_dir) / cls.KEYSPACE))

    # -- writing ---------------------------------------------------------
    def append(self, event: dict) -> dict:
        """Journal one fleet event; returns the wrapped record."""
        t = self._last_t
        for name in _TIME_FIELDS:
            value = event.get(name)
            if isinstance(value, (int, float)):
                t = float(value)
                break
        self._last_t = max(self._last_t, t)
        self._seq += 1
        rec: dict = {"t": t, "seq": self._seq, "event": dict(event)}
        env = event.get("env")
        if env is not None:
            rec["k"] = env
        self.backend.append(self.KEYSPACE, rec)
        self.last_record = rec
        return rec

    def flush(self) -> None:
        self.backend.flush()

    def close(self) -> None:
        self.backend.close()

    # -- reading ---------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the latest appended record (-1 when empty)."""
        return self._seq

    def tail(self, after_seq: int = -1) -> Iterator[dict]:
        """Records with ``seq > after_seq``, in append order.

        The polling surface for out-of-process consumers: remember the last
        ``seq`` you processed and pass it back on the next call.  When the
        backend supports it (:meth:`JsonlBackend.refresh`), each call first
        picks up records appended by *another* process since this log was
        opened — so a live tailer keeps seeing new events even while the
        writer is killed and resumed (at-least-once: a resumed writer may
        re-emit post-checkpoint events under fresh, still-monotone ``seq``).
        """
        refresh = getattr(self.backend, "refresh", None)
        if refresh is not None:
            refresh()
        for rec in self.backend.scan(self.KEYSPACE):
            if rec.get("seq", -1) > after_seq:
                yield rec

    def events(
        self, *, env: str | None = None, kind: str | None = None
    ) -> list[dict]:
        """Raw fleet events (unwrapped), filtered by environment / type."""
        return [
            rec["event"]
            for rec in self.backend.scan(self.KEYSPACE, key=env)
            if kind is None or rec["event"].get("type") == kind
        ]

    def __len__(self) -> int:
        return sum(1 for _ in self.backend.scan(self.KEYSPACE))
