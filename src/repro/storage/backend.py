"""The telemetry-store backend protocol and its in-memory reference.

Every monitoring store (metrics, runs, config snapshots, events, incident
journals) persists through the same tiny contract: an append-only log of
JSON-able *records* partitioned into named **keyspaces**.  A record is a
plain dict with an optional routing key under ``"k"``; everything else
(the stores' ``"t"`` timestamps included) is the owning store's business.

The contract is what the stores use — append, scan a keyspace (optionally
one key's records), flush, close — so a third-party backend (redis, a
TSDB gateway) can be dropped in without touching any store.  Two
implementations ship with the package:

* :class:`MemoryBackend` (here) — records are kept **by reference** in
  per-keyspace lists: appending never serialises, copies, or touches the
  filesystem, which keeps the hot collector path as cheap as it was before
  stores were re-founded on the protocol;
* :class:`repro.storage.jsonl.JsonlBackend` — the one durable backend:
  append-only segment files per keyspace with an in-memory index and
  crash-safe replay.

Readers never ask whether a backend outlives its process: every store and
the fleet event log replays whatever its backend already holds when it is
constructed, so a fresh reader over a memory backend another writer filled
sees the same records as one over a JSONL directory an earlier run left.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Iterable, Iterator, Protocol, runtime_checkable

__all__ = [
    "Record",
    "StorageBackend",
    "MemoryBackend",
    "atomic_write_json",
]


def atomic_write_json(
    path: str | os.PathLike,
    payload: Any,
    *,
    indent: int | None = None,
    sort_keys: bool = False,
) -> None:
    """Write JSON via tmp-file + rename: a crash leaves the old file or the
    new one, never a torn mix.  Shared by every checkpoint/manifest writer
    (bundle manifests, supervisor checkpoints, segment manifests)."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.tmp")
    tmp.write_text(json.dumps(payload, indent=indent, sort_keys=sort_keys))
    os.replace(tmp, target)


#: A stored record: JSON-able dict with an optional routing key under ``"k"``.
Record = dict

#: The reserved record field ``scan(key=...)`` filters on.
KEY_FIELD = "k"


@runtime_checkable
class StorageBackend(Protocol):
    """What a telemetry-store backend must provide.

    Append order within a keyspace is the replay order; ``scan`` preserves
    it.
    """

    def append(self, keyspace: str, record: Record) -> None:
        """Append one record to a keyspace (created on first use)."""
        ...

    def append_many(self, keyspace: str, records: Iterable[Record]) -> int:
        """Batch append; returns how many records were written."""
        ...

    def scan(self, keyspace: str, *, key: str | None = None) -> Iterator[Record]:
        """Records of a keyspace in append order (only ``key``'s, if given)."""
        ...

    def keyspaces(self) -> list[str]:
        """Sorted names of every keyspace holding at least one record."""
        ...

    def flush(self) -> None:
        """Push buffered appends to the backing medium."""
        ...

    def close(self) -> None:
        """Flush and release resources; further appends are an error."""
        ...


class MemoryBackend:
    """Reference in-memory backend: per-keyspace lists of record dicts.

    The zero-copy fast path: ``append`` stores the caller's dict object by
    reference (no serialisation), so
    :class:`~repro.monitor.MonitoringStores` wired to it cost one list
    append per journal write — the same order of work as unjournalled
    stores.
    """

    def __init__(self) -> None:
        # guarded-by: _lock
        self._keyspaces: dict[str, list[Record]] = {}
        self._lock = threading.Lock()
        self._closed = False
        from ..devtools.sanitize import instrument_guarded

        instrument_guarded(self)  # no-op unless REPRO_SANITIZE=1

    def append(self, keyspace: str, record: Record) -> None:
        self._check_open()
        with self._lock:
            self._keyspaces.setdefault(keyspace, []).append(record)

    def append_many(self, keyspace: str, records: Iterable[Record]) -> int:
        self._check_open()
        with self._lock:
            rows = self._keyspaces.setdefault(keyspace, [])
            before = len(rows)
            rows.extend(records)
            return len(rows) - before

    def scan(self, keyspace: str, *, key: str | None = None) -> Iterator[Record]:
        with self._lock:
            rows = list(self._keyspaces.get(keyspace, ()))
        for record in rows:
            if key is None or record.get(KEY_FIELD) == key:
                yield record

    def keyspaces(self) -> list[str]:
        with self._lock:
            return sorted(ks for ks, rows in self._keyspaces.items() if rows)

    def flush(self) -> None:  # nothing buffered
        self._check_open()

    def close(self) -> None:
        self._closed = True

    def __len__(self) -> int:
        with self._lock:
            return sum(len(rows) for rows in self._keyspaces.values())

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("backend is closed")
