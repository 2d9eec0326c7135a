"""Indexed sqlite backend: keyed scans without reading whole segments.

The JSONL backend replays and scans a keyspace by streaming its entire
segment file — fine for full replays, wasteful for keyed reads (``scan(key=
"V3/readTime")`` still deserialises every record of the keyspace).  This
backend keeps the same :class:`~repro.storage.backend.StorageBackend`
contract but stores records in a single sqlite database with a real
``(keyspace, key, ts)`` index, so keyed and time-windowed scans are index
lookups instead of segment reads.

Layout: one ``records`` table — ``seq`` (rowid) preserves append order,
``ks``/``k``/``t`` are the extracted routing columns, ``payload`` is the
full record as compact JSON.  WAL journalling keeps readers (``repro
incidents`` on a live state dir) off the writer's lock; ``synchronous`` is
NORMAL by default (durability comparable to the JSONL backend without
``fsync=True``, which maps to FULL here).

Commit policy mirrors the JSONL backend's buffered appends: writes commit on
:meth:`flush`/:meth:`close` and automatically every ``commit_every`` appends,
so a kill can lose at most the uncommitted tail — the same window a JSONL
writer's OS buffer leaves.  Scans run on the writer's own connection, so
they always see uncommitted appends (matching the other backends, where a
scan observes everything appended so far).

Thread safety: one connection guarded by an RLock; scans materialise their
result set under the lock (the index has already narrowed it), so iteration
never holds the database hostage.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from pathlib import Path
from typing import Iterable, Iterator

from ..obs import metrics as obs_metrics
from .backend import KEY_FIELD, Record, TIME_FIELD

__all__ = ["SqliteBackend"]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS records (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    ks      TEXT NOT NULL,
    k       TEXT,
    t       REAL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_records_ks_key_ts ON records (ks, k, t);
CREATE INDEX IF NOT EXISTS idx_records_ks_ts ON records (ks, t);
"""


class SqliteBackend:
    """A :class:`StorageBackend` over one sqlite file with keyed indexes."""

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fsync: bool = False,
        commit_every: int = 1024,
    ) -> None:
        if commit_every < 1:
            raise ValueError("commit_every must be at least 1")
        self.path = Path(path)
        self.commit_every = commit_every
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        # guarded-by: _lock
        self._closed = False
        # guarded-by: _lock
        self._uncommitted = 0
        # One shared connection: the backend serialises access itself, and a
        # single writer connection keeps WAL checkpointing predictable.
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute(f"PRAGMA synchronous={'FULL' if fsync else 'NORMAL'}")
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        from ..devtools.sanitize import instrument_guarded

        instrument_guarded(self)  # no-op unless REPRO_SANITIZE=1

    # -- protocol --------------------------------------------------------
    def append(self, keyspace: str, record: Record) -> None:
        self.append_many(keyspace, (record,))

    def append_many(self, keyspace: str, records: Iterable[Record]) -> int:
        self._check_open()
        if not keyspace:
            raise ValueError("keyspace name must be non-empty")
        rows = [
            (
                keyspace,
                record.get(KEY_FIELD),
                self._timestamp(record),
                json.dumps(record, separators=(",", ":")),
            )
            for record in records
        ]
        if not rows:
            return 0
        with obs_metrics.timed("storage.sqlite.append_s"):
            with self._lock:
                self._conn.executemany(
                    "INSERT INTO records (ks, k, t, payload) VALUES (?, ?, ?, ?)", rows
                )
                self._uncommitted += len(rows)
                if self._uncommitted >= self.commit_every:
                    self._conn.commit()
                    self._uncommitted = 0
        obs_metrics.inc("storage.sqlite.records", len(rows))
        return len(rows)

    def scan(
        self,
        keyspace: str,
        *,
        key: str | None = None,
        start: float | None = None,
        end: float | None = None,
    ) -> Iterator[Record]:
        """Records in append order; key/window filters run on the index."""
        clauses = ["ks = ?"]
        params: list = [keyspace]
        if key is not None:
            clauses.append("k = ?")
            params.append(key)
        if start is not None:
            clauses.append("t >= ?")  # NULL t never matches a window (SQL)
            params.append(start)
        if end is not None:
            clauses.append("t <= ?")
            params.append(end)
        sql = (
            "SELECT payload FROM records WHERE "
            + " AND ".join(clauses)
            + " ORDER BY seq"
        )
        obs_metrics.inc("storage.sqlite.scans")
        with self._lock:
            self._check_open()
            rows = self._conn.execute(sql, params).fetchall()
        for (payload,) in rows:
            yield json.loads(payload)

    def keyspaces(self) -> list[str]:
        with self._lock:
            self._check_open()
            rows = self._conn.execute(
                "SELECT DISTINCT ks FROM records ORDER BY ks"
            ).fetchall()
        return [ks for (ks,) in rows]

    def flush(self) -> None:
        self._check_open()
        with self._lock:
            self._conn.commit()
            self._uncommitted = 0

    def close(self) -> None:
        if self._closed:
            return
        with self._lock:
            self._conn.commit()
            self._conn.close()
            self._closed = True

    # -- introspection ---------------------------------------------------
    def count(self, keyspace: str, key: str | None = None) -> int:
        """Record count for a keyspace (optionally one key) off the index."""
        sql = "SELECT COUNT(*) FROM records WHERE ks = ?"
        params: list = [keyspace]
        if key is not None:
            sql += " AND k = ?"
            params.append(key)
        with self._lock:
            self._check_open()
            (n,) = self._conn.execute(sql, params).fetchone()
        return n

    def keys(self, keyspace: str) -> list[str]:
        """Distinct routing keys seen in a keyspace (index-only query)."""
        with self._lock:
            self._check_open()
            rows = self._conn.execute(
                "SELECT DISTINCT k FROM records WHERE ks = ? AND k IS NOT NULL "
                "ORDER BY k",
                (keyspace,),
            ).fetchall()
        return [k for (k,) in rows]

    def __len__(self) -> int:
        with self._lock:
            self._check_open()
            (n,) = self._conn.execute("SELECT COUNT(*) FROM records").fetchone()
        return n

    # -- internals -------------------------------------------------------
    @staticmethod
    def _timestamp(record: Record) -> float | None:
        t = record.get(TIME_FIELD)
        return float(t) if isinstance(t, (int, float)) else None

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"backend at {self.path} is closed")
