"""Durable JSONL backend: append-only segment files with an in-memory index.

Layout under ``root``::

    root/
      MANIFEST.json          # advisory summary, atomically replaced by writers
      <keyspace>.jsonl       # one segment file per keyspace, one record/line

Durability model
----------------
* **Appends** go straight to the keyspace's segment file (compact JSON, one
  line per record) and are pushed to the OS on :meth:`flush` (``fsync`` when
  ``fsync=True``).
* **Crash safety** comes from segment files being append-only: a crash
  mid-append can leave at most one torn trailing line per segment; replay
  detects and ignores it, and the next *append* (never a read — a
  concurrent query process must not mutate a live writer's file) truncates
  it away so writing resumes on a clean line boundary.
* **Replay** happens on open: every segment is scanned once to rebuild the
  in-memory index (per-keyspace record count, committed bytes and the set
  of routing keys), after which scans stream records back off disk in
  append order; a keyed scan for a key the segment never held returns
  without opening it.  Replay never consults the manifest —
  ``MANIFEST.json`` is an *advisory* summary of committed segment state for
  operators and external tooling, refreshed (write-then-rename, so it is
  never torn) on flush/close by instances that actually appended;
  read-only opens leave it untouched.

The index keeps only bookkeeping, not the records themselves, so an open
store's memory footprint is O(#keyspaces + #distinct keys), not O(#records)
— the property that lets ``repro watch --state-dir`` outlive one process's
RAM budget.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Iterable, Iterator

from ..obs import metrics as obs_metrics
from ..obs import span
from . import keyspaces as _keyspaces
from .backend import KEY_FIELD, Record, atomic_write_json

__all__ = ["JsonlBackend"]

#: Keyspaces the observability sidecar itself writes.  Appends to these get
#: metrics but never spans — a span finishing *is* an append to ``traces``,
#: so tracing those appends would recurse.
_OBS_KEYSPACES = frozenset((_keyspaces.TRACES, _keyspaces.OBS_METRICS))

_MANIFEST = "MANIFEST.json"
_SUFFIX = ".jsonl"


def _safe_keyspace(keyspace: str) -> str:
    if not keyspace or any(ch in keyspace for ch in "/\\\0") or keyspace.startswith("."):
        raise ValueError(f"invalid keyspace name {keyspace!r}")
    return keyspace


class _KeyspaceIndex:
    """Bookkeeping for one segment file (no record bodies kept)."""

    __slots__ = ("count", "keys", "committed_bytes")

    def __init__(self) -> None:
        self.count = 0
        self.keys: set[str] = set()
        self.committed_bytes = 0

    def note(self, record: Record, nbytes: int) -> None:
        self.count += 1
        self.committed_bytes += nbytes
        key = record.get(KEY_FIELD)
        if key is not None:
            self.keys.add(key)


class JsonlBackend:
    """Append-only JSONL segment files per keyspace, replayed on open."""

    def __init__(self, root: str | os.PathLike, *, fsync: bool = False) -> None:
        self.root = Path(root)
        self.fsync = fsync
        self.root.mkdir(parents=True, exist_ok=True)
        # guarded-by: _lock
        self._files: dict[str, object] = {}
        # guarded-by: _lock
        self._index: dict[str, _KeyspaceIndex] = {}
        self._lock = threading.RLock()
        self._closed = False
        #: True once this instance appended; read-only opens (e.g. `repro
        #: incidents` against a live watch) must not rewrite the manifest.
        # guarded-by: _lock
        self._dirty = False
        self._replay_all()
        from ..devtools.sanitize import instrument_guarded

        instrument_guarded(self)  # no-op unless REPRO_SANITIZE=1

    # -- open/replay -----------------------------------------------------
    def _replay_all(self) -> None:
        for path in sorted(self.root.glob(f"*{_SUFFIX}")):
            self._replay_segment(path.stem)

    def _replay_segment(self, keyspace: str) -> None:
        """Rebuild one keyspace's index, ignoring any torn trailing line.

        Replay never mutates the segment: a read-only open (``repro
        incidents`` against a live watch) must not truncate a file another
        process is still appending to.  ``committed_bytes`` simply stops at
        the last intact line; the torn tail — if it really is one — is cut
        away by the first *append* this backend makes (see
        :meth:`_file_for`), which is an operation only the segment's owner
        performs.
        """
        path = self._segment_path(keyspace)
        index = _KeyspaceIndex()
        with path.open("rb") as fh:
            for line in fh:
                if not line.endswith(b"\n"):
                    break  # torn tail from a crash mid-append
                try:
                    record = json.loads(line)
                except ValueError:
                    break  # corrupt tail: everything before it is intact
                index.note(record, len(line))
        with self._lock:
            self._index[keyspace] = index

    # -- protocol --------------------------------------------------------
    def append(self, keyspace: str, record: Record) -> None:
        self.append_many(keyspace, (record,))

    def append_many(self, keyspace: str, records: Iterable[Record]) -> int:
        self._check_open()
        keyspace = _safe_keyspace(keyspace)
        if keyspace in _OBS_KEYSPACES:
            # The sidecar's own writes: metrics only (a finishing span *is*
            # an append to `traces`; tracing it would recurse).
            with obs_metrics.timed("storage.jsonl.append_s"):
                written, nbytes = self._append_locked(keyspace, records)
        else:
            with span("storage.append", keyspace=keyspace):
                with obs_metrics.timed("storage.jsonl.append_s"):
                    written, nbytes = self._append_locked(keyspace, records)
        obs_metrics.inc("storage.jsonl.records", written)
        obs_metrics.inc("storage.jsonl.bytes", nbytes)
        return written

    def _append_locked(
        self, keyspace: str, records: Iterable[Record]
    ) -> tuple[int, int]:
        with self._lock:
            fh = self._file_for(keyspace)
            index = self._index.setdefault(keyspace, _KeyspaceIndex())
            self._dirty = True
            written = 0
            nbytes = 0
            for record in records:
                line = json.dumps(record, separators=(",", ":")) + "\n"
                data = line.encode("utf-8")
                fh.write(data)
                index.note(record, len(data))
                written += 1
                nbytes += len(data)
            return written, nbytes

    def scan(self, keyspace: str, *, key: str | None = None) -> Iterator[Record]:
        obs_metrics.inc("storage.jsonl.scans")
        with self._lock:
            index = self._index.get(keyspace)
            if index is None or index.count == 0:
                return
            if key is not None and key not in index.keys:
                return
            self._flush_file(keyspace)
            committed = index.committed_bytes
        path = self._segment_path(keyspace)
        remaining = committed
        with path.open("rb") as fh:
            for line in fh:
                if remaining <= 0:
                    break
                remaining -= len(line)
                record = json.loads(line)
                if key is None or record.get(KEY_FIELD) == key:
                    yield record

    def keyspaces(self) -> list[str]:
        with self._lock:
            return sorted(ks for ks, idx in self._index.items() if idx.count)

    def refresh(self) -> int:
        """Pick up records appended by *another* process since open.

        A reader's index is frozen at replay time, so a live tailer polling
        :meth:`scan` would never see lines the writer appended after the
        tailer opened — the failure mode of an SSE consumer following a
        watch from a second process.  ``refresh`` extends the index of every
        segment this instance does not itself write (own write handles are
        already current) by replaying new *complete* lines from
        ``committed_bytes`` onward; a torn or corrupt tail is left for the
        next refresh, exactly like replay-on-open.  Returns the number of
        newly indexed records.
        """
        self._check_open()
        total = 0
        for path in sorted(self.root.glob(f"*{_SUFFIX}")):
            keyspace = path.stem
            with self._lock:
                if keyspace in self._files:
                    continue  # we are this segment's writer: index is current
                index = self._index.setdefault(keyspace, _KeyspaceIndex())
                try:
                    size = path.stat().st_size
                except OSError:
                    continue
                if size <= index.committed_bytes:
                    continue
                with path.open("rb") as fh:
                    fh.seek(index.committed_bytes)
                    for line in fh:
                        if not line.endswith(b"\n"):
                            break  # torn tail: the writer is mid-append
                        try:
                            record = json.loads(line)
                        except ValueError:
                            break
                        index.note(record, len(line))
                        total += 1
        if total:
            obs_metrics.inc("storage.jsonl.refreshed", total)
        return total

    def flush(self) -> None:
        self._check_open()
        with obs_metrics.timed("storage.jsonl.flush_s"):
            with self._lock:
                for keyspace in list(self._files):
                    self._flush_file(keyspace)
                self._write_manifest()

    def close(self) -> None:
        if self._closed:
            return
        with self._lock:
            for keyspace in list(self._files):
                self._flush_file(keyspace)
                self._files.pop(keyspace).close()  # type: ignore[attr-defined]
            self._write_manifest()
            self._closed = True

    # -- internals -------------------------------------------------------
    def _segment_path(self, keyspace: str) -> Path:
        return self.root / f"{keyspace}{_SUFFIX}"

    def _file_for(self, keyspace: str):
        # Self-locking (the RLock is reentrant under append_many's hold) so
        # the _files mutation is guarded no matter who calls.
        with self._lock:
            fh = self._files.get(keyspace)
            if fh is None:
                path = self._segment_path(keyspace)
                index = self._index.get(keyspace)
                # First write to this segment: drop a torn tail left by a
                # crashed predecessor so the append starts on a line boundary.
                # Only the writer does this — replay/scan never mutate.
                if (
                    index is not None
                    and path.exists()
                    and path.stat().st_size > index.committed_bytes
                ):
                    with path.open("r+b") as tail:
                        tail.truncate(index.committed_bytes)
                fh = path.open("ab")
                self._files[keyspace] = fh
            return fh

    def _flush_file(self, keyspace: str) -> None:
        fh = self._files.get(keyspace)
        if fh is not None:
            fh.flush()  # type: ignore[attr-defined]
            if self.fsync:
                os.fsync(fh.fileno())  # type: ignore[attr-defined]

    def _write_manifest(self) -> None:
        """Advisory summary of committed segment state (writers only).

        Replay never reads this — recovery is segment-scan based; the
        manifest exists for operators and external tooling.  Written
        atomically, and only by instances that appended, so a read-only
        open of a live writer's directory leaves it alone.
        """
        if not self._dirty:
            return
        manifest = {
            "version": 1,
            "keyspaces": {
                ks: {"records": idx.count, "bytes": idx.committed_bytes}
                for ks, idx in sorted(self._index.items())
            },
        }
        atomic_write_json(self.root / _MANIFEST, manifest, indent=2, sort_keys=True)

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"backend at {self.root} is closed")
