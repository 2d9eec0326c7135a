"""Shared scaffolding for journaled ticket stores.

Two stores follow the same design — the per-environment incident journal
(:class:`repro.stream.IncidentStore`) and the fleet-incident journal
(:class:`repro.correlate.FleetIncidentStore`): lifecycle transitions are
appended as *delta* records keyed by ticket id in one keyspace, folded into
a latest-ticket view both live and on replay, with idempotent folding so the
duplicate transitions a resumed run deterministically re-journals cannot
change a ticket.  This base owns that machinery; subclasses contribute only
their event vocabulary (``_fold``) and query surface.
"""

from __future__ import annotations

import copy
import os
from typing import TYPE_CHECKING

from . import keyspaces

if TYPE_CHECKING:  # pragma: no cover
    from .backend import Record, StorageBackend

__all__ = ["JournalStore"]


class JournalStore:
    """Append-only transition journal folded into a latest-ticket view.

    Subclasses set :attr:`KEYSPACE` (also the journal's directory name under
    a state dir) and implement ``_fold(rec)``; writers build a record and
    pass it to :meth:`_append`.  Folding MUST be idempotent: ``open``-style
    records should deep-copy (a by-reference backend would otherwise see its
    journalled snapshot mutated by later folds), delta records should
    skip/overwrite.
    """

    KEYSPACE = keyspaces.JOURNAL

    def __init__(self, backend: "StorageBackend") -> None:
        self.backend = backend
        self._latest: dict[str, dict] = {}
        self.replay()

    @classmethod
    def open(cls, state_dir: str | os.PathLike):
        """Open (or create) the journal under ``state_dir/<KEYSPACE>``."""
        from pathlib import Path

        from .jsonl import JsonlBackend

        return cls(JsonlBackend(Path(state_dir) / cls.KEYSPACE))

    # -- folding ---------------------------------------------------------
    def replay(self) -> int:
        """Fold the journal into the latest-ticket view (on open)."""
        count = 0
        for rec in self.backend.scan(self.KEYSPACE):
            self._fold(rec)
            count += 1
        return count

    def _fold(self, rec: "Record") -> None:
        raise NotImplementedError

    def _append(self, rec: "Record") -> None:
        """Journal one transition record and fold it into the live view."""
        self.backend.append(self.KEYSPACE, rec)
        self._fold(rec)

    # -- lifecycle -------------------------------------------------------
    def flush(self) -> None:
        self.backend.flush()

    def close(self) -> None:
        self.backend.close()

    # -- queries ---------------------------------------------------------
    def _tickets(self) -> list[dict]:
        """Deep copies of every latest ticket (callers must not reach the
        folded state)."""
        return [copy.deepcopy(ticket) for ticket in self._latest.values()]

    def transitions(self, key: str | None = None) -> list[dict]:
        """The raw journal (optionally one ticket's), in append order."""
        return list(self.backend.scan(self.KEYSPACE, key=key))

    def __len__(self) -> int:
        return len(self._latest)
