"""Store of recorded query runs with satisfactory/unsatisfactory labelling.

The diagnosis workflow starts with the administrator marking runs — either
directly ("run 17 was bad") or declaratively ("every run over 30 minutes is
unsatisfactory", "all runs between 2 PM and 3 PM were bad").  The run store
holds the per-run APG annotations (operator times, record counts, metrics)
and implements both labelling styles.

When wired to a :class:`repro.storage.StorageBackend`, every added run and
every label mutation is journalled (runs are serialised losslessly via
:mod:`repro.storage.serializers`), so a reopened store replays to the exact
same run set *and* the exact labels that were in force at close.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from ..db.executor import QueryRun
from ..storage.keyspaces import RUNS
from ..storage.serializers import run_from_dict, run_to_dict

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.backend import StorageBackend

__all__ = ["RunStore"]


class RunStore:
    """Recorded :class:`QueryRun` objects grouped by query name."""

    def __init__(
        self,
        backend: "StorageBackend | None" = None,
        keyspace: str = RUNS,
    ) -> None:
        self._runs: dict[str, QueryRun] = {}
        self.backend = backend
        self.keyspace = keyspace
        self._replaying = False

    # -- ingestion -----------------------------------------------------------
    def add(self, run: QueryRun) -> QueryRun:
        if run.run_id in self._runs:
            raise ValueError(f"duplicate run id {run.run_id!r}")
        self._runs[run.run_id] = run
        self._journal(
            {
                "t": run.start_time,
                "k": run.query_name,
                "kind": "run",
                "run": run_to_dict(run),
            }
        )
        return run

    def extend(self, runs: Iterable[QueryRun]) -> None:
        for run in runs:
            self.add(run)

    # -- queries ---------------------------------------------------------------
    def get(self, run_id: str) -> QueryRun:
        try:
            return self._runs[run_id]
        except KeyError:
            raise KeyError(f"unknown run {run_id!r}") from None

    def runs(self, query_name: str | None = None) -> list[QueryRun]:
        out = [
            r
            for r in self._runs.values()
            if query_name is None or r.query_name == query_name
        ]
        return sorted(out, key=lambda r: r.start_time)

    def satisfactory_runs(self, query_name: str) -> list[QueryRun]:
        return [r for r in self.runs(query_name) if r.satisfactory is True]

    def unsatisfactory_runs(self, query_name: str) -> list[QueryRun]:
        return [r for r in self.runs(query_name) if r.satisfactory is False]

    # -- labelling -------------------------------------------------------------
    def mark(self, run_id: str, satisfactory: bool) -> None:
        """Direct labelling of one run (the Figure-3 check-box)."""
        run = self.get(run_id)
        run.satisfactory = satisfactory
        self._journal(
            {
                "t": run.start_time,
                "k": run.query_name,
                "kind": "label",
                "run_id": run_id,
                "satisfactory": satisfactory,
            }
        )

    def label_by_rule(
        self, query_name: str, unsatisfactory_if: Callable[[QueryRun], bool]
    ) -> tuple[int, int]:
        """Declarative labelling; returns (n_satisfactory, n_unsatisfactory)."""
        good = bad = 0
        for run in self.runs(query_name):
            if unsatisfactory_if(run):
                self.mark(run.run_id, False)
                bad += 1
            else:
                self.mark(run.run_id, True)
                good += 1
        return good, bad

    def label_by_duration(self, query_name: str, max_duration_s: float) -> tuple[int, int]:
        """"Runs longer than X are unsatisfactory" (the paper's example rule)."""
        return self.label_by_rule(query_name, lambda r: r.duration > max_duration_s)

    def label_by_window(
        self, query_name: str, bad_start: float, bad_end: float
    ) -> tuple[int, int]:
        """"Runs from 2 PM to 3 PM were unsatisfactory"-style labelling."""
        return self.label_by_rule(
            query_name, lambda r: bad_start <= r.start_time <= bad_end
        )

    def __len__(self) -> int:
        return len(self._runs)

    # -- persistence -----------------------------------------------------
    def _journal(self, record: dict) -> None:
        if self.backend is not None and not self._replaying:
            self.backend.append(self.keyspace, record)

    def replay_from_backend(self) -> int:
        """Rebuild runs + labels from the backend journal (on open)."""
        if self.backend is None:
            return 0
        self._replaying = True
        applied = 0
        try:
            for rec in self.backend.scan(self.keyspace):
                if rec.get("kind") == "run":
                    self.add(run_from_dict(rec["run"]))
                elif rec.get("kind") == "label":
                    self.mark(rec["run_id"], rec["satisfactory"])
                applied += 1
        finally:
            self._replaying = False
        return applied
