"""The monitoring stores and the collector that fills them each tick.

Plays the role of IBM TotalStorage Productivity Center in Figure 5: it
records SAN component metrics, server metrics and database metrics into the
(noisy, bucketed) metric store, events into the event log, and configuration
snapshots into the config store.  DIADS reads *only* these stores.

The collector also carries an optional **streaming tap**: observer callbacks
invoked once per appended metric observation (and once per recorded query
run).  Online detectors (:mod:`repro.stream`) subscribe to the tap so they
see every sample the moment it lands, without polling the stores.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..db.executor import QueryRun
from ..san.iomodel import SanPerfSample
from ..storage.jsonl import JsonlBackend
from .configstore import ConfigStore
from .events import EventLog
from .runstore import RunStore
from .timeseries import MetricStore

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.backend import StorageBackend

__all__ = ["MonitoringStores", "Collector", "MetricTap", "RunTap"]

#: Pseudo-component id under which database-level metrics are recorded.
DB_COMPONENT = "db"

#: Observer over raw metric appends: fn(time, component_id, metric, value).
MetricTap = Callable[[float, str, str, float], None]

#: Observer over recorded query runs: fn(run).
RunTap = Callable[[QueryRun], None]


@dataclass
class MonitoringStores:
    """The bundle of stores DIADS diagnoses from.

    Constructed bare, the four stores live in memory and journal nothing.
    :meth:`with_backend` wires all four to one
    :class:`~repro.storage.StorageBackend` and :meth:`open` to a durable one
    under a state dir; either way the backend's existing records are
    replayed first, so a reopened store reads exactly what was written.
    """

    metrics: MetricStore = field(default_factory=MetricStore)
    events: EventLog = field(default_factory=EventLog)
    config: ConfigStore = field(default_factory=ConfigStore)
    runs: RunStore = field(default_factory=RunStore)
    backend: "StorageBackend | None" = field(default=None, compare=False)

    # -- construction ----------------------------------------------------
    @classmethod
    def with_backend(
        cls,
        backend: "StorageBackend",
        *,
        interval_s: float = 300.0,
        noise_sigma: float = 0.05,
        seed: int = 0,
    ) -> "MonitoringStores":
        """All four stores journalling through ``backend``, after replaying
        every record it already holds (none, for a fresh backend)."""
        stores = cls(
            metrics=MetricStore(
                interval_s=interval_s,
                noise_sigma=noise_sigma,
                seed=seed,
                backend=backend,
            ),
            events=EventLog(backend=backend),
            config=ConfigStore(backend=backend),
            runs=RunStore(backend=backend),
            backend=backend,
        )
        for store in (stores.metrics, stores.runs, stores.config, stores.events):
            store.replay_from_backend()
        return stores

    @classmethod
    def open(
        cls,
        state_dir: str | os.PathLike,
        *,
        interval_s: float = 300.0,
        noise_sigma: float = 0.05,
        seed: int = 0,
        fsync: bool = False,
    ) -> "MonitoringStores":
        """Open (or create) a durable JSONL store under ``state_dir``.

        A reopened store returns the same ``series()`` / ``runs()`` /
        ``events()`` / config diffs as the store that wrote them.
        """
        return cls.with_backend(
            JsonlBackend(state_dir, fsync=fsync),
            interval_s=interval_s,
            noise_sigma=noise_sigma,
            seed=seed,
        )

    # -- lifecycle -------------------------------------------------------
    def flush(self) -> None:
        if self.backend is not None:
            self.backend.flush()

    def close(self) -> None:
        if self.backend is not None:
            self.backend.close()

    def __enter__(self) -> "MonitoringStores":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- bulk copy -------------------------------------------------------
    def absorb(self, other: "MonitoringStores") -> None:
        """Copy every record of ``other`` into these (journalling) stores.

        Runs are copied with their *current* labels (the label is part of
        the journalled run record), so a labelled bundle round-trips
        labelled.
        """
        self.metrics.append_many(
            (sample.time, cid, metric, sample.value)
            for (cid, metric) in other.metrics.keys()
            for sample in other.metrics._raw[(cid, metric)]
        )
        for run in other.runs.runs():
            self.runs.add(run)
        for scope, when, flat in other.config.snapshots():
            self.config._insert_flat(when, scope, dict(flat))
        for event in other.events.events:
            self.events.add(event)


@dataclass
class Collector:
    """Writes simulator outputs into the monitoring stores."""

    stores: MonitoringStores
    _metric_taps: list[MetricTap] = field(default_factory=list, repr=False)
    _run_taps: list[RunTap] = field(default_factory=list, repr=False)

    # -- streaming tap -----------------------------------------------------
    def add_metric_tap(self, tap: MetricTap) -> MetricTap:
        """Subscribe to every raw metric append; returns the tap for removal."""
        self._metric_taps.append(tap)
        return tap

    def add_run_tap(self, tap: RunTap) -> RunTap:
        """Subscribe to every recorded query run; returns the tap for removal."""
        self._run_taps.append(tap)
        return tap

    def remove_tap(self, tap: MetricTap | RunTap) -> None:
        if tap in self._metric_taps:
            self._metric_taps.remove(tap)
        if tap in self._run_taps:
            self._run_taps.remove(tap)

    def _emit(self, time: float, component_id: str, metric: str, value: float) -> None:
        """One locked store append, then the observer fan-out."""
        self.stores.metrics.record(time, component_id, metric, value)
        for tap in self._metric_taps:
            tap(time, component_id, metric, value)

    def _emit_many(self, observations: list[tuple[float, str, str, float]]) -> None:
        """Batch append (one lock acquisition), then the observer fan-out."""
        self.stores.metrics.append_many(observations)
        for tap in self._metric_taps:
            for time, component_id, metric, value in observations:
                tap(time, component_id, metric, value)

    # -- SAN -------------------------------------------------------------
    def collect_san(self, time: float, sample: SanPerfSample) -> None:
        self._emit_many(
            [
                (time, component_id, metric, value)
                for (component_id, metric), value in sample.values.items()
            ]
        )

    # -- server ------------------------------------------------------------
    def collect_server(
        self,
        time: float,
        server_id: str,
        cpu_pct: float,
        memory_pct: float = 35.0,
        processes: float = 180.0,
    ) -> None:
        self._emit_many(
            [
                (time, server_id, "cpuUsagePct", cpu_pct),
                (time, server_id, "cpuUsageMhz", cpu_pct * 24.0),
                (time, server_id, "physicalMemoryUsagePct", memory_pct),
                (time, server_id, "heapMemoryUsageKb", memory_pct * 1024.0),
                (time, server_id, "kernelMemoryKb", 65536.0),
                (time, server_id, "memorySwappedKb", 0.0),
                (time, server_id, "reservedMemoryCapacityKb", 8.0 * 1024.0 * 1024.0),
                (time, server_id, "processes", processes),
                (time, server_id, "threads", processes * 4.0),
                (time, server_id, "handles", processes * 30.0),
            ]
        )

    # -- network ----------------------------------------------------------
    def collect_network(self, time: float, switch_id: str, bytes_moved: float) -> None:
        observations = [
            (time, switch_id, "bytesTransmitted", bytes_moved),
            (time, switch_id, "bytesReceived", bytes_moved),
            (time, switch_id, "packetsTransmitted", bytes_moved / 2048.0),
            (time, switch_id, "packetsReceived", bytes_moved / 2048.0),
        ]
        observations.extend(
            (time, switch_id, metric, 0.0)
            for metric in ("lipCount", "nosCount", "errorFrames", "dumpedFrames",
                           "linkFailures", "crcErrors", "addressErrors")
        )
        self._emit_many(observations)

    # -- database -----------------------------------------------------------
    def collect_query_run(self, run: QueryRun) -> None:
        """Record a finished run: the run itself + its DB metrics as series."""
        self.stores.runs.add(run)
        time = run.end_time
        self._emit_many(
            [
                (time, DB_COMPONENT, metric, value)
                for metric, value in run.db_metrics.items()
            ]
        )
        label_before = run.satisfactory
        for tap in self._run_taps:
            tap(run)
        # A tap that labelled the run (the response-time SLO detector writes
        # run.satisfactory directly) bypassed RunStore.mark(); re-issue the
        # label through the store so it reaches the durability journal — the
        # run record itself was journalled at add() time, before the label.
        if run.satisfactory is not label_before and run.satisfactory is not None:
            self.stores.runs.mark(run.run_id, run.satisfactory)

    def collect_db_tick(self, time: float, locks_held: float) -> None:
        """Between-runs database heartbeat metrics."""
        self._emit(time, DB_COMPONENT, "locksHeld", locks_held)

    # -- config + events -------------------------------------------------------
    def snapshot_config(self, time: float, scope: str, snapshot: dict) -> None:
        self.stores.config.take_snapshot(time, scope, snapshot)
