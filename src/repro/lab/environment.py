"""The simulated enterprise environment: database + SAN + monitoring + time.

:class:`Environment` wires every substrate together and advances a simulated
clock.  Each tick it:

1. applies any scheduled fault actions,
2. starts due query runs — the executor sees the SAN latencies produced by
   the I/O model under the *combined* load (external workloads + the query's
   own I/O), which is the database↔SAN coupling DIADS diagnoses,
3. feeds the collector: SAN component metrics, server/network metrics,
   database heartbeats — all of which land in the noisy, bucketed stores,
4. emits user-defined trigger events (volume performance degradation) when a
   volume's response time exceeds its healthy baseline.

``Environment.bundle()`` packages exactly what the DIADS tool is allowed to
see: the monitoring stores plus configuration (never the simulators' ground
truth).
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from ..db.buffer import BufferModel
from ..db.catalog import Catalog
from ..db.executor import Executor, QueryRun
from ..db.locks import LockManager
from ..db.optimizer import DbConfig, Optimizer
from ..db.plans import PlanOperator
from ..monitor.collector import Collector, MonitoringStores
from ..monitor.timeseries import MetricStore
from ..san.builder import Testbed
from ..san.events import SanEvent, SanEventKind
from ..san.iomodel import IoSimulator, SanPerfSample, VolumeLoad
from ..storage.backend import MemoryBackend, atomic_write_json
from ..storage.jsonl import JsonlBackend
from ..storage.serializers import (
    catalog_from_dict,
    catalog_to_dict,
    dbconfig_from_dict,
    dbconfig_to_dict,
    spec_from_dict,
    spec_to_dict,
    testbed_from_dict,
    testbed_to_dict,
)
from .workloads import ExternalWorkload, QueryJob

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.backend import StorageBackend

__all__ = ["Environment", "DiagnosisBundle"]

#: A scheduled fault action: called as fn(environment, fire_time).
FaultAction = Callable[["Environment", float], None]


@dataclass
class DiagnosisBundle:
    """Everything the DIADS tool may consume (monitoring + configuration).

    This is the hand-off boundary of Figure 5: the management tool's DB2
    database (here: the stores) plus the SAN configuration and the database
    catalog/config — but none of the simulators' hidden ground truth.
    """

    stores: MonitoringStores
    testbed: Testbed
    catalog: Catalog
    db_config: DbConfig
    initial_catalog: Catalog
    initial_config: DbConfig
    query_names: list[str] = field(default_factory=list)
    #: query name → declarative spec (None for pinned-plan jobs); Module PD
    #: uses specs to replay the optimizer under hypothetical reverted changes.
    query_specs: dict[str, object] = field(default_factory=dict)

    @property
    def topology(self):
        return self.testbed.topology

    # -- persistence -----------------------------------------------------
    def save(self, state_dir: str | os.PathLike, *, overwrite: bool = False) -> None:
        """Persist the whole bundle under ``state_dir``.

        The :meth:`to_payload` telemetry records become JSONL segment files
        under ``state_dir/telemetry``; the rest of the payload is written
        atomically, last, as ``bundle.json`` — so a directory holding a
        ``bundle.json`` is always a complete, loadable bundle.
        """
        path = Path(state_dir)
        manifest = path / "bundle.json"
        if manifest.exists():
            if not overwrite:
                raise FileExistsError(
                    f"{manifest} already holds a saved bundle (pass overwrite=True)"
                )
            manifest.unlink()
        # No manifest means no complete bundle: any telemetry segments
        # present are leftovers of a save() that died before its manifest
        # landed — appending onto them would double every record, so start
        # clean either way.
        shutil.rmtree(path / "telemetry", ignore_errors=True)
        path.mkdir(parents=True, exist_ok=True)

        payload = self.to_payload()
        segments = JsonlBackend(path / "telemetry")
        for keyspace, records in payload.pop("telemetry").items():
            segments.append_many(keyspace, records)
        segments.close()
        atomic_write_json(manifest, payload, indent=2, sort_keys=True)

    def to_payload(self) -> dict:
        """The whole bundle as one JSON document (the process-pool handoff).

        The object graph (testbed, catalogs, configs, query specs) goes
        through the lossless serializers in :mod:`repro.storage.serializers`;
        the telemetry (metrics, runs with labels, config snapshots, events)
        is journalled into an in-memory backend and dumped per keyspace —
        the exact records :class:`~repro.storage.JsonlBackend` writes as
        JSON lines.
        """
        metrics = self.stores.metrics
        meta = {
            "interval_s": metrics.interval_s,
            "noise_sigma": metrics.noise_sigma,
            "seed": metrics.seed,
        }
        backend = MemoryBackend()
        MonitoringStores.with_backend(backend, **meta).absorb(self.stores)
        return {
            "version": 1,
            "metrics": meta,
            "testbed": testbed_to_dict(self.testbed),
            "catalog": catalog_to_dict(self.catalog),
            "db_config": dbconfig_to_dict(self.db_config),
            "initial_catalog": catalog_to_dict(self.initial_catalog),
            "initial_config": dbconfig_to_dict(self.initial_config),
            "query_names": list(self.query_names),
            "query_specs": {
                name: spec_to_dict(spec) if spec is not None else None
                for name, spec in self.query_specs.items()
            },
            "telemetry": {
                keyspace: list(backend.scan(keyspace))
                for keyspace in backend.keyspaces()
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DiagnosisBundle":
        """Rebuild a bundle from :meth:`to_payload` output.

        The replayed stores diagnose identically to the originals — same
        records, same sampling interval / noise sigma / seed — which is what
        makes worker-process diagnosis byte-for-byte equivalent to in-process
        diagnosis.
        """
        backend = MemoryBackend()
        for keyspace, records in payload.get("telemetry", {}).items():
            backend.append_many(keyspace, records)
        return cls._decode(payload, backend)

    @classmethod
    def load(cls, state_dir: str | os.PathLike) -> "DiagnosisBundle":
        """Restore a bundle persisted with :meth:`save`; its stores keep
        journalling into the saved segment files."""
        path = Path(state_dir)
        payload = json.loads((path / "bundle.json").read_text())
        return cls._decode(payload, JsonlBackend(path / "telemetry"))

    @classmethod
    def _decode(cls, payload: dict, backend: "StorageBackend") -> "DiagnosisBundle":
        """The one payload decoder: stores replayed from ``backend``, the
        object graph through the serializers that wrote it."""
        return cls(
            stores=MonitoringStores.with_backend(backend, **payload["metrics"]),
            testbed=testbed_from_dict(payload["testbed"]),
            catalog=catalog_from_dict(payload["catalog"]),
            db_config=dbconfig_from_dict(payload["db_config"]),
            initial_catalog=catalog_from_dict(payload["initial_catalog"]),
            initial_config=dbconfig_from_dict(payload["initial_config"]),
            query_names=list(payload.get("query_names", [])),
            query_specs={
                name: spec_from_dict(spec) if spec is not None else None
                for name, spec in payload.get("query_specs", {}).items()
            },
        )


class Environment:
    """Orchestrates the simulators over a timeline."""

    def __init__(
        self,
        testbed: Testbed,
        catalog: Catalog,
        db_config: DbConfig | None = None,
        tick_s: float = 60.0,
        sampling_interval_s: float = 300.0,
        monitor_noise_sigma: float = 0.05,
        executor_noise_sigma: float = 0.02,
        buffer_cache_mb: float = 96.0,
        seed: int = 0,
        stores: MonitoringStores | None = None,
    ) -> None:
        self.testbed = testbed
        self.catalog = catalog
        self.db_config = db_config or DbConfig()
        self.tick_s = tick_s
        self.seed = seed
        self.iosim = IoSimulator(testbed.topology)
        self.executor = Executor(
            catalog,
            buffer=BufferModel(cache_mb=buffer_cache_mb),
            locks=LockManager(),
            noise_sigma=executor_noise_sigma,
        )
        # An injected store bundle (e.g. a durable MonitoringStores.open(...))
        # wins over the sampling/noise/seed parameters: the caller owns the
        # metric-store configuration along with the backend.
        self.stores = stores or MonitoringStores(
            metrics=MetricStore(
                interval_s=sampling_interval_s,
                noise_sigma=monitor_noise_sigma,
                seed=seed,
            )
        )
        self.collector = Collector(stores=self.stores)
        self.data_multipliers: dict[str, float] = {}
        self.jobs: list[QueryJob] = []
        self.external: list[ExternalWorkload] = []
        self._scheduled: list[tuple[float, FaultAction]] = []
        self._active_query_windows: list[tuple[float, float, dict[str, VolumeLoad]]] = []
        self._run_counter = 0
        self._last_duration: dict[str, float] = {}
        self._baseline_duration: dict[str, float] = {}
        #: CPU contention windows: (start, end, cpu_multiplier, server_pct)
        self.cpu_contention: list[tuple[float, float, float, float]] = []
        self._baseline_latency: dict[str, float] = {}
        self._degraded_alert_until: dict[str, float] = {}
        self.initial_catalog = catalog.clone()
        self.initial_config = self.db_config
        #: Simulation clock; None until the first advance()/run() call.
        self._clock: float | None = None
        #: Sum of requested advance durations.  The tick loop aims at this,
        #: so fractional-tick chunk sizes cannot compound into clock drift.
        self._target: float = 0.0
        #: Serialises advance() calls: the runtime scheduler may hand chunks
        #: of the same environment to different pool threads over time, and a
        #: late duplicate submission must queue behind the live one instead
        #: of interleaving ticks (the simulation state is not shareable
        #: mid-tick).  Progress is still single-threaded per environment.
        self._advance_lock = threading.RLock()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def add_job(self, job: QueryJob) -> QueryJob:
        self.jobs.append(job)
        return job

    def add_external(self, workload: ExternalWorkload) -> ExternalWorkload:
        self.external.append(workload)
        return workload

    def schedule(self, time: float, action: FaultAction) -> None:
        """Schedule a fault/maintenance action at a simulation time."""
        self._scheduled.append((time, action))
        self._scheduled.sort(key=lambda pair: pair[0])

    def log_san_event(self, event: SanEvent) -> None:
        self.stores.events.add_san_event(event)

    def snapshot_all_config(self, time: float) -> None:
        self.collector.snapshot_config(time, "db_catalog", self.catalog.snapshot())
        self.collector.snapshot_config(time, "db_config", self.db_config.snapshot())
        self.collector.snapshot_config(time, "san", self.testbed.topology.snapshot())
        self.collector.snapshot_config(time, "access", self.testbed.access.snapshot())

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, duration_s: float, start_s: float = 0.0) -> DiagnosisBundle:
        """Advance the simulated world for ``duration_s`` seconds.

        Delegates to :meth:`advance`: the clock is continuous across calls,
        so a repeated ``run`` extends the same timeline (``start_s`` must
        then be 0 or the current clock — anything else raises).
        """
        self.advance(duration_s, start_s)
        return self.bundle()

    def advance(self, duration_s: float, start_s: float = 0.0) -> float:
        """Advance the world by ``duration_s`` and return the new clock.

        Unlike :meth:`run`, this is incremental: a streaming supervisor calls
        it chunk by chunk, and config snapshots / baseline calibration happen
        only on the very first call.  ``start_s`` is honoured only then.

        Chunks need not be tick multiples: the loop aims at the *cumulative*
        requested duration, so the clock never drifts more than one tick
        ahead of the total asked for, no matter how the chunks divide.

        Re-entrancy: calls are serialised on a per-environment lock, so the
        runtime scheduler may safely submit chunks from any worker thread —
        a second caller blocks until the in-flight chunk completes rather
        than interleaving simulation ticks.
        """
        with self._advance_lock:
            if self._clock is None:
                self._clock = start_s
                self._target = start_s
                self.snapshot_all_config(start_s)
                self._capture_baseline_latencies()
            elif start_s not in (0.0, self._clock):
                raise ValueError(
                    f"environment clock already at t={self._clock:g}; it cannot "
                    f"jump to start_s={start_s:g} (the timeline is continuous)"
                )
            self._target += duration_s
            while self._clock < self._target:
                t = self._clock
                self._fire_scheduled(t)
                for job in self.jobs:
                    for run_at in job.due_at(t, t + self.tick_s):
                        self._execute_job(job, run_at)
                self._monitor_tick(t)
                self._clock = t + self.tick_s
            return self._clock

    def advance_chunks(
        self, duration_s: float, chunk_s: float, start_s: float = 0.0
    ) -> Iterator[float]:
        """Advance ``duration_s`` in ``chunk_s`` steps, yielding after each.

        The cooperative form of :meth:`advance`: the generator returns
        control to its caller at every chunk boundary, which is where the
        runtime scheduler interleaves thousands of environments on a bounded
        worker pool.  The final chunk is clamped so the cumulative duration
        is exact; yields the clock after each completed chunk.
        """
        if chunk_s <= 0:
            raise ValueError("chunk_s must be positive")
        done = 0.0
        while done < duration_s:
            step = min(chunk_s, duration_s - done)
            yield self.advance(step, start_s if done == 0.0 else 0.0)
            done += step

    @property
    def clock(self) -> float:
        """Current simulation time (0.0 before the first advance)."""
        return self._clock if self._clock is not None else 0.0

    @property
    def advance_lock(self) -> threading.RLock:
        """The lock serialising :meth:`advance` calls.

        Readers that must see a *quiescent* environment hold it around their
        reads; the next chunk simply queues behind them.  The one such
        reader is the fleet drill-down's per-member scoring
        (:meth:`repro.stream.WatchedEnvironment.shared_evidence`), which
        runs on a pool thread while the member may be mid-chunk on another.
        """
        return self._advance_lock

    def bundle(self) -> DiagnosisBundle:
        return DiagnosisBundle(
            stores=self.stores,
            testbed=self.testbed,
            catalog=self.catalog,
            db_config=self.db_config,
            initial_catalog=self.initial_catalog,
            initial_config=self.initial_config,
            query_names=[job.name for job in self.jobs],
            query_specs={job.name: job.spec for job in self.jobs},
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _capture_baseline_latencies(self) -> None:
        sample = self.iosim.quiesced_sample()
        for volume in self.testbed.topology.volumes:
            self._baseline_latency[volume.component_id] = sample.volume_read_latency(
                volume.component_id
            )

    def _fire_scheduled(self, t: float) -> None:
        due = [pair for pair in self._scheduled if pair[0] <= t]
        self._scheduled = [pair for pair in self._scheduled if pair[0] > t]
        for when, action in due:
            action(self, max(when, t))

    def _external_loads(self, t: float) -> dict[str, VolumeLoad]:
        loads: dict[str, VolumeLoad] = {}
        for workload in self.external:
            load = workload.load_at(t)
            if load is None:
                continue
            loads[workload.volume_id] = loads.get(workload.volume_id, VolumeLoad()) + load
        return loads

    def _query_loads(self, t: float) -> dict[str, VolumeLoad]:
        loads: dict[str, VolumeLoad] = {}
        for start, stop, qloads, _cpu in self._active_query_windows:
            if start <= t < stop:
                for vol, load in qloads.items():
                    loads[vol] = loads.get(vol, VolumeLoad()) + load
        return loads

    @staticmethod
    def _merge(*parts: dict[str, VolumeLoad]) -> dict[str, VolumeLoad]:
        merged: dict[str, VolumeLoad] = {}
        for part in parts:
            for vol, load in part.items():
                merged[vol] = merged.get(vol, VolumeLoad()) + load
        return merged

    def _plan_for(self, job: QueryJob) -> PlanOperator:
        if job.pinned_plan is not None:
            return job.pinned_plan
        return Optimizer(self.catalog, self.db_config).plan(job.spec)  # type: ignore[arg-type]

    def _execute_job(self, job: QueryJob, run_at: float) -> QueryRun:
        plan = self._plan_for(job)
        # The offered-load estimate uses a fixed per-job baseline duration:
        # IOPS demand is a property of the plan and the data, not of how slow
        # the SAN happens to be this run.
        if job.name not in self._baseline_duration:
            self._baseline_duration[job.name] = self._estimate_duration(plan)
        est_duration = self._baseline_duration[job.name]
        raw_qload = self.executor.estimate_volume_load(
            plan, est_duration, self.data_multipliers
        )
        qloads = {
            vol: VolumeLoad(
                read_iops=spec["read_iops"],
                write_iops=spec["write_iops"],
                sequential_fraction=spec["sequential_fraction"],
            )
            for vol, spec in raw_qload.items()
        }
        combined = self._merge(self._external_loads(run_at), qloads)
        sample = self.iosim.simulate(combined)
        latencies = {
            v.component_id: sample.volume_read_latency(v.component_id)
            for v in self.testbed.topology.volumes
        }
        self._run_counter += 1
        rng = np.random.default_rng(self.seed * 1_000_003 + self._run_counter)
        run = self.executor.execute(
            plan,
            run_at,
            latencies,
            data_multipliers=self.data_multipliers,
            run_id=f"{job.name}#{self._run_counter}",
            query_name=job.name,
            rng=rng,
            cpu_multiplier=self._cpu_multiplier_at(run_at),
        )
        self.collector.collect_query_run(run)
        self._last_duration[job.name] = run.duration
        cpu_share = min(run.db_metrics.get("cpuTime", 0.0) / max(run.duration, 1e-9), 1.0)
        self._active_query_windows.append((run_at, run.end_time, qloads, cpu_share))
        return run

    def _cpu_multiplier_at(self, t: float) -> float:
        factor = 1.0
        for start, stop, multiplier, _pct in self.cpu_contention:
            if start <= t < stop:
                factor *= multiplier
        return factor

    def _estimate_duration(self, plan: PlanOperator) -> float:
        """Calibration run against quiesced latencies (not recorded)."""
        sample = self.iosim.quiesced_sample()
        latencies = {
            v.component_id: sample.volume_read_latency(v.component_id)
            for v in self.testbed.topology.volumes
        }
        probe = self.executor.execute(
            plan,
            0.0,
            latencies,
            data_multipliers=self.data_multipliers,
            run_id="calibration",
            rng=np.random.default_rng(self.seed),
        )
        return probe.duration

    def _monitor_tick(self, t: float) -> None:
        loads = self._merge(self._external_loads(t), self._query_loads(t))
        sample = self.iosim.simulate(loads)
        self.collector.collect_san(t, sample)
        self._emit_degradation_events(t, sample)

        # Server CPU reflects the query's CPU *share*: an I/O-bound slowdown
        # leaves the CPU idler during runs, not busier.  External CPU hogs
        # (cpu-saturation faults) add their own usage.
        cpu = 12.0
        for start, stop, _loads, cpu_share in self._active_query_windows:
            if start <= t < stop:
                cpu += 80.0 * cpu_share
        for start, stop, _mult, server_pct in self.cpu_contention:
            if start <= t < stop:
                cpu += server_pct
        self.collector.collect_server(t, self.testbed.db_server_id, cpu_pct=min(cpu, 98.0))
        total_bytes = sum(
            sample.get(v.component_id, "bytesRead")
            + sample.get(v.component_id, "bytesWritten")
            for v in self.testbed.topology.volumes
        )
        for switch in self.testbed.topology.switches:
            self.collector.collect_network(t, switch.component_id, total_bytes)
        self.collector.collect_db_tick(t, locks_held=float(self.executor.locks.locks_held(t)))

    def _emit_degradation_events(self, t: float, sample: SanPerfSample) -> None:
        """User-defined trigger: volume response time over 3x its baseline."""
        for volume in self.testbed.topology.volumes:
            vid = volume.component_id
            baseline = self._baseline_latency.get(vid)
            if baseline is None or baseline <= 0:
                continue
            if sample.volume_read_latency(vid) <= 3.0 * baseline:
                continue
            if t < self._degraded_alert_until.get(vid, -1.0):
                continue
            self._degraded_alert_until[vid] = t + 3600.0  # 1h cooldown per volume
            self.log_san_event(
                SanEvent(
                    time=t,
                    kind=SanEventKind.VOLUME_PERF_DEGRADED,
                    component_id=vid,
                    details={"readTime": round(sample.volume_read_latency(vid), 2)},
                )
            )
