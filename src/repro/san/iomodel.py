"""Analytical I/O model: volume loads → disk contention → latencies/metrics.

This is the substrate that makes the paper's fault scenarios *mechanically*
real: an external workload written to a new volume V′ that happens to share
spindles with V1 drives up the utilisation of those disks, which inflates V1's
service times and therefore the running time of every query operator whose
tablespace lives on V1.

Model
-----
Per simulation tick, every volume has an offered load (:class:`VolumeLoad`).
The subsystem cache absorbs a fraction of reads (larger for sequential
streams) and of writes (write-back cache).  The residual I/Os are spread
evenly over the volume's disks; RAID write penalty multiplies back-end
writes.  Each disk then behaves like an M/M/1 server: with utilisation
``rho = iops / max_iops``, its latency is ``service_time / (1 - rho)``
(capped).  Volume response times combine cache hits with the average latency
of their disks; fabric transit adds a fixed overhead.

The model emits one flat metric sample per tick covering disks, volumes,
pools, subsystems, switches and HBA ports, using the storage-metric names of
Figure 4 / Table 2 (``readIO``, ``writeTime``, ``bytesRead``...).

Volume read/write counts are reported as *back-end* (rank-level) numbers, the
way enterprise controllers such as the paper's DS6000 expose them: the
activity of every volume co-located on the same disks is visible in each
volume's back-end counters.  This is what makes V1's ``writeIO`` anomalous in
Table 2 even though the contending writes target V′.  Front-end (host-issued)
counters are also emitted with a ``frontend`` prefix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from .components import ComponentType, Disk, FcPort, Hba, StoragePool, StorageSubsystem
from .topology import SanTopology

__all__ = ["VolumeLoad", "SanPerfSample", "IoSimulator", "MAX_UTILISATION"]

#: Utilisation is clamped below 1.0 so the latency curve stays finite.
MAX_UTILISATION = 0.95

#: Fixed fabric transit time added to every volume response (ms).
FABRIC_LATENCY_MS = 0.15

#: Background read IOPS a RAID rebuild imposes on every disk of the affected
#: pool (peers are read to reconstruct the rebuilding member).
REBUILD_PEER_IOPS = 45.0


@dataclass(frozen=True)
class VolumeLoad:
    """Offered I/O load on one volume during one tick."""

    read_iops: float = 0.0
    write_iops: float = 0.0
    read_kb: float = 8.0
    write_kb: float = 8.0
    sequential_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.read_iops < 0 or self.write_iops < 0:
            raise ValueError("iops must be non-negative")
        if not 0.0 <= self.sequential_fraction <= 1.0:
            raise ValueError("sequential_fraction must be in [0, 1]")

    def __add__(self, other: "VolumeLoad") -> "VolumeLoad":
        total_read = self.read_iops + other.read_iops
        total_write = self.write_iops + other.write_iops

        def _mix(a_w: float, a_v: float, b_w: float, b_v: float, default: float) -> float:
            if a_w + b_w <= 0:
                return default
            return (a_w * a_v + b_w * b_v) / (a_w + b_w)

        return VolumeLoad(
            read_iops=total_read,
            write_iops=total_write,
            read_kb=_mix(self.read_iops, self.read_kb, other.read_iops, other.read_kb, 8.0),
            write_kb=_mix(self.write_iops, self.write_kb, other.write_iops, other.write_kb, 8.0),
            sequential_fraction=_mix(
                self.read_iops + self.write_iops,
                self.sequential_fraction,
                other.read_iops + other.write_iops,
                other.sequential_fraction,
                0.0,
            ),
        )

    @property
    def total_iops(self) -> float:
        return self.read_iops + self.write_iops


@dataclass
class SanPerfSample:
    """Flat metric sample: ``(component_id, metric) -> value`` for one tick."""

    values: dict[tuple[str, str], float] = field(default_factory=dict)

    def set(self, component_id: str, metric: str, value: float) -> None:
        self.values[(component_id, metric)] = float(value)

    def get(self, component_id: str, metric: str, default: float = 0.0) -> float:
        return self.values.get((component_id, metric), default)

    def metrics_for(self, component_id: str) -> dict[str, float]:
        return {
            metric: value
            for (cid, metric), value in self.values.items()
            if cid == component_id
        }

    def volume_read_latency(self, volume_id: str) -> float:
        return self.get(volume_id, "readTime")

    def volume_write_latency(self, volume_id: str) -> float:
        return self.get(volume_id, "writeTime")


class IoSimulator:
    """Evaluates the analytical model for one topology.

    The simulator is stateless across ticks: contention is entirely
    determined by the per-tick offered loads, which keeps the model easy to
    reason about and to test.  Degraded disks (``failed`` or under RAID
    rebuild) are handled by capacity scaling.
    """

    def __init__(self, topology: SanTopology) -> None:
        self._topology = topology
        #: disks currently rebuilding: id -> capacity multiplier (< 1)
        self._rebuild_slowdown: dict[str, float] = {}
        #: degraded fabric switches: id -> (extra transit ms, error frames)
        self._switch_degradation: dict[str, tuple[float, float]] = {}

    @property
    def topology(self) -> SanTopology:
        return self._topology

    # -- degradation hooks (used by the fault injector) -----------------
    def start_rebuild(self, disk_id: str, capacity_factor: float = 0.6) -> None:
        """Mark a disk as rebuilding; it retains ``capacity_factor`` of IOPS."""
        if not 0.05 <= capacity_factor <= 1.0:
            raise ValueError("capacity_factor must be in [0.05, 1.0]")
        self._topology.get(disk_id)  # validate id
        self._rebuild_slowdown[disk_id] = capacity_factor

    def finish_rebuild(self, disk_id: str) -> None:
        self._rebuild_slowdown.pop(disk_id, None)

    @property
    def rebuilding_disks(self) -> set[str]:
        return set(self._rebuild_slowdown)

    def degrade_switch(
        self, switch_id: str, extra_latency_ms: float, error_frames: float = 25.0
    ) -> None:
        """Mark a fabric switch as degraded: every I/O transiting the fabric
        pays ``extra_latency_ms`` more, and the switch reports error frames.

        This models port congestion / CRC storms on a shared fabric element —
        the fault a shared-switch correlation scenario injects once and every
        environment attached to the fabric feels.
        """
        if extra_latency_ms < 0:
            raise ValueError("extra_latency_ms must be non-negative")
        self._topology.get(switch_id)  # validate id
        self._switch_degradation[switch_id] = (extra_latency_ms, error_frames)

    def restore_switch(self, switch_id: str) -> None:
        self._switch_degradation.pop(switch_id, None)

    @property
    def degraded_switches(self) -> set[str]:
        return set(self._switch_degradation)

    # -- core model ------------------------------------------------------
    def simulate(self, loads: Mapping[str, VolumeLoad]) -> SanPerfSample:
        """Compute one tick of per-component metrics for the offered loads."""
        topo = self._topology
        sample = SanPerfSample()

        # 1. Cache filtering + fan-out of residual volume I/O onto disks.
        disk_read_iops: dict[str, float] = {d.component_id: 0.0 for d in topo.disks}
        disk_write_iops: dict[str, float] = dict(disk_read_iops)
        volume_miss: dict[str, tuple[float, float]] = {}
        cache_hits: dict[str, float] = {s.component_id: 0.0 for s in topo.subsystems}
        cache_refs: dict[str, float] = dict(cache_hits)

        for volume_id, load in loads.items():
            if volume_id not in topo:
                continue
            subsystem = topo.subsystem_of_volume(volume_id)
            pool = topo.pool_of_volume(volume_id)
            disks = [d for d in topo.disks_of_volume(volume_id) if not d.failed]
            if not disks:
                continue
            hit = min(
                subsystem.read_cache_hit
                + subsystem.sequential_prefetch_bonus * load.sequential_fraction,
                0.98,
            )
            miss_read = load.read_iops * (1.0 - hit)
            backend_write = (
                load.write_iops
                * (1.0 - subsystem.write_cache_absorption)
                * pool.write_penalty
            )
            volume_miss[volume_id] = (miss_read, backend_write)
            cache_refs[subsystem.component_id] += load.read_iops
            cache_hits[subsystem.component_id] += load.read_iops * hit
            for disk in disks:
                disk_read_iops[disk.component_id] += miss_read / len(disks)
                disk_write_iops[disk.component_id] += backend_write / len(disks)

        # 1b. RAID rebuilds load every disk of the affected pool: peers are
        # read to reconstruct the rebuilding member.
        rebuilding_pools = {
            topo.get(disk_id).pool_id for disk_id in self._rebuild_slowdown
        }
        rebuild_extra: dict[str, float] = {}
        for pool_id in rebuilding_pools:
            if pool_id not in topo:
                continue
            for disk in topo.disks_of_pool(pool_id):
                rebuild_extra[disk.component_id] = REBUILD_PEER_IOPS

        # 2. Per-disk utilisation and latency.
        disk_latency: dict[str, float] = {}
        for disk in topo.disks:
            did = disk.component_id
            capacity = disk.max_iops * self._rebuild_slowdown.get(did, 1.0)
            iops = disk_read_iops[did] + disk_write_iops[did] + rebuild_extra.get(did, 0.0)
            utilisation = min(iops / capacity, MAX_UTILISATION) if capacity > 0 else MAX_UTILISATION
            latency = disk.service_time_ms / max(1.0 - utilisation, 1.0 - MAX_UTILISATION)
            disk_latency[did] = latency
            sample.set(did, "iops", iops)
            sample.set(did, "utilisation", utilisation)
            sample.set(did, "latency", latency)
            sample.set(did, "rebuilding", 1.0 if did in self._rebuild_slowdown else 0.0)

        # 3. Volume metrics (front-end + back-end) and response times.
        # A degraded switch adds transit time to every volume response (the
        # paper's testbed has a single fabric; all I/O crosses it).
        fabric_extra_ms = sum(
            extra for extra, _frames in self._switch_degradation.values()
        )
        for volume in topo.volumes:
            vid = volume.component_id
            load = loads.get(vid, VolumeLoad())
            subsystem = topo.subsystem_of_volume(vid)
            disks = [d for d in topo.disks_of_volume(vid) if not d.failed]
            if disks:
                avg_disk_latency = sum(disk_latency[d.component_id] for d in disks) / len(disks)
            else:
                avg_disk_latency = 50.0  # all spindles dead: saturated fallback
            hit = min(
                subsystem.read_cache_hit
                + subsystem.sequential_prefetch_bonus * load.sequential_fraction,
                0.98,
            )
            read_time = (
                FABRIC_LATENCY_MS
                + fabric_extra_ms
                + hit * subsystem.cache_latency_ms
                + (1.0 - hit) * avg_disk_latency
            )
            write_time = (
                FABRIC_LATENCY_MS
                + fabric_extra_ms
                + subsystem.write_cache_absorption * subsystem.cache_latency_ms
                + (1.0 - subsystem.write_cache_absorption) * avg_disk_latency
            )
            backend_read = sum(disk_read_iops[d.component_id] for d in disks)
            backend_write = sum(disk_write_iops[d.component_id] for d in disks)
            sample.set(vid, "readIO", backend_read)
            sample.set(vid, "writeIO", backend_write)
            sample.set(vid, "readTime", read_time)
            sample.set(vid, "writeTime", write_time)
            sample.set(vid, "frontendReadIO", load.read_iops)
            sample.set(vid, "frontendWriteIO", load.write_iops)
            sample.set(vid, "bytesRead", load.read_iops * load.read_kb * 1024.0)
            sample.set(vid, "bytesWritten", load.write_iops * load.write_kb * 1024.0)
            sample.set(vid, "seqReadRequests", load.read_iops * load.sequential_fraction)
            sample.set(vid, "seqWriteRequests", load.write_iops * load.sequential_fraction)
            sample.set(vid, "totalIOs", load.total_iops)

        # 4. Pool roll-ups.
        for pool in topo.pools:
            disks = topo.disks_of_pool(pool.component_id)
            if not disks:
                continue
            pid = pool.component_id
            sample.set(pid, "totalIOs", sum(sample.get(d.component_id, "iops") for d in disks))
            sample.set(
                pid,
                "avgLatency",
                sum(disk_latency[d.component_id] for d in disks) / len(disks),
            )
            sample.set(
                pid,
                "maxUtilisation",
                max(sample.get(d.component_id, "utilisation") for d in disks),
            )

        # 5. Subsystem + fabric roll-ups.
        total_bytes = sum(
            sample.get(v.component_id, "bytesRead") + sample.get(v.component_id, "bytesWritten")
            for v in topo.volumes
        )
        for subsystem in topo.subsystems:
            sid = subsystem.component_id
            refs = cache_refs.get(sid, 0.0)
            sample.set(sid, "totalIOs", sum(l.total_iops for l in loads.values()))
            sample.set(sid, "cacheHitRate", cache_hits.get(sid, 0.0) / refs if refs else 0.0)
            sample.set(
                sid,
                "physicalStorageReadOps",
                sum(miss for miss, _ in volume_miss.values()),
            )
            sample.set(
                sid,
                "physicalStorageWriteOps",
                sum(w for _, w in volume_miss.values()),
            )

        for switch in topo.switches:
            swid = switch.component_id
            _extra, frames = self._switch_degradation.get(swid, (0.0, 0.0))
            sample.set(swid, "bytesTransmitted", total_bytes / max(len(topo.switches), 1))
            sample.set(swid, "bytesReceived", total_bytes / max(len(topo.switches), 1))
            sample.set(swid, "errorFrames", frames)
            sample.set(swid, "linkFailures", 0.0)

        for component in topo:
            if isinstance(component, (Hba, FcPort)):
                sample.set(component.component_id, "bytesTransferred", total_bytes)

        return sample

    # -- conveniences ------------------------------------------------------
    def quiesced_sample(self) -> SanPerfSample:
        """Metrics under zero load (baseline latencies)."""
        return self.simulate({})


def scaled(load: VolumeLoad, factor: float) -> VolumeLoad:
    """A copy of ``load`` with IOPS multiplied by ``factor``."""
    if factor < 0:
        raise ValueError("factor must be non-negative")
    return replace(load, read_iops=load.read_iops * factor, write_iops=load.write_iops * factor)
