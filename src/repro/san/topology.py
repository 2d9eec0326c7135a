"""SAN topology: the connectivity graph over components.

The topology answers the structural questions the APG needs:

* which disks does a volume's data physically live on,
* which other volumes share those disks (the *outer* dependency path),
* what is the end-to-end I/O path from a server to a volume (the *inner*
  dependency path): server → HBA → switch fabric → subsystem → pool → volume
  → disks.

Edges are stored directed "downstream" (from initiator toward storage), but
both directions can be traversed.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from .components import (
    Component,
    Disk,
    FcSwitch,
    Hba,
    Server,
    StoragePool,
    StorageSubsystem,
    Volume,
)

__all__ = ["SanTopology", "TopologyError"]


class TopologyError(ValueError):
    """Raised for malformed topology operations (unknown ids, duplicates...)."""


class SanTopology:
    """Mutable component graph with typed lookups and path queries."""

    def __init__(self) -> None:
        self._components: dict[str, Component] = {}
        self._children: dict[str, list[str]] = {}
        self._parents: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, component: Component) -> Component:
        """Register a component; id must be unique."""
        cid = component.component_id
        if cid in self._components:
            raise TopologyError(f"duplicate component id {cid!r}")
        self._components[cid] = component
        self._children[cid] = []
        self._parents[cid] = []
        return component

    def remove(self, component_id: str) -> Component:
        """Remove a component and all edges touching it."""
        component = self.get(component_id)
        for child in list(self._children[component_id]):
            self._parents[child].remove(component_id)
        for parent in list(self._parents[component_id]):
            self._children[parent].remove(component_id)
        del self._children[component_id]
        del self._parents[component_id]
        del self._components[component_id]
        return component

    def connect(self, upstream_id: str, downstream_id: str) -> None:
        """Add a directed downstream edge (initiator side → storage side)."""
        if upstream_id not in self._components:
            raise TopologyError(f"unknown component {upstream_id!r}")
        if downstream_id not in self._components:
            raise TopologyError(f"unknown component {downstream_id!r}")
        if downstream_id in self._children[upstream_id]:
            return
        self._children[upstream_id].append(downstream_id)
        self._parents[downstream_id].append(upstream_id)

    def disconnect(self, upstream_id: str, downstream_id: str) -> None:
        """Remove a downstream edge if present."""
        if downstream_id in self._children.get(upstream_id, []):
            self._children[upstream_id].remove(downstream_id)
            self._parents[downstream_id].remove(upstream_id)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def get(self, component_id: str) -> Component:
        try:
            return self._components[component_id]
        except KeyError:
            raise TopologyError(f"unknown component {component_id!r}") from None

    def __contains__(self, component_id: str) -> bool:
        return component_id in self._components

    def __iter__(self) -> Iterator[Component]:
        return iter(self._components.values())

    def __len__(self) -> int:
        return len(self._components)

    def children(self, component_id: str) -> list[Component]:
        return [self._components[c] for c in self._children.get(component_id, [])]

    def parents(self, component_id: str) -> list[Component]:
        return [self._components[p] for p in self._parents.get(component_id, [])]

    @property
    def servers(self) -> list[Server]:
        return [c for c in self._components.values() if isinstance(c, Server)]

    @property
    def volumes(self) -> list[Volume]:
        return [c for c in self._components.values() if isinstance(c, Volume)]

    @property
    def disks(self) -> list[Disk]:
        return [c for c in self._components.values() if isinstance(c, Disk)]

    @property
    def pools(self) -> list[StoragePool]:
        return [c for c in self._components.values() if isinstance(c, StoragePool)]

    @property
    def subsystems(self) -> list[StorageSubsystem]:
        return [c for c in self._components.values() if isinstance(c, StorageSubsystem)]

    @property
    def switches(self) -> list[FcSwitch]:
        return [c for c in self._components.values() if isinstance(c, FcSwitch)]

    # ------------------------------------------------------------------
    # storage-mapping queries
    # ------------------------------------------------------------------
    def pool_of_volume(self, volume_id: str) -> StoragePool:
        volume = self.get(volume_id)
        if not isinstance(volume, Volume):
            raise TopologyError(f"{volume_id!r} is not a volume")
        pool = self.get(volume.pool_id)
        if not isinstance(pool, StoragePool):
            raise TopologyError(f"volume {volume_id!r} references non-pool {volume.pool_id!r}")
        return pool

    def subsystem_of_volume(self, volume_id: str) -> StorageSubsystem:
        pool = self.pool_of_volume(volume_id)
        subsystem = self.get(pool.subsystem_id)
        if not isinstance(subsystem, StorageSubsystem):
            raise TopologyError(f"pool {pool.component_id!r} has no subsystem")
        return subsystem

    def disks_of_pool(self, pool_id: str) -> list[Disk]:
        pool = self.get(pool_id)
        if not isinstance(pool, StoragePool):
            raise TopologyError(f"{pool_id!r} is not a pool")
        return [c for c in self.children(pool_id) if isinstance(c, Disk)]

    def disks_of_volume(self, volume_id: str) -> list[Disk]:
        """Disks the volume's data is striped over.

        Explicit volume→disk edges win (sub-pool striping); otherwise the
        volume spans every disk of its pool.
        """
        explicit = [c for c in self.children(volume_id) if isinstance(c, Disk)]
        if explicit:
            return explicit
        return self.disks_of_pool(self.get_volume(volume_id).pool_id)

    def get_volume(self, volume_id: str) -> Volume:
        volume = self.get(volume_id)
        if not isinstance(volume, Volume):
            raise TopologyError(f"{volume_id!r} is not a volume")
        return volume

    def volumes_of_pool(self, pool_id: str) -> list[Volume]:
        return [v for v in self.volumes if v.pool_id == pool_id]

    def volumes_sharing_disks(self, volume_id: str) -> list[Volume]:
        """Other volumes whose data shares at least one disk with ``volume_id``.

        These are the volume-level members of an operator's *outer*
        dependency path (Section 3).
        """
        own = {d.component_id for d in self.disks_of_volume(volume_id)}
        sharing = []
        for other in self.volumes:
            if other.component_id == volume_id:
                continue
            theirs = {d.component_id for d in self.disks_of_volume(other.component_id)}
            if own & theirs:
                sharing.append(other)
        return sharing

    # ------------------------------------------------------------------
    # path queries
    # ------------------------------------------------------------------
    def fabric_path(self, server_id: str, volume_id: str) -> list[Component]:
        """Shortest connectivity path server → ... → subsystem owning the volume.

        Traverses server/HBA/port/switch edges downstream (BFS) until the
        volume's subsystem is reached.  Raises :class:`TopologyError` when no
        path exists (e.g., zoning edges were never wired).
        """
        subsystem = self.subsystem_of_volume(volume_id)
        target = subsystem.component_id
        if server_id not in self._components:
            raise TopologyError(f"unknown server {server_id!r}")
        queue: deque[list[str]] = deque([[server_id]])
        seen = {server_id}
        while queue:
            path = queue.popleft()
            tail = path[-1]
            if tail == target:
                return [self._components[cid] for cid in path]
            for child_id in self._children[tail]:
                if child_id in seen:
                    continue
                seen.add(child_id)
                queue.append(path + [child_id])
        raise TopologyError(f"no fabric path from {server_id!r} to volume {volume_id!r}")

    def io_path(self, server_id: str, volume_id: str) -> list[Component]:
        """Full inner dependency chain: fabric path + pool + volume + disks."""
        path = self.fabric_path(server_id, volume_id)
        pool = self.pool_of_volume(volume_id)
        return path + [pool, self.get_volume(volume_id)] + list(self.disks_of_volume(volume_id))

    # ------------------------------------------------------------------
    # snapshots (for the config store)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ish structural snapshot used for configuration diffing."""
        return {
            "components": {
                cid: {"type": comp.ctype.value, "name": comp.name}
                for cid, comp in sorted(self._components.items())
            },
            "edges": sorted(
                (parent, child)
                for parent, children in self._children.items()
                for child in children
            ),
            "volume_pools": {
                v.component_id: v.pool_id for v in sorted(self.volumes, key=lambda v: v.component_id)
            },
        }

    def validate(self) -> list[str]:
        """Structural sanity check; returns a list of problems (empty = ok)."""
        problems = []
        for volume in self.volumes:
            if volume.pool_id not in self._components:
                problems.append(f"volume {volume.component_id} references missing pool")
            elif not self.disks_of_volume(volume.component_id):
                problems.append(f"volume {volume.component_id} has no disks")
        for pool in self.pools:
            if pool.subsystem_id not in self._components:
                problems.append(f"pool {pool.component_id} references missing subsystem")
        for hba in (c for c in self if isinstance(c, Hba)):
            if hba.server_id not in self._components:
                problems.append(f"hba {hba.component_id} references missing server")
        return problems
