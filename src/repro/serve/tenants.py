"""Tenant registry: ids → keyspace prefixes, with a durable manifest.

One serve state root hosts many tenants over **one** shared
:class:`~repro.storage.StorageBackend`.  A tenant is three things:

* an id (``[a-z0-9][a-z0-9_-]*``, max 32 chars — it becomes part of
  keyspace/segment names, so the alphabet is the storage-safe one);
* a keyspace prefix (``t_<id>__``) that scopes every store the tenant's
  fleet touches — incidents, fleet incidents, fleet events — to its own
  slice of the shared backend (see
  :class:`~repro.storage.prefix.PrefixedBackend`);
* a per-tenant state directory (``<root>/tenants/<id>/``) holding the
  watch's resume checkpoint.

The manifest (``<root>/tenants.json``) is the durable source of truth:
tenant ids, prefixes, and each tenant's fleet spec + whether its watch was
running.  It is atomically replaced on every mutation, so a SIGKILLed
server restarts knowing exactly which tenants' watches to resume.

This module is the **only** place keyspace prefixes are minted: no other
module constructs a :class:`PrefixedBackend`, and handlers get a tenant's
view from :meth:`TenantRegistry.backend_for`.  A prefix minted anywhere else
could overlap a tenant's and silently break isolation.
"""

from __future__ import annotations

import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..storage.backend import atomic_write_json
from ..storage.prefix import PrefixedBackend

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.backend import StorageBackend

__all__ = ["Tenant", "TenantRegistry"]

_MANIFEST = "tenants.json"
_TENANT_ID = re.compile(r"^[a-z0-9][a-z0-9_-]{0,31}$")


@dataclass
class Tenant:
    """One tenant: identity, keyspace prefix, and its (optional) fleet."""

    tenant_id: str
    prefix: str
    created_seq: int
    #: The tenant's fleet spec (``FleetSpec.to_dict()`` form) plus a
    #: ``"running"`` flag — None until a fleet is created.
    watch: dict | None = field(default=None)

    def to_dict(self) -> dict:
        return {
            "tenant_id": self.tenant_id,
            "prefix": self.prefix,
            "created_seq": self.created_seq,
            "watch": self.watch,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Tenant":
        return cls(
            tenant_id=data["tenant_id"],
            prefix=data["prefix"],
            created_seq=data["created_seq"],
            watch=data.get("watch"),
        )


class TenantRegistry:
    """Durable tenant directory over one shared backend.

    All mutations rewrite the manifest atomically before returning, so the
    registry a restarted server loads is never mid-transition.  Methods are
    synchronous (tiny JSON writes); the serve app bridges them through
    ``Scheduler.call`` so HTTP handlers stay non-blocking.
    """

    def __init__(
        self, state_root: str | Path, shared_backend: "StorageBackend"
    ) -> None:
        self.state_root = Path(state_root)
        self.shared_backend = shared_backend
        self.state_root.mkdir(parents=True, exist_ok=True)
        self._tenants: dict[str, Tenant] = {}
        self._next_seq = 0
        self._load()

    @property
    def manifest_path(self) -> Path:
        return self.state_root / _MANIFEST

    def _load(self) -> None:
        if not self.manifest_path.exists():
            return
        import json

        data = json.loads(self.manifest_path.read_text())
        self._next_seq = data.get("next_seq", 0)
        self._tenants = {
            tid: Tenant.from_dict(t) for tid, t in data.get("tenants", {}).items()
        }

    def _save(self) -> None:
        atomic_write_json(
            self.manifest_path,
            {
                "version": 1,
                "next_seq": self._next_seq,
                "tenants": {
                    tid: t.to_dict() for tid, t in sorted(self._tenants.items())
                },
            },
            indent=2,
            sort_keys=True,
        )

    # -- lifecycle -------------------------------------------------------
    def create(self, tenant_id: str) -> Tenant:
        if not _TENANT_ID.match(tenant_id):
            raise ValueError(
                f"invalid tenant id {tenant_id!r} "
                "(want [a-z0-9][a-z0-9_-]*, max 32 chars)"
            )
        if tenant_id in self._tenants:
            raise ValueError(f"tenant {tenant_id!r} already exists")
        tenant = Tenant(
            tenant_id=tenant_id,
            prefix=f"t_{tenant_id}__",
            created_seq=self._next_seq,
        )
        self._next_seq += 1
        self._tenants[tenant_id] = tenant
        self._save()
        return tenant

    def get(self, tenant_id: str) -> Tenant:
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise KeyError(f"unknown tenant {tenant_id!r}")
        return tenant

    def list(self) -> list[Tenant]:
        return sorted(self._tenants.values(), key=lambda t: t.created_seq)

    def delete(self, tenant_id: str) -> Tenant:
        """Drop a tenant from the manifest and remove its state dir.

        The tenant's journalled records remain in the shared backend
        (append-only segments are never rewritten here); without a manifest
        entry its prefix is unreachable through the registry, and a future
        tenant with the same id starts a fresh journal *appended after* the
        orphaned one — ``repro`` stores fold journals idempotently, so old
        open-tickets are superseded, not resurrected.
        """
        tenant = self.get(tenant_id)
        del self._tenants[tenant_id]
        self._save()
        tenant_dir = self.state_root / "tenants" / tenant_id
        if tenant_dir.exists():
            shutil.rmtree(tenant_dir, ignore_errors=True)
        return tenant

    def set_watch(self, tenant_id: str, watch: dict | None) -> Tenant:
        """Durably record the tenant's fleet spec / running flag."""
        tenant = self.get(tenant_id)
        tenant.watch = watch
        self._save()
        return tenant

    # -- per-tenant views ------------------------------------------------
    def backend_for(self, tenant: Tenant) -> PrefixedBackend:
        """The tenant's slice of the shared backend (sole minting site)."""
        return PrefixedBackend(self.shared_backend, tenant.prefix)

    def tenant_dir(self, tenant: Tenant) -> Path:
        """The tenant's checkpoint directory (created on demand)."""
        path = self.state_root / "tenants" / tenant.tenant_id
        path.mkdir(parents=True, exist_ok=True)
        return path

    def __len__(self) -> int:
        return len(self._tenants)

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._tenants
