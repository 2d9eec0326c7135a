"""Keyspace-prefixed view of a backend: multi-tenant isolation by naming.

``repro serve`` hosts many tenants over **one** shared ``StorageBackend``
under one state root.  Rather than a backend instance (and a directory, and
a set of file handles) per tenant, each tenant gets a
:class:`PrefixedBackend` — a thin view that rewrites every keyspace name
through a fixed prefix (``incidents`` → ``t_acme__incidents``) on the way
down and strips it on the way back up.  The stores built on top
(:class:`~repro.stream.IncidentStore`, :class:`~repro.stream.FleetEventLog`,
:class:`~repro.correlate.FleetIncidentStore`) keep using their registered
keyspace constants unchanged, so the keyspace-registry lint still holds; the
prefix is invisible above this layer.

Isolation is by construction: a scan through one tenant's view can only ever
name that tenant's keyspaces, so two tenants running the *same* scenario
with the *same* environment names in one state root never read each other's
records.  Prefixes are minted only by the tenant registry
(:class:`repro.serve.tenants.TenantRegistry`); no other module constructs
a view.

``close()`` on a view only flushes: the shared backend outlives any one
tenant and is closed by its owner (the serve app) at shutdown.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .backend import Record, StorageBackend

__all__ = ["PrefixedBackend"]

#: Characters allowed in a prefix — must survive every backend's keyspace
#: validation (jsonl forbids path separators and leading dots).
_ALLOWED = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")


def _safe_prefix(prefix: str) -> str:
    if not prefix or prefix[0] == "." or not set(prefix) <= _ALLOWED:
        raise ValueError(f"invalid keyspace prefix {prefix!r}")
    return prefix


class PrefixedBackend:
    """A :class:`StorageBackend` view with every keyspace name prefixed."""

    def __init__(self, inner: StorageBackend, prefix: str) -> None:
        self.inner = inner
        self.prefix = _safe_prefix(prefix)

    def _down(self, keyspace: str) -> str:
        return self.prefix + keyspace

    # -- protocol --------------------------------------------------------
    def append(self, keyspace: str, record: Record) -> None:
        self.inner.append(self._down(keyspace), record)

    def append_many(self, keyspace: str, records: Iterable[Record]) -> int:
        return self.inner.append_many(self._down(keyspace), records)

    def scan(self, keyspace: str, *, key: str | None = None) -> Iterator[Record]:
        return self.inner.scan(self._down(keyspace), key=key)

    def keyspaces(self) -> list[str]:
        n = len(self.prefix)
        return sorted(
            name[n:] for name in self.inner.keyspaces() if name.startswith(self.prefix)
        )

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        # The shared backend outlives this view; its owner closes it.
        self.inner.flush()

    # -- optional capability: the JSONL backend's cross-process refresh
    def refresh(self) -> int:
        refresh = getattr(self.inner, "refresh", None)
        return refresh() if refresh is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PrefixedBackend({self.prefix!r}, {self.inner!r})"
