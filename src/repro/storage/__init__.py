"""repro.storage — one backend protocol under every store.

One backend contract (:class:`StorageBackend`: append, scan a keyspace or
one key of it, flush, close) carries every kind of telemetry the system
records — raw metric observations, query runs with labels, configuration
snapshots, events, and incident journals.  Two implementations ship here:

* :class:`MemoryBackend` — per-keyspace record lists held by reference
  (zero-copy appends; the historical in-memory behaviour);
* :class:`JsonlBackend` — the one durable backend: append-only JSONL
  segment files per keyspace with an in-memory index, replayed on open;
  crash-safe because segments are only ever appended to (torn tails from a
  mid-append crash are ignored on replay and reclaimed by the next writer).

The four monitor stores sit on one backend through
:class:`repro.monitor.MonitoringStores`; :mod:`repro.storage.serializers`
holds the lossless dict serializers shared by journal records,
``DiagnosisBundle.save()`` / ``load()``, and the fleet supervisor's resume
checkpoints.

Implementing a third-party backend is a matter of satisfying the protocol —
see the "storage backend how-to" section of the README.
"""

from . import keyspaces
from .backend import MemoryBackend, Record, StorageBackend, atomic_write_json
from .jsonl import JsonlBackend
from .prefix import PrefixedBackend
from .serializers import (
    access_from_dict,
    access_to_dict,
    catalog_from_dict,
    catalog_to_dict,
    component_from_dict,
    component_to_dict,
    dbconfig_from_dict,
    dbconfig_to_dict,
    plan_from_dict,
    plan_to_dict,
    run_from_dict,
    run_to_dict,
    spec_from_dict,
    spec_to_dict,
    testbed_from_dict,
    testbed_to_dict,
    topology_from_dict,
    topology_to_dict,
)

__all__ = [
    "keyspaces",
    "StorageBackend",
    "Record",
    "atomic_write_json",
    "MemoryBackend",
    "JsonlBackend",
    "PrefixedBackend",
    "plan_to_dict",
    "plan_from_dict",
    "run_to_dict",
    "run_from_dict",
    "dbconfig_to_dict",
    "dbconfig_from_dict",
    "catalog_to_dict",
    "catalog_from_dict",
    "spec_to_dict",
    "spec_from_dict",
    "component_to_dict",
    "component_from_dict",
    "topology_to_dict",
    "topology_from_dict",
    "access_to_dict",
    "access_from_dict",
    "testbed_to_dict",
    "testbed_from_dict",
]
