"""Monitoring substrate: noisy sampled metrics, events, config, run store.

Every store accepts an optional ``backend`` (any
:class:`repro.storage.StorageBackend`) through which mutations are
journalled; :class:`MonitoringStores` bundles the four, wires them to one
backend (``with_backend``) and adds ``open(state_dir)`` durability.
"""

from .timeseries import MetricStore, Sample
from .events import DB_EVENT_KINDS, EventLog, EventRecord
from .configstore import ConfigChange, ConfigStore, flatten
from .runstore import RunStore
from .collector import Collector, MetricTap, MonitoringStores, RunTap, DB_COMPONENT

__all__ = [
    "MetricStore",
    "Sample",
    "EventLog",
    "EventRecord",
    "DB_EVENT_KINDS",
    "ConfigStore",
    "ConfigChange",
    "flatten",
    "RunStore",
    "Collector",
    "MetricTap",
    "RunTap",
    "MonitoringStores",
    "DB_COMPONENT",
]
