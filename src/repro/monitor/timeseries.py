"""Time-series metric store with interval sampling and measurement noise.

The paper's second challenge (Section 1.1) is *inaccuracy in monitoring
data*: production monitors sample at 5-minute (or coarser) intervals, so
instantaneous spikes get averaged away, and values carry noise.  This store
reproduces both distortions:

* raw per-tick values pushed by the collector are **averaged per sampling
  bucket** (default 300 s), so a 60-second burst inside a bucket shrinks by
  the duty cycle before DIADS ever sees it;
* each emitted sample receives deterministic multiplicative Gaussian noise
  (seeded per series and bucket, so reruns are reproducible).

DIADS only ever reads the bucketed, noisy view — never the raw values — just
like the real tool only sees what IBM TPC recorded.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..storage.keyspaces import METRICS

if TYPE_CHECKING:  # pragma: no cover
    from ..storage.backend import StorageBackend

__all__ = ["Sample", "MetricStore"]


@dataclass(frozen=True)
class Sample:
    """One monitored observation."""

    time: float
    value: float


def _bucket_noise(seed: int, key: tuple[str, str], bucket: int, sigma: float) -> float:
    """Deterministic multiplicative noise for one series bucket."""
    if sigma <= 0.0:
        return 1.0
    digest = hashlib.blake2b(
        f"{seed}|{key[0]}|{key[1]}|{bucket}".encode(), digest_size=8
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    return float(max(rng.normal(loc=1.0, scale=sigma), 0.0))


@dataclass
class MetricStore:
    """Bucketing, noising metric store keyed by (component_id, metric)."""

    interval_s: float = 300.0
    noise_sigma: float = 0.05
    seed: int = 0
    # guarded-by: _cache_lock
    _raw: dict[tuple[str, str], list[Sample]] = field(default_factory=dict, repr=False)
    # guarded-by: _cache_lock
    _cache: dict[tuple[str, str], list[Sample]] = field(default_factory=dict, repr=False)
    #: Guards lazy _cache fills *and* the append path: concurrent diagnoses
    #: (diagnose_many) read the store from worker threads while series()
    #: populates the cache, and streaming supervisors append from other
    #: worker threads.  Without a locked append, record() could invalidate a
    #: key concurrently with a series() fill and leave a stale cache behind.
    _cache_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    #: Optional :class:`repro.storage.StorageBackend` the store journals raw
    #: observations through (duck-typed so the monitor layer stays import-
    #: cycle free).  None keeps the historical fully-in-memory behaviour.
    backend: "StorageBackend | None" = field(default=None, compare=False)
    keyspace: str = METRICS
    _replaying: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        from ..devtools.sanitize import instrument_guarded

        instrument_guarded(self)  # no-op unless REPRO_SANITIZE=1

    # -- ingestion -------------------------------------------------------
    def record(self, time: float, component_id: str, metric: str, value: float) -> None:
        """Push one raw observation (called by the collector each tick).

        Delegates to :meth:`append_many`, so single-sample appends go through
        the exact same locked/journalled path as batches — there is no side
        door that could skip cache invalidation or the backend journal.
        """
        self.append_many(((time, component_id, metric, value),))

    def append_many(
        self, observations: Iterable[tuple[float, str, str, float]]
    ) -> int:
        """Batch-push ``(time, component_id, metric, value)`` observations.

        The single ingestion code path: takes the store lock once for the
        whole batch (per-tick collector writes of tens of series stay cheap
        while remaining safe against concurrent :meth:`series` reads),
        journals each observation through the backend, and returns how many
        were appended.
        """
        appended = 0
        journal: list[dict] | None = (
            [] if self.backend is not None and not self._replaying else None
        )
        with self._cache_lock:
            for time, component_id, metric, value in observations:
                key = (component_id, metric)
                self._raw.setdefault(key, []).append(
                    Sample(time=time, value=float(value))
                )
                self._cache.pop(key, None)
                if journal is not None:
                    journal.append(
                        {
                            "t": time,
                            "k": f"{component_id}/{metric}",
                            "c": component_id,
                            "m": metric,
                            "v": float(value),
                        }
                    )
                appended += 1
            if journal:
                self.backend.append_many(self.keyspace, journal)
        return appended

    # -- persistence -----------------------------------------------------
    def replay_from_backend(self) -> int:
        """Rebuild the raw series from the backend journal (on open).

        Records are re-applied through the normal ingestion path with
        journalling suppressed, so a replayed store is indistinguishable
        from one that recorded the observations live.
        """
        if self.backend is None:
            return 0
        self._replaying = True
        try:
            return self.append_many(
                (rec["t"], rec["c"], rec["m"], rec["v"])
                for rec in self.backend.scan(self.keyspace)
            )
        finally:
            self._replaying = False

    # -- monitored view ----------------------------------------------------
    def series(self, component_id: str, metric: str) -> list[Sample]:
        """The bucketed, noisy series DIADS consumes.

        Each sample's time is the bucket midpoint; its value is the bucket
        mean of the raw pushes times the bucket's noise factor.
        """
        key = (component_id, metric)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
            raw = self._raw.get(key, [])
            if not raw:
                return []
            buckets: dict[int, list[float]] = {}
            for sample in raw:
                buckets.setdefault(
                    int(sample.time // self.interval_s), []
                ).append(sample.value)
            out = []
            for bucket in sorted(buckets):
                mean = float(np.mean(buckets[bucket]))
                noise = _bucket_noise(self.seed, key, bucket, self.noise_sigma)
                midpoint = (bucket + 0.5) * self.interval_s
                out.append(Sample(time=midpoint, value=mean * noise))
            self._cache[key] = out
            return out

    def values_between(
        self, component_id: str, metric: str, start: float, end: float
    ) -> list[float]:
        """Sample values whose bucket midpoint falls in [start, end]."""
        return [
            s.value
            for s in self.series(component_id, metric)
            if start <= s.time <= end
        ]

    def window_mean(
        self, component_id: str, metric: str, start: float, end: float
    ) -> float | None:
        """Mean monitored value over a window; None when nothing sampled.

        When the window is narrower than a sampling bucket, the overlapping
        bucket's value is used — exactly the blur the paper warns about.
        """
        values = self.values_between(component_id, metric, start, end)
        if not values:
            padded = self.values_between(
                component_id,
                metric,
                start - self.interval_s / 2.0,
                end + self.interval_s / 2.0,
            )
            if not padded:
                return None
            return float(np.mean(padded))
        return float(np.mean(values))

    def run_window_means(
        self, component_id: str, metric: str, runs: Iterable
    ) -> list[float]:
        """:meth:`window_mean` over each run's ``[start_time, end_time]``,
        skipping runs whose window sampled nothing."""
        values = []
        for run in runs:
            mean = self.window_mean(component_id, metric, run.start_time, run.end_time)
            if mean is not None:
                values.append(mean)
        return values

    # -- introspection -------------------------------------------------------
    def components(self) -> set[str]:
        return {cid for cid, _ in self._raw}

    def metrics_for(self, component_id: str) -> set[str]:
        return {metric for cid, metric in self._raw if cid == component_id}

    def keys(self) -> list[tuple[str, str]]:
        return sorted(self._raw)

    def __len__(self) -> int:
        return sum(len(samples) for samples in self._raw.values())
