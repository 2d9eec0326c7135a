"""Online degradation detectors: O(1)-per-sample, fed by the collector tap.

The paper's workflow starts only after a human marks runs unsatisfactory.
These detectors close that gap: they consume the *raw* monitoring stream
(via :meth:`repro.monitor.Collector.add_metric_tap` /
:meth:`~repro.monitor.Collector.add_run_tap`) and flag degradations online,
each with O(1) state and O(1) work per sample:

* :class:`ThresholdSloDetector` — a fixed SLO limit with a consecutive-
  violation debounce;
* :class:`EwmaDriftDetector` — exponentially-weighted mean/variance drift
  detection (k-sigma excursions against a self-updating baseline);
* :class:`CusumDetector` — two-sided CUSUM change-point detection on
  standardised residuals, with reset-on-fire so successive shifts are each
  caught;
* :class:`ResponseTimeSloDetector` — the administrator replacement: it
  learns a per-query baseline duration from the first runs and auto-marks
  later runs satisfactory/unsatisfactory, emitting a detection for each SLO
  breach.

Firing cadence differs by detector — and incident-level dedup and cooldown
(:mod:`repro.stream.incidents`) fold every stream into few incidents:

* the threshold and EWMA detectors fire **once per excursion** (they re-arm
  only after the signal returns to normal), so a persistent fault produces
  one detection and a flapping fault one per flap;
* :class:`CusumDetector` resets its statistic on fire while keeping its
  baseline, so a shift that *persists* re-accumulates and re-fires
  periodically;
* :class:`ResponseTimeSloDetector` emits one detection **per breaching
  run** — each unsatisfactory run is fresh evidence, and it is what lets a
  resolved incident's target re-open after its cooldown while the fault
  still rages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Protocol

from ..db.executor import QueryRun

__all__ = [
    "Detection",
    "Detector",
    "ThresholdSloDetector",
    "EwmaDriftDetector",
    "CusumDetector",
    "ResponseTimeSloDetector",
    "DetectorBank",
    "default_detector_factory",
    "watch_detectors",
]


@dataclass(frozen=True)
class Detection:
    """One online finding: a signal left its expected regime at ``time``.

    ``magnitude`` is normalised so 1.0 means "exactly at the trigger
    boundary"; incident severity derives from it.
    """

    time: float
    detector: str
    target: str
    value: float
    expected: float
    magnitude: float
    kind: str  # "slo" | "drift" | "change-point" | "recovery"
    details: dict = field(default_factory=dict, compare=False)

    def describe(self) -> str:
        return (
            f"[{self.detector}] {self.target} at t={self.time:.0f}: "
            f"value {self.value:.2f} vs expected {self.expected:.2f} "
            f"({self.magnitude:.1f}x trigger)"
        )

    def to_dict(self) -> dict:
        """JSON form — the shape incident tickets have always carried.

        ``details`` is diagnostic colour, not identity, and is deliberately
        dropped (it may hold non-JSON-able values from custom detectors).
        """
        return {
            "time": self.time,
            "detector": self.detector,
            "target": self.target,
            "value": self.value,
            "expected": self.expected,
            "magnitude": self.magnitude,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Detection":
        return cls(
            time=data["time"],
            detector=data["detector"],
            target=data["target"],
            value=data["value"],
            expected=data["expected"],
            magnitude=data["magnitude"],
            kind=data["kind"],
        )


class Detector(Protocol):
    """Protocol all online detectors implement.

    ``state_dict``/``load_state`` expose the learned state as a JSON-able
    dict so a supervisor checkpoint can freeze a detector mid-stream and a
    resumed process can continue it bit-for-bit (configuration — thresholds,
    alphas, warmups — is *not* part of the state: it is reconstructed by the
    factory, the state only carries what the stream taught the detector).
    """

    name: str

    def update(self, time: float, value: float) -> Detection | None:
        """Feed one sample; a detection when the signal leaves its regime."""
        ...

    def reset(self) -> None:
        """Forget all learned state."""
        ...

    def state_dict(self) -> dict:
        """JSON-able snapshot of the learned state."""
        ...

    def load_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        ...


class _Welford:
    """O(1) running mean/variance (used for warmup baselines)."""

    __slots__ = ("n", "mean", "_m2")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def push(self, x: float) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (x - self.mean)

    @property
    def std(self) -> float:
        if self.n < 2:
            return 0.0
        return math.sqrt(self._m2 / (self.n - 1))

    def state_dict(self) -> dict:
        return {"n": self.n, "mean": self.mean, "m2": self._m2}

    def load_state(self, state: dict) -> None:
        self.n = state["n"]
        self.mean = state["mean"]
        self._m2 = state["m2"]


class ThresholdSloDetector:
    """Fixed SLO: fire when ``min_consecutive`` samples exceed ``limit``.

    The debounce keeps single noisy spikes from opening incidents; the
    detector re-arms once a sample lands back under the limit.
    """

    def __init__(
        self,
        limit: float,
        min_consecutive: int = 1,
        target: str = "",
        *,
        emit_recovery: bool = False,
    ) -> None:
        if limit <= 0:
            raise ValueError("limit must be positive")
        if min_consecutive < 1:
            raise ValueError("min_consecutive must be >= 1")
        self.name = "threshold-slo"
        self.limit = limit
        self.min_consecutive = min_consecutive
        self.target = target
        #: When set, re-arming after a fired excursion also emits a
        #: ``kind="recovery"`` detection (the incident layer resolves on it).
        self.emit_recovery = emit_recovery
        self._streak = 0
        self._fired = False

    def update(self, time: float, value: float) -> Detection | None:
        if value <= self.limit:
            recovered = self._fired
            self._streak = 0
            self._fired = False
            if recovered and self.emit_recovery:
                return Detection(
                    time=time,
                    detector=self.name,
                    target=self.target,
                    value=value,
                    expected=self.limit,
                    magnitude=value / self.limit,
                    kind="recovery",
                )
            return None
        self._streak += 1
        if self._fired or self._streak < self.min_consecutive:
            return None
        self._fired = True
        return Detection(
            time=time,
            detector=self.name,
            target=self.target,
            value=value,
            expected=self.limit,
            magnitude=value / self.limit,
            kind="slo",
            details={"consecutive": self._streak},
        )

    def reset(self) -> None:
        self._streak = 0
        self._fired = False

    def state_dict(self) -> dict:
        return {"streak": self._streak, "fired": self._fired}

    def load_state(self, state: dict) -> None:
        self._streak = state["streak"]
        self._fired = state["fired"]


class EwmaDriftDetector:
    """EWMA drift detection: k-sigma excursions against a moving baseline.

    During ``warmup`` samples the baseline mean/std come from a Welford
    accumulator; afterwards both decay exponentially with weight ``alpha``.
    Anomalous samples are *not* absorbed into the baseline, so a sustained
    shift keeps looking anomalous instead of teaching the detector that the
    degraded level is normal.

    ``min_consecutive`` debounces the periodic single-sample spikes a raw
    per-tick monitoring stream carries (a query run elevates its volumes for
    one tick): only an excursion sustained for that many samples fires.
    """

    def __init__(
        self,
        alpha: float = 0.1,
        k_sigma: float = 5.0,
        warmup: int = 30,
        min_consecutive: int = 1,
        min_rel_std: float = 0.02,
        var_alpha: float | None = None,
        target: str = "",
        emit_recovery: bool = False,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if k_sigma <= 0 or warmup < 2:
            raise ValueError("k_sigma must be positive and warmup >= 2")
        if min_consecutive < 1:
            raise ValueError("min_consecutive must be >= 1")
        self.name = "ewma-drift"
        self.alpha = alpha
        self.k_sigma = k_sigma
        self.warmup = warmup
        self.min_consecutive = min_consecutive
        #: Noise floor as a fraction of the mean: monitoring streams can be
        #: near-constant, and a vanishing std would turn jitter into alerts.
        self.min_rel_std = min_rel_std
        #: The variance adapts much slower than the mean: a fast-moving
        #: variance estimate has a tiny effective sample size, and the
        #: resulting jitter in sigma turns plain noise into 5-sigma alerts.
        self.var_alpha = var_alpha if var_alpha is not None else alpha / 5.0
        self.target = target
        #: When set, the re-arm transition (signal back inside k-sigma after
        #: a fired excursion) emits a ``kind="recovery"`` detection.
        self.emit_recovery = emit_recovery
        self.reset()

    def reset(self) -> None:
        self._warm = _Welford()
        self._mean = 0.0
        self._var = 0.0
        self._streak = 0
        self._fired = False

    def state_dict(self) -> dict:
        return {
            "warm": self._warm.state_dict(),
            "mean": self._mean,
            "var": self._var,
            "streak": self._streak,
            "fired": self._fired,
        }

    def load_state(self, state: dict) -> None:
        self._warm = _Welford()
        self._warm.load_state(state["warm"])
        self._mean = state["mean"]
        self._var = state["var"]
        self._streak = state["streak"]
        self._fired = state["fired"]

    def update(self, time: float, value: float) -> Detection | None:
        if self._warm.n < self.warmup:
            self._warm.push(value)
            if self._warm.n == self.warmup:
                self._mean = self._warm.mean
                self._var = max(self._warm.std, self.min_rel_std * abs(self._warm.mean)) ** 2
            return None
        std = math.sqrt(self._var)
        floor = self.min_rel_std * abs(self._mean)
        std = max(std, floor, 1e-12)
        z = (value - self._mean) / std
        if abs(z) > self.k_sigma:
            self._streak += 1
            if self._fired or self._streak < self.min_consecutive:
                return None
            self._fired = True
            return Detection(
                time=time,
                detector=self.name,
                target=self.target,
                value=value,
                expected=self._mean,
                magnitude=abs(z) / self.k_sigma,
                kind="drift",
                details={"z": z, "sigma": std, "consecutive": self._streak},
            )
        recovered = self._fired
        self._streak = 0
        self._fired = False
        delta = value - self._mean
        self._mean += self.alpha * delta
        self._var = (1.0 - self.var_alpha) * (self._var + self.var_alpha * delta * delta)
        if recovered and self.emit_recovery:
            return Detection(
                time=time,
                detector=self.name,
                target=self.target,
                value=value,
                expected=self._mean,
                magnitude=abs(z) / self.k_sigma,
                kind="recovery",
                details={"z": z, "sigma": std},
            )
        return None


#: Std of a standard normal truncated to |z| < 2 — corrects the shrink that
#: in-control-only baseline refinement would otherwise bake into sigma.
_TRUNC2_STD = 0.8796


class CusumDetector:
    """Two-sided CUSUM change-point detector on standardised residuals.

    Baseline mean/std start from ``warmup`` samples, then keep refining from
    in-control samples (|z| < 2, with the truncation bias corrected): a
    frozen small-sample sigma estimate would otherwise inflate every z and
    wreck the average run length.  The classic tabular CUSUM accumulates
    ``max(0, s + z -/+ slack)`` per side and fires when either crosses
    ``threshold`` (both in sigma units).  Firing resets the statistic, so a
    second, later shift is detected afresh — the behaviour the flapping
    scenarios rely on.
    """

    def __init__(
        self,
        slack: float = 0.5,
        threshold: float = 8.0,
        warmup: int = 30,
        min_rel_std: float = 0.02,
        target: str = "",
    ) -> None:
        if slack < 0 or threshold <= 0 or warmup < 2:
            raise ValueError("need slack >= 0, threshold > 0, warmup >= 2")
        self.name = "cusum"
        self.slack = slack
        self.threshold = threshold
        self.warmup = warmup
        self.min_rel_std = min_rel_std
        self.target = target
        self.reset()

    def reset(self) -> None:
        self._warm = _Welford()
        self._refining = False
        self.s_pos = 0.0
        self.s_neg = 0.0

    def state_dict(self) -> dict:
        return {
            "warm": self._warm.state_dict(),
            "refining": self._refining,
            "s_pos": self.s_pos,
            "s_neg": self.s_neg,
        }

    def load_state(self, state: dict) -> None:
        self._warm = _Welford()
        self._warm.load_state(state["warm"])
        self._refining = state["refining"]
        self.s_pos = state["s_pos"]
        self.s_neg = state["s_neg"]

    def update(self, time: float, value: float) -> Detection | None:
        if self._warm.n < self.warmup:
            self._warm.push(value)
            return None
        std = self._warm.std / (_TRUNC2_STD if self._refining else 1.0)
        std = max(std, self.min_rel_std * abs(self._warm.mean), 1e-12)
        z = (value - self._warm.mean) / std
        self.s_pos = max(0.0, self.s_pos + z - self.slack)
        self.s_neg = max(0.0, self.s_neg - z - self.slack)
        stat = max(self.s_pos, self.s_neg)
        if stat <= self.threshold:
            if abs(z) < 2.0:
                self._warm.push(value)
                self._refining = True
            return None
        direction = "up" if self.s_pos >= self.s_neg else "down"
        # Reset-on-fire: the statistic restarts so the *next* change point
        # is accumulated from zero rather than riding this excursion.
        self.s_pos = 0.0
        self.s_neg = 0.0
        return Detection(
            time=time,
            detector=self.name,
            target=self.target,
            value=value,
            expected=self._warm.mean,
            magnitude=stat / self.threshold,
            kind="change-point",
            details={"direction": direction, "z": z, "sigma": std},
        )


class ResponseTimeSloDetector:
    """Auto-marking response-time SLO over a query's run stream.

    Replaces the administrator of Section 2: the first ``baseline_runs``
    runs define the satisfactory duration (their mean); every later run is
    marked satisfactory/unsatisfactory against ``factor`` times that
    baseline, directly on the :class:`~repro.db.executor.QueryRun` (which
    the run store shares).  Each unsatisfactory run yields a detection.
    """

    def __init__(
        self,
        factor: float = 1.3,
        baseline_runs: int = 4,
        query_name: str | None = None,
        *,
        emit_recovery: bool = False,
    ) -> None:
        if factor <= 1.0:
            raise ValueError("factor must be > 1")
        if baseline_runs < 1:
            raise ValueError("baseline_runs must be >= 1")
        self.name = "response-time-slo"
        self.factor = factor
        self.baseline_runs = baseline_runs
        self.query_name = query_name
        #: When set, the first satisfactory run after a breach emits a
        #: ``kind="recovery"`` detection for the query's target.
        self.emit_recovery = emit_recovery
        self.reset()

    def reset(self) -> None:
        self._baseline = _Welford()
        self._breached = False

    def state_dict(self) -> dict:
        return {"baseline": self._baseline.state_dict(), "breached": self._breached}

    def load_state(self, state: dict) -> None:
        self._baseline = _Welford()
        self._baseline.load_state(state["baseline"])
        self._breached = state.get("breached", False)

    @property
    def baseline_duration(self) -> float | None:
        if self._baseline.n < self.baseline_runs:
            return None
        return self._baseline.mean

    def observe_run(self, run: QueryRun) -> Detection | None:
        """Mark one finished run; a detection when it breaches the SLO."""
        if self.query_name is not None and run.query_name != self.query_name:
            return None
        baseline = self.baseline_duration
        if baseline is None:
            # Learning phase: the first runs are the satisfactory reference.
            self._baseline.push(run.duration)
            run.satisfactory = True
            return None
        limit = self.factor * baseline
        if run.duration <= limit:
            run.satisfactory = True
            # Healthy runs keep refining the baseline (slow drift tracking).
            self._baseline.push(run.duration)
            recovered = self._breached
            self._breached = False
            if recovered and self.emit_recovery:
                return Detection(
                    time=run.end_time,
                    detector=self.name,
                    target=f"run:{run.query_name}",
                    value=run.duration,
                    expected=baseline,
                    magnitude=run.duration / limit,
                    kind="recovery",
                    details={"run_id": run.run_id, "limit": limit},
                )
            return None
        run.satisfactory = False
        self._breached = True
        return Detection(
            time=run.end_time,
            detector=self.name,
            target=f"run:{run.query_name}",
            value=run.duration,
            expected=baseline,
            magnitude=run.duration / limit,
            kind="slo",
            details={"run_id": run.run_id, "limit": limit},
        )

    def update(self, time: float, value: float) -> Detection | None:
        raise NotImplementedError(
            "ResponseTimeSloDetector consumes QueryRun objects via observe_run()"
        )


@dataclass
class DetectorBank:
    """Routes the raw metric stream to per-series detector instances.

    ``factory(component_id, metric)`` returns a fresh detector for a series
    the bank should watch, or None to ignore it.  The bank materialises
    detectors lazily as series first appear — new components (e.g. a
    misconfigured volume created mid-simulation) are picked up automatically.
    """

    factory: "DetectorFactory"
    detectors: dict[tuple[str, str], Detector] = field(default_factory=dict)
    _ignored: set[tuple[str, str]] = field(default_factory=set, repr=False)

    def observe(
        self, time: float, component_id: str, metric: str, value: float
    ) -> Detection | None:
        key = (component_id, metric)
        if key in self._ignored:
            return None
        detector = self.detectors.get(key)
        if detector is None:
            detector = self.factory(component_id, metric)
            if detector is None:
                self._ignored.add(key)
                return None
            if not getattr(detector, "target", ""):
                detector.target = f"{component_id}/{metric}"
            self.detectors[key] = detector
        return detector.update(time, value)

    def reset(self) -> None:
        for detector in self.detectors.values():
            detector.reset()

    def state_dict(self) -> dict:
        """Learned state of every materialised detector + the ignore set."""
        return {
            "detectors": [
                [cid, metric, detector.state_dict()]
                for (cid, metric), detector in sorted(self.detectors.items())
            ],
            "ignored": sorted(list(key) for key in self._ignored),
        }

    def load_state(self, state: dict) -> None:
        """Re-materialise detectors through the factory, then restore state.

        The factory must be the same policy that produced the checkpoint; a
        series the factory now declines is skipped (its state is dropped).
        """
        self.detectors.clear()
        self._ignored = {(cid, metric) for cid, metric in state.get("ignored", [])}
        for cid, metric, det_state in state.get("detectors", []):
            detector = self.factory(cid, metric)
            if detector is None:
                continue
            if not getattr(detector, "target", ""):
                detector.target = f"{cid}/{metric}"
            detector.load_state(det_state)
            self.detectors[(cid, metric)] = detector


class DetectorFactory(Protocol):
    def __call__(self, component_id: str, metric: str) -> Detector | None: ...


def default_detector_factory(
    metrics: Iterable[str] = ("readTime",),
    *,
    k_sigma: float = 5.0,
    warmup: int = 30,
    min_consecutive: int = 3,
    emit_recovery: bool = False,
) -> DetectorFactory:
    """The stock fleet-watch policy: EWMA drift on volume response times.

    Volume ``readTime`` is the signal the paper's own degradation trigger
    watches; the factory ignores every other series so a bank stays
    O(#volumes).  ``min_consecutive`` defaults to 3 because a query run
    elevates its volumes' raw latency for a single tick — only contention
    sustained across ticks (an actual fault) should open incidents.
    """
    watched = set(metrics)

    def factory(component_id: str, metric: str) -> Detector | None:
        if metric not in watched:
            return None
        return EwmaDriftDetector(
            k_sigma=k_sigma,
            warmup=warmup,
            min_consecutive=min_consecutive,
            emit_recovery=emit_recovery,
        )

    return factory


def watch_detectors(
    query_name: str,
    *,
    slo_factor: float,
    baseline_runs: int,
    recovery: bool,
    factory: DetectorFactory | None = None,
) -> tuple[DetectorBank, ResponseTimeSloDetector]:
    """One watched environment's metric-stream bank (``factory``, default:
    the stock policy) and run-stream SLO detector, in thread mode and in
    process-pool workers alike, so their checkpoints are interchangeable."""
    bank = DetectorBank(
        factory=factory or default_detector_factory(emit_recovery=recovery)
    )
    run_detector = ResponseTimeSloDetector(
        factor=slo_factor,
        baseline_runs=baseline_runs,
        query_name=query_name,
        emit_recovery=recovery,
    )
    return bank, run_detector
