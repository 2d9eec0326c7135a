"""repro.obs — self-observability: tracing and metrics.

The system that diagnoses simulated storage fleets from low-level
telemetry now collects its own: simulation-aware spans
(:mod:`~repro.obs.trace`) and a process-wide metrics registry
(:mod:`~repro.obs.metrics`), both journalled as **sidecar** data that the
checkpoint/resume path never reads; :mod:`~repro.obs.export` is the one
place spans are aggregated.

Off by default and zero-cost when off: every helper checks
:func:`is_enabled` and returns a shared no-op.  Turn it on with
``repro watch --stats`` or ``REPRO_OBS=1``.

Instrumenting code::

    from ..obs import span, metrics as obs_metrics

    with span("advance", env=name, sim_t=clock_s):
        ...
    obs_metrics.inc("detectors.fires", len(detections))

Wall-clock reads live *only* in :mod:`repro.obs.clock`; the
``obs-discipline`` lint checker rejects them anywhere else.
"""

from . import clock, export, metrics, prometheus, trace, worker
from .clock import disable, enable, is_enabled, wall_clock
from .export import (
    OBS_DIR,
    chrome_trace,
    critical_path,
    load_metric_snapshots,
    load_spans,
    summarize,
)
from .metrics import (
    MetricsRegistry,
    add_gauge,
    inc,
    loop_lag_probe,
    observe,
    registry,
    set_gauge,
    timed,
)
from .prometheus import render_prometheus
from .trace import Span, Tracer, current_span, span, tracer, wrap_task
from .worker import context_payload, worker_span

__all__ = [
    "clock",
    "trace",
    "metrics",
    "prometheus",
    "worker",
    "export",
    "context_payload",
    "worker_span",
    "render_prometheus",
    "loop_lag_probe",
    "wall_clock",
    "is_enabled",
    "enable",
    "disable",
    "span",
    "current_span",
    "wrap_task",
    "tracer",
    "Span",
    "Tracer",
    "MetricsRegistry",
    "registry",
    "inc",
    "set_gauge",
    "add_gauge",
    "observe",
    "timed",
    "OBS_DIR",
    "load_spans",
    "load_metric_snapshots",
    "summarize",
    "chrome_trace",
    "critical_path",
]
