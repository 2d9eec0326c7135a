"""Observability test fixtures: force the switch, isolate the singletons."""

from __future__ import annotations

import pytest

from repro.obs import clock as obs_clock
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace


@pytest.fixture
def obs_enabled():
    """Observability on, with clean tracer/registry state before and after.

    The tracer and metrics registry are process-wide singletons; tests must
    not leak sinks, metrics, or the forced-on flag into each other (or
    into the rest of the suite, which assumes observability is off).
    """
    obs_clock.enable()
    obs_trace.tracer().set_sink(None)
    obs_metrics.registry().reset()
    try:
        yield
    finally:
        obs_trace.tracer().set_sink(None)
        obs_metrics.registry().reset()
        obs_clock.reset()


@pytest.fixture
def obs_disabled():
    """Observability explicitly off (wins over REPRO_OBS in the env)."""
    obs_clock.disable()
    try:
        yield
    finally:
        obs_clock.reset()
