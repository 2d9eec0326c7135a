"""Prometheus text exposition (format version 0.0.4) for the registry.

Renders a :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` — the one
metrics model, raw bucket counts included — as the plain-text scrape format
Prometheus ingests: ``# TYPE`` headers, sanitised metric names under the
``repro_`` namespace, escaped label values, and full cumulative-``le``
histogram series (``_bucket``/``_sum``/``_count``).  The JSON endpoints
render the same snapshot through :func:`~repro.obs.metrics.json_view`,
whose bucket-estimated percentiles are not scrape-valid.

Two dotted-name prefixes become labels instead of name components, so
per-entity series aggregate the way PromQL expects:

* ``worker.<pid>.rest``     → ``repro_rest{worker="<pid>"}``
* ``serve.tenant.<id>.rest`` → ``repro_rest{tenant="<id>"}``

Everything else keeps its dotted name, dots-to-underscores.  Output is
sorted (family name, then label set) so scrapes are diff-stable.
"""

from __future__ import annotations

import re
from typing import Any

from . import metrics as obs_metrics

__all__ = ["CONTENT_TYPE", "render_prometheus"]

#: The exposition content type Prometheus scrapers negotiate.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: dotted prefix → label key minted from the next dotted component.
_LABEL_PREFIXES = (("worker.", "worker"), ("serve.tenant.", "tenant"))


def _sanitize(name: str) -> str:
    name = _NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _split_labels(name: str) -> tuple[str, dict[str, str]]:
    """Peel a labelled prefix off a dotted metric name, if present."""
    for prefix, label in _LABEL_PREFIXES:
        if name.startswith(prefix):
            rest = name[len(prefix):]
            value, sep, metric = rest.partition(".")
            if sep and value and metric:
                return metric, {label: value}
    return name, {}


def _labels_text(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


class _Family:
    """One exposition family: a type header plus its sample lines."""

    __slots__ = ("name", "kind", "samples")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.samples: list[tuple[str, str]] = []

    def render(self) -> list[str]:
        # Insertion order is already deterministic (sorted source names) and
        # preserves ascending-``le`` bucket order, which lexical sorting of
        # sample lines would scramble ("+Inf", "10" vs "2.5").
        lines = [f"# TYPE {self.name} {self.kind}"]
        lines.extend(f"{sample} {value}" for sample, value in self.samples)
        return lines


def render_prometheus(snapshot: dict | None = None, *, namespace: str = "repro") -> str:
    """Render a registry snapshot (default: the live registry's) as 0.0.4
    text."""
    if snapshot is None:
        snapshot = obs_metrics.registry().snapshot()
    families: dict[str, _Family] = {}

    def family(dotted: str, kind: str) -> tuple[_Family, dict[str, str]]:
        metric, labels = _split_labels(dotted)
        name = _sanitize(f"{namespace}_{metric}")
        entry = families.get(name)
        if entry is None:
            entry = families.setdefault(name, _Family(name, kind))
        return entry, labels

    for dotted, value in sorted((snapshot.get("counters") or {}).items()):
        entry, labels = family(dotted, "counter")
        entry.samples.append((entry.name + _labels_text(labels), _fmt(value)))
    for dotted, value in sorted((snapshot.get("gauges") or {}).items()):
        entry, labels = family(dotted, "gauge")
        entry.samples.append((entry.name + _labels_text(labels), _fmt(value)))
    for dotted, dump in sorted((snapshot.get("histograms") or {}).items()):
        entry, labels = family(dotted, "histogram")
        _histogram_samples(entry, labels, dump)

    lines: list[str] = []
    for name in sorted(families):
        lines.extend(families[name].render())
    return "\n".join(lines) + ("\n" if lines else "")


def _histogram_samples(
    entry: _Family, labels: dict[str, str], dump: dict[str, Any]
) -> None:
    bounds = list(dump.get("bounds") or ())
    counts = list(dump.get("counts") or ())
    total = int(dump.get("count", 0))
    cumulative = 0
    for i, bound in enumerate(bounds):
        cumulative += int(counts[i]) if i < len(counts) else 0
        bucket_labels = dict(labels)
        bucket_labels["le"] = _fmt(bound)
        entry.samples.append(
            (f"{entry.name}_bucket{_labels_text(bucket_labels)}", str(cumulative))
        )
    inf_labels = dict(labels)
    inf_labels["le"] = "+Inf"
    entry.samples.append(
        (f"{entry.name}_bucket{_labels_text(inf_labels)}", str(total))
    )
    entry.samples.append(
        (f"{entry.name}_sum{_labels_text(labels)}", _fmt(dump.get("sum", 0.0)))
    )
    entry.samples.append((f"{entry.name}_count{_labels_text(labels)}", str(total)))
