"""Read back trace journals: tables, Chrome trace JSON, critical paths.

Everything in this module operates on the **sidecar** ``obs/`` directory a
``repro watch --state-dir`` run leaves next to its checkpoint — the
``traces`` keyspace of finished spans and the ``obs_metrics`` keyspace of
periodic registry snapshots.  It is strictly offline analysis: nothing
here is imported by the simulation or resume path.

Three consumers:

* ``repro trace`` (table) — per-name duration summaries via
  :func:`summarize`;
* ``repro trace --chrome out.json`` — :func:`chrome_trace` emits Chrome
  trace-event JSON (the ``[{"ph": "X", ...}]`` format), loadable directly
  in Perfetto / ``chrome://tracing``, one timeline row per environment;
* ``repro trace --critical-path`` — :func:`critical_path` explains each
  root span (an environment's ``iteration``) by its direct children: how
  much of the root's wall time is covered by named child spans, what the
  slowest phases were, and the fleet-wide attribution ranking.

Storage imports stay inside functions so ``import repro.obs`` (which the
runtime does on its hot path) never drags the storage layer in.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable

__all__ = [
    "OBS_DIR",
    "load_spans",
    "load_metric_snapshots",
    "summarize",
    "chrome_trace",
    "critical_path",
]

#: Subdirectory of a watch state dir holding the observability sidecar
#: backend.  Kept out of the checkpoint: the resume path never opens it.
OBS_DIR = "obs"

#: Span names treated as per-iteration roots for critical-path analysis.
ROOT_SPANS = ("iteration",)


def _obs_root(state_dir: str | pathlib.Path) -> pathlib.Path | None:
    root = pathlib.Path(state_dir) / OBS_DIR
    return root if root.is_dir() else None


def load_spans(state_dir: str | pathlib.Path) -> list[dict]:
    """All journalled span records under ``state_dir``, by wall start.

    Returns ``[]`` when the state dir has no observability sidecar (the
    run was executed without ``--stats``/``REPRO_OBS``).
    """
    root = _obs_root(state_dir)
    if root is None:
        return []
    from ..storage import keyspaces as _keyspaces
    from ..storage.jsonl import JsonlBackend

    backend = JsonlBackend(root)
    try:
        spans = list(backend.scan(_keyspaces.TRACES))
    finally:
        backend.close()
    spans.sort(key=lambda s: s.get("wall_start", 0.0))
    return spans


def load_metric_snapshots(state_dir: str | pathlib.Path) -> list[dict]:
    """All periodic metrics snapshots under ``state_dir``, in sim order."""
    root = _obs_root(state_dir)
    if root is None:
        return []
    from ..storage import keyspaces as _keyspaces
    from ..storage.jsonl import JsonlBackend

    backend = JsonlBackend(root)
    try:
        snaps = list(backend.scan(_keyspaces.OBS_METRICS))
    finally:
        backend.close()
    snaps.sort(key=lambda s: s.get("t", 0.0))
    return snaps


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------


def summarize(spans: Iterable[dict]) -> dict[str, dict]:
    """Per-span-name duration summary (count/total/mean/p95/max), sorted
    by total wall time descending — the ``repro trace`` table body."""
    groups: dict[str, list[float]] = {}
    for span in spans:
        groups.setdefault(span["name"], []).append(float(span.get("wall_dur", 0.0)))
    out: dict[str, dict] = {}
    for name, durs in groups.items():
        durs.sort()
        total = sum(durs)
        count = len(durs)
        out[name] = {
            "count": count,
            "total_s": total,
            "mean_ms": total / count * 1000.0,
            "p50_ms": durs[count // 2] * 1000.0,
            "p95_ms": durs[min(count - 1, int(0.95 * count))] * 1000.0,
            "max_ms": durs[-1] * 1000.0,
        }
    return dict(
        sorted(out.items(), key=lambda item: item[1]["total_s"], reverse=True)
    )


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------


def chrome_trace(spans: Iterable[dict]) -> dict:
    """Chrome trace-event JSON object (``{"traceEvents": [...]}``).

    Complete ``"ph": "X"`` events, timestamps in microseconds relative to
    the earliest span, one ``tid`` per environment (named via thread-name
    metadata events) so Perfetto lays the fleet out as parallel tracks.
    """
    spans = list(spans)
    if not spans:
        return {"traceEvents": []}
    t0 = min(float(s.get("wall_start", 0.0)) for s in spans)
    envs = sorted({s["k"] for s in spans if s.get("k")})
    tid_of = {env: i + 1 for i, env in enumerate(envs)}

    events: list[dict] = [
        {
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "name": "thread_name",
            "args": {"name": "supervisor"},
        }
    ]
    for env, tid in tid_of.items():
        events.append(
            {
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "name": "thread_name",
                "args": {"name": f"env:{env}"},
            }
        )
    for span in spans:
        args: dict[str, Any] = {"span_id": span["span_id"]}
        if span.get("t") is not None:
            args["sim_t"] = span["t"]
        args.update(span.get("attrs", {}))
        events.append(
            {
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "pid": 1,
                "tid": tid_of.get(span.get("k"), 0),
                "ts": (float(span.get("wall_start", 0.0)) - t0) * 1e6,
                "dur": float(span.get("wall_dur", 0.0)) * 1e6,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[dict], path: str | pathlib.Path) -> int:
    """Write :func:`chrome_trace` output to ``path``; return event count."""
    payload = chrome_trace(spans)
    pathlib.Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return len(payload["traceEvents"])


# ---------------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------------


def _merged_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of half-open intervals."""
    if not intervals:
        return 0.0
    intervals.sort()
    covered = 0.0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            covered += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    covered += cur_end - cur_start
    return covered


def critical_path(
    spans: Iterable[dict], *, roots: tuple[str, ...] = ROOT_SPANS
) -> dict:
    """Attribute root-span wall time to named child phases.

    Every span named in ``roots`` (an ``iteration`` of an environment's
    drive loop) is explained by its direct children: child intervals are
    clipped to the root, their union gives *coverage* (how much of the
    iteration's wall time named spans account for — the acceptance bar is
    ≥95%), and per-name sums give the attribution ranking.  The slowest
    roots are returned with their child chain in wall order — the
    per-iteration critical path.
    """
    spans = list(spans)
    by_parent: dict[str, list[dict]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent:
            by_parent.setdefault(parent, []).append(span)

    root_reports: list[dict] = []
    total_root = 0.0
    total_covered = 0.0
    by_name: dict[str, float] = {}

    for root in spans:
        if root["name"] not in roots:
            continue
        r_start = float(root.get("wall_start", 0.0))
        r_dur = float(root.get("wall_dur", 0.0))
        r_end = r_start + r_dur
        children = by_parent.get(root["span_id"], [])
        intervals: list[tuple[float, float]] = []
        phases: list[dict] = []
        for child in sorted(children, key=lambda s: s.get("wall_start", 0.0)):
            c_start = max(r_start, float(child.get("wall_start", 0.0)))
            c_end = min(
                r_end,
                float(child.get("wall_start", 0.0))
                + float(child.get("wall_dur", 0.0)),
            )
            if c_end <= c_start:
                continue
            clipped = c_end - c_start
            intervals.append((c_start, c_end))
            by_name[child["name"]] = by_name.get(child["name"], 0.0) + clipped
            phases.append(
                {"name": child["name"], "wall_ms": clipped * 1000.0}
            )
        covered = _merged_length(intervals)
        total_root += r_dur
        total_covered += covered
        root_reports.append(
            {
                "name": root["name"],
                "span_id": root["span_id"],
                "env": root.get("k"),
                "sim_t": root.get("t"),
                "wall_ms": r_dur * 1000.0,
                "covered_ms": covered * 1000.0,
                "coverage": (covered / r_dur) if r_dur > 0 else 1.0,
                "phases": phases,
            }
        )

    root_reports.sort(key=lambda r: r["wall_ms"], reverse=True)
    return {
        "roots": len(root_reports),
        "total_wall_s": total_root,
        "covered_wall_s": total_covered,
        "coverage": (total_covered / total_root) if total_root > 0 else 1.0,
        "by_name": dict(
            sorted(by_name.items(), key=lambda item: item[1], reverse=True)
        ),
        "slowest": root_reports[:10],
    }
