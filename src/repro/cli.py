"""Command-line interface: run scenarios and diagnose them from a shell.

Usage (``repro`` console script, or module form)::

    python -m repro.cli list
    python -m repro.cli run san-misconfiguration --hours 12
    python -m repro.cli run lock-contention --screens
    python -m repro.cli sweep --hours 8 --max-workers 4
    python -m repro.cli batch san-misconfiguration lock-contention --json
    python -m repro.cli watch --hours 8
    python -m repro.cli watch flapping-san-misconfiguration --json
    python -m repro.cli watch --hours 8 --state-dir ./state   # durable + resumable
    python -m repro.cli watch shared-pool-saturation --hours 8 --state-dir ./state
    python -m repro.cli watch --hours 8 --state-dir ./state --stats
    python -m repro.cli incidents --state-dir ./state
    python -m repro.cli correlate --state-dir ./state
    python -m repro.cli trace --state-dir ./state --critical-path
    python -m repro.cli metrics --state-dir ./state scheduler

``run`` simulates one scenario, diagnoses it, and prints the report (plus the
Figure-3/6/7 screens with ``--screens``).  ``sweep`` evaluates every Table-1
scenario and prints the reproduction table.  ``batch`` is the fleet-scale
entry point: it simulates one or more scenarios (``all`` for the whole
catalogue), diagnoses every diagnosable query in every bundle through
``DiagnosisPipeline.diagnose_many``, and prints a table or JSON.  ``watch``
is the closed loop: a :class:`~repro.stream.FleetSupervisor` advances a
fleet of scenario environments live on the barrier-free runtime — each
environment on its own clock, slow diagnoses overlapping the rest of the
fleet (cap them with ``--max-inflight-diagnoses``) — detectors open
incidents without any manual run-marking, and every incident is
auto-diagnosed; the fleet table refreshes per runtime event (or stream the
final state with ``--json``).  Its arguments become a
:class:`~repro.fleets.FleetSpec`, the validator and builder ``serve`` uses
for every tenant's fleet.  With
``--state-dir`` the incident history and detector state are journalled
durably and a killed run resumes from its last checkpoint; ``incidents``
queries that history afterwards — across any number of restarts.

Naming a *fleet scenario* (``shared-pool-saturation``,
``shared-switch-degradation``, ``coincidental-independent-faults``) expands
it into its member environments and enables the cross-environment
correlator: correlated incident opens across environments sharing a SAN
component merge into one fleet incident with a shared-root-cause drill-down
report (``repro.correlate``); ``correlate`` queries the durable
fleet-incident history of a state dir.

``watch --stats`` turns on observability (``repro.obs``): a live panel of
worker-pool and fleet metrics under the table, and — with ``--state-dir``
— a write-only trace/metrics sidecar under ``DIR/obs/`` that never feeds
the resume path.  ``trace`` reads it back as a per-span table, Chrome
trace-event JSON (``--chrome out.json``, loadable in Perfetto), or a
per-iteration critical-path attribution (``--critical-path``); ``metrics``
queries the periodic registry snapshots.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .core import Diads, build_apg
from .core.evaluation import evaluate_bundle
from .core.pipeline import DiagnosisRequest, default_pipeline, diagnosable_queries
from .core.report import render_apg_browser, render_apg_overview, render_query_table
from .core.serialize import report_to_dict
from .correlate import FleetIncidentStore
from .fleets import DEFAULT_WATCH_FLEET, FLEET_SCENARIOS, SCENARIOS, FleetSpec
from .lab import all_table1_scenarios


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DIADS reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available scenarios")

    run = sub.add_parser("run", help="simulate and diagnose one scenario")
    run.add_argument("scenario", choices=sorted(SCENARIOS))
    run.add_argument("--hours", type=float, default=12.0, help="simulated hours")
    run.add_argument("--seed", type=int, default=None, help="override the seed")
    run.add_argument(
        "--screens", action="store_true", help="also print the tool screens"
    )

    sweep = sub.add_parser("sweep", help="evaluate all Table-1 scenarios")
    sweep.add_argument("--hours", type=float, default=12.0)
    sweep.add_argument(
        "--max-workers", type=int, default=None,
        help="diagnose scenarios concurrently with this many threads",
    )

    batch = sub.add_parser(
        "batch", help="fleet-scale batch diagnosis over one or more scenarios"
    )
    batch.add_argument(
        "scenarios",
        nargs="+",
        metavar="scenario",
        help=f"scenario names or 'all' (choices: {', '.join(sorted(SCENARIOS))})",
    )
    batch.add_argument("--hours", type=float, default=12.0, help="simulated hours")
    batch.add_argument("--seed", type=int, default=None, help="override the seed")
    batch.add_argument(
        "--max-workers", type=int, default=None,
        help="thread-pool width for the batch (default: min(8, #queries))",
    )
    batch.add_argument(
        "--json", action="store_true", help="emit reports as a JSON array"
    )

    watch = sub.add_parser(
        "watch", help="watch a fleet live; auto-detect and auto-diagnose"
    )
    watch.add_argument(
        "scenarios",
        nargs="*",
        metavar="scenario",
        help=(
            "scenario names to watch (default: a four-environment fleet "
            "including a flapping fault); fleet-scenario names "
            f"({', '.join(sorted(FLEET_SCENARIOS))}) expand into their member "
            "environments and enable the cross-environment correlator"
        ),
    )
    watch.add_argument("--hours", type=float, default=8.0, help="simulated hours")
    watch.add_argument("--seed", type=int, default=None, help="override the seed")
    watch.add_argument(
        "--chunk-minutes", type=float, default=30.0,
        help="supervision chunk: detectors/diagnosis run after each chunk",
    )
    watch.add_argument(
        "--max-workers", type=int, default=None,
        help="thread-pool width for advancing environments and diagnosing",
    )
    watch.add_argument(
        "--pool", default=None, choices=["threads", "process", "auto"],
        help=(
            "execution backend for the shared worker pool: threads (default), "
            "process (environments simulate in worker processes with sticky "
            "affinity — true parallelism for CPU-bound fleets), or auto "
            "(process when cores and fleet size justify the handoff); "
            "REPRO_POOL sets the default"
        ),
    )
    watch.add_argument(
        "--max-inflight-diagnoses", type=int, default=None, metavar="N",
        help=(
            "cap concurrent diagnosis pipelines across the fleet (default: "
            "bounded only by the shared worker pool); advancing continues "
            "while diagnoses are in flight"
        ),
    )
    watch.add_argument(
        "--cooldown-minutes", type=float, default=120.0,
        help="incident cooldown after resolution (per detection target)",
    )
    watch.add_argument(
        "--stats", action="store_true",
        help=(
            "enable observability (repro.obs): live pool/fleet metrics under "
            "the table, and with --state-dir a trace + metrics sidecar for "
            "`repro trace` / `repro metrics`"
        ),
    )
    watch.add_argument(
        "--json", action="store_true",
        help="emit the final fleet state + incidents as JSON (no live table)",
    )
    watch.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help=(
            "persist incident history + detector state under DIR; when DIR "
            "already holds a checkpoint for the same fleet, the run resumes "
            "where it was killed (--hours is the total simulated duration)"
        ),
    )
    watch.add_argument(
        "--correlation-window-minutes", type=float, default=60.0, metavar="M",
        help=(
            "co-occurrence window of the cross-environment correlator "
            "(fleet scenarios only)"
        ),
    )
    watch.add_argument(
        "--min-members", type=int, default=3, metavar="K",
        help="minimum co-firing environments before incidents merge into a "
        "fleet incident",
    )
    watch.add_argument(
        "--max-skew-minutes", type=float, default=None, metavar="M",
        help=(
            "bound the fleet clock skew: a member never runs more than this "
            "far ahead of the slowest member (caps fleet-incident emit "
            "latency; must be at least one chunk)"
        ),
    )

    correlate = sub.add_parser(
        "correlate",
        help="query the durable fleet-incident history of a state dir",
    )
    correlate.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="state dir a fleet-scenario `repro watch --state-dir DIR` wrote",
    )
    correlate.add_argument(
        "--component", default=None, help="only fleet incidents of this shared component"
    )
    correlate.add_argument(
        "--status", default=None, choices=["open", "resolved"],
        help="only fleet incidents currently in this state",
    )
    correlate.add_argument(
        "--since-hours", type=float, default=None,
        help="only fleet incidents opened at or after this simulated hour",
    )
    correlate.add_argument(
        "--json", action="store_true", help="emit the tickets as a JSON array"
    )

    trace = sub.add_parser(
        "trace",
        help="inspect the trace sidecar an observability-enabled watch wrote",
    )
    trace.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help=(
            "state dir of a `repro watch --stats --state-dir DIR` run "
            "(or one run under REPRO_OBS=1)"
        ),
    )
    trace.add_argument(
        "--chrome", default=None, metavar="FILE",
        help=(
            "write Chrome trace-event JSON to FILE (load it in Perfetto or "
            "chrome://tracing) instead of printing the span table"
        ),
    )
    trace.add_argument(
        "--critical-path", action="store_true",
        help=(
            "attribute each iteration's wall time to its child phases "
            "and rank the slowest (instead of the span table)"
        ),
    )
    trace.add_argument(
        "--json", action="store_true",
        help="emit the table / critical-path report as JSON",
    )

    metrics = sub.add_parser(
        "metrics",
        help="query the metrics sidecar an observability-enabled watch wrote",
    )
    metrics.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help=(
            "state dir of a `repro watch --stats --state-dir DIR` run "
            "(or one run under REPRO_OBS=1)"
        ),
    )
    metrics.add_argument(
        "name", nargs="?", default=None,
        help="only metrics whose dotted name contains this substring",
    )
    metrics.add_argument(
        "--json", action="store_true",
        help="emit every snapshot as a JSON array (default: latest only)",
    )

    lint = sub.add_parser(
        "lint",
        help="static-check the determinism/locking invariants (repro.devtools)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--select", default=None, metavar="CHECKS",
        help="comma-separated checker subset (see repro.devtools.lint)",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="also fail on pragmas that no longer suppress anything",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit findings as a JSON array"
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-running multi-tenant fleet service (REST + SSE)",
    )
    serve.add_argument(
        "--state-root", required=True, metavar="DIR",
        help=(
            "root directory for the service: the shared JSONL store, tenant "
            "manifest, and per-tenant watch checkpoints all live here; a "
            "restarted server resumes every tenant's running watch from it"
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8787,
        help="TCP port (0 picks a free one; the bound port lands in "
        "DIR/serve.json)",
    )
    serve.add_argument(
        "--sse-backlog", type=int, default=128, metavar="N",
        help="per-SSE-client queue depth before a slow client is disconnected",
    )
    serve.add_argument(
        "--pool", default=None, choices=["threads", "process", "auto"],
        help=(
            "execution backend for the service's shared worker pool (see "
            "`repro watch --pool`); tenant watches started under a process "
            "pool simulate in sticky worker processes"
        ),
    )
    serve.add_argument(
        "--stats", action="store_true",
        help="enable observability (repro.obs) for the service process",
    )

    incidents = sub.add_parser(
        "incidents", help="query the durable incident history of a state dir"
    )
    incidents.add_argument(
        "--state-dir", required=True, metavar="DIR",
        help="state dir a `repro watch --state-dir DIR` run wrote",
    )
    incidents.add_argument(
        "--env", default=None, help="only incidents of this environment"
    )
    incidents.add_argument(
        "--status", default=None, choices=["open", "diagnosing", "resolved"],
        help="only incidents currently in this state",
    )
    incidents.add_argument(
        "--since-hours", type=float, default=None,
        help="only incidents opened at or after this simulated hour",
    )
    incidents.add_argument(
        "--json", action="store_true", help="emit the tickets as a JSON array"
    )
    return parser


def cmd_list() -> int:
    for name in sorted(SCENARIOS):
        print(name)
    for name in sorted(FLEET_SCENARIOS):
        print(f"{name}  [fleet]")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    factory = SCENARIOS[args.scenario]
    kwargs = {"hours": args.hours}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    scenario = factory(**kwargs)
    print(f"Simulating {args.hours:g}h of scenario {scenario.info.name!r}...")
    bundle = scenario.run()
    if args.screens:
        print()
        print(render_query_table(bundle.stores.runs, bundle.query_name, limit=12))
        apg = build_apg(bundle, bundle.query_name)
        print()
        print(render_apg_overview(apg))
        leaf = apg.plan.leaves()[0].op_id
        print()
        print(render_apg_browser(apg, leaf))
    try:
        report = Diads.from_bundle(bundle).diagnose(bundle.query_name)
    except ValueError as exc:
        # e.g. healthy-baseline: nothing degraded, nothing to diagnose
        print(f"nothing to diagnose: {exc}", file=sys.stderr)
        return 1
    print()
    print(report.render())
    top = report.top_cause
    ok = top is not None and top.match.cause_id in scenario.info.ground_truth
    print()
    print(f"ground truth: {', '.join(scenario.info.ground_truth)} -> "
          f"{'identified' if ok else 'MISSED'}")
    return 0 if ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    scenarios = all_table1_scenarios(hours=args.hours)
    if args.max_workers and args.max_workers > 1:
        # Parallelise simulation + diagnosis per scenario on the shared
        # worker pool, at most --max-workers in flight.
        from .runtime import shared_pool

        evaluations = shared_pool().map_bounded(
            lambda s: evaluate_bundle(s.run()), scenarios, limit=args.max_workers
        )
        return _print_sweep(evaluations)
    return _print_sweep(evaluate_bundle(s.run()) for s in scenarios)


def _print_sweep(evaluations) -> int:
    failures = 0
    for evaluation in evaluations:
        print(evaluation.row(), flush=True)
        failures += 0 if evaluation.identified else 1
    return 1 if failures else 0


def cmd_batch(args: argparse.Namespace) -> int:
    unknown = [n for n in args.scenarios if n != "all" and n not in SCENARIOS]
    if unknown:
        print(f"unknown scenarios: {', '.join(unknown)}", file=sys.stderr)
        return 2
    names = sorted(SCENARIOS) if "all" in args.scenarios else args.scenarios

    requests: list[DiagnosisRequest] = []
    origins: list[str] = []
    for name in names:
        kwargs = {"hours": args.hours}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        scenario_bundle = SCENARIOS[name](**kwargs).run()
        bundle = scenario_bundle.bundle
        for query in diagnosable_queries(bundle):
            requests.append(DiagnosisRequest(bundle=bundle, query_name=query))
            origins.append(name)
    if not requests:
        print("no diagnosable queries found", file=sys.stderr)
        return 1

    pipeline = default_pipeline()
    reports = pipeline.diagnose_many(requests, max_workers=args.max_workers)

    if args.json:
        payload = [
            {"scenario": origin, **report_to_dict(report)}
            for origin, report in zip(origins, reports)
        ]
        print(json.dumps(payload, indent=2))
        return 0

    header = f"{'scenario':<32} {'query':<14} {'top cause':<38} {'conf':<7} impact"
    print(header)
    print("-" * len(header))
    for origin, report in zip(origins, reports):
        top = report.top_cause
        cause = top.display_id if top else "(none)"
        conf = top.match.confidence.value if top else "-"
        impact = (
            f"{top.impact_pct:5.1f}%"
            if top is not None and top.impact_pct is not None
            else "   n/a"
        )
        print(f"{origin:<32} {report.query_name:<14} {cause:<38} {conf:<7} {impact}")
    print(f"\n{len(reports)} queries diagnosed across {len(set(origins))} bundle(s)")
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    # One validator and one builder for `repro watch` and `repro serve`:
    # the command line becomes a FleetSpec payload.
    try:
        spec = FleetSpec.from_payload(
            {
                "scenarios": args.scenarios or list(DEFAULT_WATCH_FLEET),
                "hours": args.hours,
                "seed": args.seed,
                "chunk_minutes": args.chunk_minutes,
                "cooldown_minutes": args.cooldown_minutes,
                "max_inflight_diagnoses": args.max_inflight_diagnoses,
                "correlation_window_minutes": args.correlation_window_minutes,
                "min_members": args.min_members,
                "max_workers": args.max_workers,
            }
        )
    except ValueError as exc:
        print(f"invalid watch configuration: {exc}", file=sys.stderr)
        return 2

    if args.stats:
        # Opt in before the supervisor is built: its obs sidecar backend is
        # created at construction time only when observability is enabled.
        from .obs import enable as obs_enable

        obs_enable()

    # Resolve the pool backend against the actual fleet size: `auto` only
    # pays the process-handoff cost when there are enough environments (and
    # cores) for parallel simulation to win.
    from .runtime import resolve_pool_backend, shared_pool

    try:
        pool_backend = resolve_pool_backend(
            args.pool, fleet_size=len(spec.member_names())
        )
    except ValueError as exc:
        print(f"invalid pool configuration: {exc}", file=sys.stderr)
        return 2

    try:
        supervisor = spec.build(
            state_dir=args.state_dir,
            pool=shared_pool(backend=pool_backend),
            max_skew_s=(
                args.max_skew_minutes * 60.0
                if args.max_skew_minutes is not None
                else None
            ),
        )
    except ValueError as exc:
        print(f"invalid watch configuration: {exc}", file=sys.stderr)
        return 2

    resumed_s = 0.0
    if supervisor.has_checkpoint():
        try:
            resumed_s = supervisor.resume()
        except (ValueError, FileNotFoundError) as exc:
            print(f"cannot resume from {args.state_dir}: {exc}", file=sys.stderr)
            return 2
        if not args.json:
            print(
                f"resumed from {args.state_dir} at t={resumed_s / 3600.0:.1f}h "
                f"({len(supervisor.incidents())} incident(s) restored)"
            )

    live = not args.json and sys.stdout.isatty()
    redraws = 0
    last_height = 0
    last_draw = 0.0
    resolved_total = 0

    def stats_lines() -> list[str]:
        # The --stats panel: live pool counters + key fleet metrics.  Fixed
        # line count so the in-place redraw height stays stable; trailing
        # spaces blank out a previous, longer frame.
        from .obs import metrics as obs_metrics

        pool = supervisor.pool_stats()
        snap = obs_metrics.json_view(obs_metrics.registry().snapshot())
        counters, gauges = snap["counters"], snap["gauges"]
        latency = snap["histograms"].get("scheduler.task_latency_s")
        p95 = f"{latency['p95_ms']:.0f}ms" if latency else "-"
        lines = [
            (
                f"pool: {pool['active']}/{pool['max_workers']} active  "
                f"queued {pool['queued']}  done {pool['completed']}  "
                f"failed {pool['failed']}  "
                f"util {pool['utilisation'] * 100.0:.0f}%   "
            ),
            (
                f"obs:  iterations "
                f"{int(counters.get('supervisor.iterations', 0.0))}  "
                f"detector fires {int(counters.get('detectors.fires', 0.0))}  "
                f"diagnoses in flight "
                f"{int(gauges.get('diagnoses.in_flight', 0.0))}  "
                f"task p95 {p95}   "
            ),
        ]
        if "workers" in pool:
            # Process backend: one fixed line of per-worker routing stats
            # (pid, sticky affinity keys, tasks routed, handoff volume).
            lines.append(
                "proc: "
                + "  ".join(
                    f"[{row['worker']}] pid {row['pid'] or '-'} "
                    f"keys {row['affinity_keys']} tasks {row['tasks_routed']} "
                    f"io {row['handoff_bytes'] / 1024.0:.0f}KiB"
                    for row in pool["workers"]
                )
                + "   "
            )
            # Fleet-level aggregates folded home from the worker registries
            # (the workers.* rollup of each worker.<pid>.* dump).
            lines.append(
                f"work: chunks {int(counters.get('workers.env.chunks', 0.0))}  "
                f"detections "
                f"{int(counters.get('workers.env.detections', 0.0))}  "
                f"diagnoses "
                f"{int(counters.get('workers.env.diagnoses', 0.0))}  "
                f"spans dropped "
                f"{int(counters.get('obs.worker_spans_dropped', 0.0))}   "
            )
        return lines

    def redraw() -> None:
        # Redraw in place: compose the whole frame first, so the cursor-up
        # distance is the *previous* frame's exact height.
        nonlocal redraws, last_height
        clocks = supervisor.clocks
        lines = [supervisor.render_table()]
        if args.stats:
            lines.extend(stats_lines())
        lines.append(
            f"t>={clocks.min_clock / 3600.0:.1f}h (skew {clocks.skew / 60.0:.0f}m)  "
            f"incidents resolved: {resolved_total}   "
        )
        frame = "\n".join(lines)
        if redraws:
            print(f"\x1b[{last_height}A", end="")
        redraws += 1
        last_height = frame.count("\n") + 1
        print(frame, flush=True)

    def on_event(event: dict) -> None:
        # The supervisor streams per-environment events (no global tick):
        # the live table refreshes as each environment moves, throttled to
        # keep terminal I/O off the supervision hot path.
        nonlocal last_draw, resolved_total
        kind = event["type"]
        if kind == "incident_resolved":
            resolved_total += 1
        if live:
            # The live-table redraw throttle is the one legitimate wall-clock
            # read: it paces *rendering* for human eyes and never feeds the
            # simulation, detectors, or journals.
            now = time.monotonic()  # repro-lint: disable=determinism
            if (
                kind in ("incident_resolved", "env_done", "fleet_done")
                or now - last_draw >= 0.2
            ):
                last_draw = now
                redraw()
        elif not args.json and kind == "incident_resolved":
            print(
                f"t={event['clock'] / 3600.0:5.1f}h  {event['incident_id']:<40} "
                f"{event['severity']:<8} -> {event['top_cause']}",
                flush=True,
            )

    remaining_s = args.hours * 3600.0 - resumed_s
    if remaining_s > 0:
        supervisor.run(remaining_s, on_event=on_event)
    elif not args.json:
        print(
            f"checkpoint already covers {resumed_s / 3600.0:.1f}h "
            f">= --hours {args.hours:g}; nothing left to simulate"
        )

    # Incidents restored from a checkpoint carry their report in serialised
    # form (report_data); both count as diagnosed.
    diagnosed = [
        i
        for i in supervisor.incidents()
        if i.report is not None or i.report_data is not None
    ]
    if args.json:
        payload = supervisor.to_dict()
        if args.stats:
            # Observability is additive: the checkpoint-equivalent state in
            # to_dict() stays byte-identical; pool/metrics ride alongside.
            from .obs import metrics as obs_metrics

            payload["pool"] = supervisor.pool_stats()
            payload["metrics"] = obs_metrics.json_view(
                obs_metrics.registry().snapshot()
            )
        print(json.dumps(payload, indent=2))
    else:
        if not sys.stdout.isatty():
            print()
            print(supervisor.render_table())
        summary = (
            f"\n{len(supervisor.incidents())} incident(s), {len(diagnosed)} "
            f"diagnosed across {len(supervisor.watched)} environment(s)"
        )
        if supervisor.correlator is not None:
            summary += (
                f"; {len(supervisor.correlator.fleet_incidents())} fleet "
                "incident(s) correlated"
            )
        print(summary)
        if args.stats:
            pool = supervisor.pool_stats()
            print(
                f"pool: {pool['submitted']} task(s) submitted, "
                f"{pool['completed']} completed, {pool['failed']} failed "
                f"({pool['max_workers']} worker(s))"
            )
            for row in pool.get("workers", ()):
                print(
                    f"  worker[{row['worker']}]: pid {row['pid'] or '-'}, "
                    f"{row['affinity_keys']} affinity key(s), "
                    f"{row['tasks_routed']} task(s) routed, "
                    f"{row['handoff_bytes'] / 1024.0:.0f} KiB handoff"
                )
            if args.state_dir is not None:
                print(
                    f"observability sidecar written: `repro trace --state-dir "
                    f"{args.state_dir}` / `repro metrics --state-dir "
                    f"{args.state_dir}`"
                )
    return 0 if diagnosed else 1


def cmd_trace(args: argparse.Namespace) -> int:
    import os

    from .obs import critical_path, summarize
    from .obs.export import load_spans, write_chrome_trace

    if not os.path.isdir(args.state_dir):
        print(f"no state dir at {args.state_dir}", file=sys.stderr)
        return 2
    spans = load_spans(args.state_dir)
    if not spans:
        print(
            "no trace data recorded — run `repro watch --stats --state-dir "
            f"{args.state_dir}` (or set REPRO_OBS=1) first",
            file=sys.stderr,
        )
        return 1

    if args.chrome:
        events = write_chrome_trace(spans, args.chrome)
        print(
            f"{len(spans)} span(s) -> {args.chrome} ({events} trace events; "
            "load in Perfetto or chrome://tracing)"
        )
        return 0

    if args.critical_path:
        report = critical_path(spans)
        if args.json:
            print(json.dumps(report, indent=2))
            return 0
        print(
            f"{report['roots']} root span(s), "
            f"{report['total_wall_s'] * 1000.0:.1f}ms total wall, "
            f"{report['coverage'] * 100.0:.1f}% attributed to named phases"
        )
        if report["by_name"]:
            print("\nattribution (fleet-wide, clipped to roots):")
            for name, seconds in report["by_name"].items():
                print(f"  {name:<24} {seconds * 1000.0:>10.1f}ms")
        if report["slowest"]:
            print("\nslowest roots:")
            for root in report["slowest"]:
                where = f" [{root['env']}]" if root.get("env") else ""
                chain = " -> ".join(
                    f"{p['name']} {p['wall_ms']:.1f}ms" for p in root["phases"]
                )
                print(
                    f"  {root['name']}{where} t={root['sim_t']:.0f}s "
                    f"{root['wall_ms']:.1f}ms "
                    f"({root['coverage'] * 100.0:.0f}% covered)"
                )
                if chain:
                    print(f"    {chain}")
        return 0

    summary = summarize(spans)
    if args.json:
        print(json.dumps(summary, indent=2))
        return 0
    header = (
        f"{'span':<24} {'count':>7} {'total(s)':>9} {'mean(ms)':>9} "
        f"{'p50(ms)':>8} {'p95(ms)':>8} {'max(ms)':>8}"
    )
    print(header)
    print("-" * len(header))
    for name, row in summary.items():
        print(
            f"{name:<24} {row['count']:>7} {row['total_s']:>9.3f} "
            f"{row['mean_ms']:>9.2f} {row['p50_ms']:>8.2f} "
            f"{row['p95_ms']:>8.2f} {row['max_ms']:>8.2f}"
        )
    print(f"\n{len(spans)} span(s) across {len(summary)} name(s)")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    import os

    from .obs.export import load_metric_snapshots

    if not os.path.isdir(args.state_dir):
        print(f"no state dir at {args.state_dir}", file=sys.stderr)
        return 2
    snapshots = load_metric_snapshots(args.state_dir)
    if not snapshots:
        print(
            "no metrics recorded — run `repro watch --stats --state-dir "
            f"{args.state_dir}` (or set REPRO_OBS=1) first",
            file=sys.stderr,
        )
        return 1

    def keep(name: str) -> bool:
        return args.name is None or args.name in name

    if args.json:
        filtered = []
        for snap in snapshots:
            metrics = snap.get("metrics", {})
            filtered.append(
                {
                    "t": snap.get("t"),
                    "metrics": {
                        kind: {
                            name: value
                            for name, value in metrics.get(kind, {}).items()
                            if keep(name)
                        }
                        for kind in ("counters", "gauges", "histograms")
                    },
                }
            )
        print(json.dumps(filtered, indent=2))
        return 0

    latest = snapshots[-1]
    metrics = latest.get("metrics", {})
    print(
        f"latest snapshot at t={latest.get('t', 0.0) / 3600.0:.1f}h "
        f"({len(snapshots)} snapshot(s) recorded)"
    )
    # Under --pool process the snapshot also carries every worker registry
    # folded home (worker.<pid>.* verbatim, workers.* fleet aggregates).
    worker_pids = {
        name.split(".", 2)[1]
        for kind in ("counters", "gauges", "histograms")
        for name in metrics.get(kind, {})
        if name.startswith("worker.")
    }
    if worker_pids:
        print(
            f"merged worker registries: {len(worker_pids)} "
            f"(pids {', '.join(sorted(worker_pids))})"
        )
    shown = 0
    for name, value in sorted(metrics.get("counters", {}).items()):
        if keep(name):
            print(f"  counter    {name:<32} {value:g}")
            shown += 1
    for name, value in sorted(metrics.get("gauges", {}).items()):
        if keep(name):
            print(f"  gauge      {name:<32} {value:g}")
            shown += 1
    for name, row in sorted(metrics.get("histograms", {}).items()):
        if keep(name):
            print(
                f"  histogram  {name:<32} count {row['count']} "
                f"mean {row['mean_ms']:.2f}ms p95 {row['p95_ms']:.2f}ms "
                f"max {row['max_ms']:.2f}ms"
            )
            shown += 1
    if not shown:
        print(f"  (no metric matches {args.name!r})")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    # Reuse the devtools entry point so `repro lint` and
    # `python -m repro.devtools.lint` are the same tool, flag for flag.
    from .devtools.lint import main as lint_main

    argv = list(args.paths)
    if args.select:
        argv += ["--select", args.select]
    if args.strict:
        argv.append("--strict")
    if args.json:
        argv.append("--json")
    return lint_main(argv)


def cmd_incidents(args: argparse.Namespace) -> int:
    import os

    from .stream import IncidentStore

    if not os.path.isdir(args.state_dir):
        print(f"no state dir at {args.state_dir}", file=sys.stderr)
        return 2
    store = IncidentStore.open(args.state_dir)
    try:
        since = args.since_hours * 3600.0 if args.since_hours is not None else None
        tickets = store.history(env=args.env, state=args.status, since=since)
        if args.json:
            print(json.dumps(tickets, indent=2))
            return 0
        if not tickets:
            print("no incidents recorded")
            return 0
        header = (
            f"{'incident':<40} {'opened(h)':>9} {'state':<11} {'sev':<8} "
            f"{'det':>3} top cause"
        )
        print(header)
        print("-" * len(header))
        for ticket in tickets:
            report = ticket.get("report")
            causes = (report or {}).get("causes") or []
            top = causes[0]["cause_id"] if causes else "-"
            print(
                f"{ticket['incident_id']:<40} {ticket['opened_at'] / 3600.0:>9.1f} "
                f"{ticket['state']:<11} {ticket['severity']:<8} "
                f"{len(ticket.get('detections', [])):>3} {top}"
            )
        print(f"\n{len(tickets)} incident(s)")
        return 0
    finally:
        store.close()


def cmd_correlate(args: argparse.Namespace) -> int:
    import os

    if not os.path.isdir(args.state_dir):
        print(f"no state dir at {args.state_dir}", file=sys.stderr)
        return 2
    store = FleetIncidentStore.open(args.state_dir)
    try:
        since = args.since_hours * 3600.0 if args.since_hours is not None else None
        tickets = store.history(
            component=args.component, state=args.status, since=since
        )
        if args.json:
            print(json.dumps(tickets, indent=2))
            return 0
        if not tickets:
            print("no fleet incidents recorded")
            return 0
        header = (
            f"{'fleet incident':<24} {'component':<12} {'opened(h)':>9} "
            f"{'state':<9} {'conf':>5} {'members':>7} top cause"
        )
        print(header)
        print("-" * len(header))
        from .correlate import ticket_top_cause

        for ticket in tickets:
            print(
                f"{ticket['fleet_id']:<24} {ticket['component_id']:<12} "
                f"{ticket['opened_at'] / 3600.0:>9.1f} {ticket['state']:<9} "
                f"{ticket['confidence']:>5.2f} {len(ticket['members']):>7} "
                f"{ticket_top_cause(ticket) or '-'}"
            )
        print(f"\n{len(tickets)} fleet incident(s)")
        return 0
    finally:
        store.close()


def cmd_serve(args: argparse.Namespace) -> int:
    if args.stats:
        from .obs import enable as obs_enable

        obs_enable()
    # Deferred import: the serve subsystem pulls in asyncio server machinery
    # no other subcommand needs.
    from .serve import ServeApp

    try:
        app = ServeApp(args.state_root, sse_backlog=args.sse_backlog, pool=args.pool)
    except ValueError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    print(
        f"repro serve: state root {app.state_root}, "
        f"binding {args.host}:{args.port} ...",
        flush=True,
    )
    try:
        resumed = app.serve_forever(args.host, args.port)
    except KeyboardInterrupt:
        return 0
    except OSError as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 2
    print(f"repro serve: stopped ({resumed} watch(es) had been resumed)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "batch":
        return cmd_batch(args)
    if args.command == "watch":
        return cmd_watch(args)
    if args.command == "trace":
        return cmd_trace(args)
    if args.command == "metrics":
        return cmd_metrics(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "incidents":
        return cmd_incidents(args)
    if args.command == "correlate":
        return cmd_correlate(args)
    return 2  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
