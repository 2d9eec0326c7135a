"""Generated inputs of each workload: a pure function of seed and run length.

The workload seed replaces every scenario and fabric seed; the number of
operations follows from ``--seconds`` alone, so every commit runs the same
sequence of operations for the same arguments.  The returned dicts are
printed with each run's results, so two runs can be checked to have
measured the same thing.
"""

from __future__ import annotations

import math
import random

#: The five Table-1 scenarios, by their CLI registry names.
TABLE1 = (
    "san-misconfiguration",
    "two-external-workloads",
    "data-property-change",
    "concurrent-db-san",
    "lock-contention",
)

#: Simulated history every diagnose environment has before the first op.
DIAGNOSE_HISTORY_H = 48.0
#: Each diagnose operation appends one query period.
APPEND_S = 1800.0

#: The serve workload's fixed request cycle: one write pair, seven reads.
READS = (
    ("incidents", "a"),
    ("incidents", "b"),
    ("fleet_incidents", "a"),
    ("watch", "b"),
    ("tenant", "a"),
    ("healthz", None),
    ("metrics", None),
)
SERVE_RATE_PER_S = 5.0
SERVE_TENANTS = {"a": "san-misconfiguration", "b": "lock-contention"}
#: Measured windows per run, each on a freshly started server.
SERVE_WINDOWS = 3
#: Simulated hours each serve tenant would watch: far longer than any
#: window, so the watches run throughout and never reach the fault.
SERVE_WATCH_H = 2000.0
#: SSE events are counted up to this simulated time, which every watch
#: reaches early in the window, so the count repeats exactly.
SSE_HORIZON_H = 6.0


def diagnose_inputs(seed: int, seconds: int) -> dict:
    order = list(TABLE1)
    random.Random(seed).shuffle(order)
    ops_per_env = max(1, round(seconds / 20))
    return {
        "workload": "diagnose",
        "seed": seed,
        "scenarios": order,
        "scenario_seed": seed,
        "history_h": DIAGNOSE_HISTORY_H,
        # Built long enough that every append stays inside the designed
        # timeline (lock contention lasts until the scenario's end).
        "scenario_hours": DIAGNOSE_HISTORY_H + ops_per_env * APPEND_S / 3600.0,
        "append_s": APPEND_S,
        "ops_per_env": ops_per_env,
        # The live report is compared with a rebuilt one for the last
        # environment only: the round trip costs about 8 s.
        "checked": order[-1],
    }


def watch_inputs(seed: int, seconds: int) -> dict:
    return {
        "workload": "watch",
        "seed": seed,
        "fabric": "shared-pool-saturation",
        "fabric_seed": seed,
        "n_envs": 8,
        "attached": 6,
        "hours": float(max(4, round(1.2 * seconds))),
        # ``run`` goes on one CPU (see ``workloads.one_cpu``), where more
        # advancing workers would only take turns at the interpreter lock.
        "max_workers": 1,
        "chunk_minutes": 30.0,
        "cooldown_minutes": 120.0,
        "correlation_window_minutes": 60.0,
        "min_members": 3,
    }


def serve_inputs(seed: int, seconds: int) -> dict:
    rng = random.Random(seed)
    cycle_s = (len(READS) + 2) / SERVE_RATE_PER_S
    per_window = math.ceil(seconds / cycle_s / SERVE_WINDOWS)
    windows: list[list] = []
    for window in range(SERVE_WINDOWS):
        mix: list[list] = []
        for cycle in range(per_window):
            scratch = f"scratch-{seed}-{window}-{cycle}"
            reads = list(READS)
            rng.shuffle(reads)
            mix.append(["tenant_create", scratch])
            mix.extend([route, tenant] for route, tenant in reads)
            mix.append(["tenant_delete", scratch])
        windows.append(mix)
    return {
        "workload": "serve",
        "seed": seed,
        "tenants": dict(SERVE_TENANTS),
        "scenario_seed": seed,
        "watch_hours": SERVE_WATCH_H,
        "rate_per_s": SERVE_RATE_PER_S,
        "windows": windows,
        "sse_tenant": "a",
        "sse_horizon_h": SSE_HORIZON_H,
    }
