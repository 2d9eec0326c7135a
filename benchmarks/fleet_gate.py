"""Real-fleet gate: observability overhead and the process pool's speed-up.

Every run is a real ``repro watch`` of the 14 registered single-environment
scenarios (``repro.cli.SCENARIOS``) for ``HOURS`` simulated hours with a
``--state-dir``, so the CLI builds the fleet from its own registry entries,
and from their hydration specs under ``--pool process``.  Each round runs
four configurations, in an order that reverses from round to round so host
drift hits them alike:

* ``--pool threads`` and ``--pool process``;
* observability off, and on (``--stats``: the state dir also gets the JSONL
  trace and metrics sidecar).

Throughput is simulated environment-hours per wall second over all
``ROUNDS`` runs of a configuration (its summed wall time).  Gates:

* obs-on throughput is at least 95% of obs-off, under each backend;
* every run gives the same incident digest (the ``--json`` incident list);
* every obs-on run journals spans, and under ``process`` worker spans too;
* ``process`` throughput is at least 1.5x ``threads`` (obs off) on hosts
  with two or more cores.

Wall time is the whole command, interpreter start included.  The CPU time
of each run's process tree (``RUSAGE_CHILDREN``) and the per-round on/off
ratios are reported beside the gated figures, not gated.  Results land in
``benchmarks/results/`` as ``fleet_gate.txt`` and ``BENCH_fleet_gate.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.cli import SCENARIOS
from repro.obs import load_spans

HOURS = 6.0
ROUNDS = 3
MIN_OBS_RATIO = 0.95
MIN_PROCESS_SPEEDUP = 1.5
POOLS = ("threads", "process")

#: Run order of the even rounds; odd rounds run it backwards.
ORDER = (("threads", False), ("process", False), ("threads", True), ("process", True))

SRC = str(Path(repro.__file__).resolve().parents[1])


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _watch(state_dir: Path, pool: str, obs: bool) -> dict:
    """One ``repro watch`` of the registered scenarios: wall, CPU, digest, spans."""
    cmd = [
        sys.executable, "-m", "repro.cli", "watch", *SCENARIOS,
        "--hours", str(HOURS), "--pool", pool,
        "--state-dir", str(state_dir), "--json",
    ]
    if obs:
        cmd.append("--stats")
    # Only --stats turns observability on, whatever the caller's environment.
    env = {k: v for k, v in os.environ.items() if k != "REPRO_OBS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    cpu = _cpu_children()
    start = time.perf_counter()
    out = subprocess.run(cmd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    cpu = _cpu_children() - cpu
    if out.returncode != 0:
        raise RuntimeError(
            f"repro watch --pool {pool}{' --stats' if obs else ''} exited "
            f"{out.returncode}:\n{out.stderr[-4000:]}"
        )
    incidents = json.loads(out.stdout)["incidents"]
    spans = load_spans(state_dir)
    return {
        "pool": pool,
        "obs": obs,
        "wall_s": wall,
        "cpu_s": cpu,
        "env_h_per_s": len(SCENARIOS) * HOURS / wall,
        "incidents": len(incidents),
        "digest": hashlib.sha256(
            json.dumps(incidents, sort_keys=True).encode()
        ).hexdigest()[:16],
        "spans": len(spans),
        "worker_spans": sum(1 for s in spans if s["name"].startswith("worker.")),
    }


def test_bench_fleet_gate(record_result, tmp_path):
    rows = []
    for round_ in range(ROUNDS):
        for pool, obs in ORDER if round_ % 2 == 0 else ORDER[::-1]:
            state_dir = tmp_path / f"r{round_}-{pool}-{'on' if obs else 'off'}"
            rows.append({"round": round_, **_watch(state_dir, pool, obs)})

    def seconds(pool: str, obs: bool, field: str = "wall_s") -> list[float]:
        return [r[field] for r in rows if r["pool"] == pool and r["obs"] == obs]

    # Every run does the same work, so a throughput ratio is the inverse
    # ratio of summed wall (or CPU) seconds.
    obs_ratio = {p: sum(seconds(p, False)) / sum(seconds(p, True)) for p in POOLS}
    cpu_ratio = {
        p: sum(seconds(p, False, "cpu_s")) / sum(seconds(p, True, "cpu_s"))
        for p in POOLS
    }
    pair_ratios = {
        p: [off / on for off, on in zip(seconds(p, False), seconds(p, True))]
        for p in POOLS
    }
    speedup = sum(seconds("threads", False)) / sum(seconds("process", False))
    digests = sorted({r["digest"] for r in rows})
    gate_speedup = (os.cpu_count() or 1) >= 2

    lines = [
        f"repro watch of {len(SCENARIOS)} scenarios x {HOURS:g} h, "
        f"{os.cpu_count()} CPU(s), {ROUNDS} alternating rounds",
        "-" * 86,
        f"{'round':>5}  {'pool':<8}{'obs':<5}{'wall s':>8}{'cpu s':>8}{'env-h/s':>9}"
        f"{'incidents':>10}{'spans':>8}{'worker':>8}  digest",
        "-" * 86,
    ]
    for r in rows:
        lines.append(
            f"{r['round']:>5}  {r['pool']:<8}{'on' if r['obs'] else 'off':<5}"
            f"{r['wall_s']:>8.2f}{r['cpu_s']:>8.2f}{r['env_h_per_s']:>9.2f}"
            f"{r['incidents']:>10}{r['spans']:>8}{r['worker_spans']:>8}  {r['digest']}"
        )
    lines.append("")
    for pool in POOLS:
        lines.append(
            f"obs on/off throughput, {pool}, all rounds: {obs_ratio[pool]:.3f}"
            f" (gate: >= {MIN_OBS_RATIO}); CPU {cpu_ratio[pool]:.3f}; per round "
            + " ".join(f"{r:.3f}" for r in pair_ratios[pool])
        )
    lines.append(
        f"process/threads throughput, obs off, all rounds: {speedup:.2f}x  (gate: >= "
        f"{MIN_PROCESS_SPEEDUP}x{'' if gate_speedup else ', not gated on 1 CPU'})"
    )
    lines.append(f"incident digests: {len(digests)}  (gate: 1)")
    record_result(
        "fleet_gate",
        "\n".join(lines),
        data={
            "hours": HOURS,
            "scenarios": len(SCENARIOS),
            "cpus": os.cpu_count(),
            "runs": rows,
            "obs_ratio": obs_ratio,
            "obs_cpu_ratio": cpu_ratio,
            "obs_round_ratios": pair_ratios,
            "process_speedup": speedup,
            "digests": digests,
        },
    )

    assert len(digests) == 1, f"runs disagree on the incident history: {digests}"
    for r in rows:
        if r["obs"]:
            assert r["spans"] > 0, f"obs-on run journalled no spans: {r}"
            if r["pool"] == "process":
                assert r["worker_spans"] > 0, f"no worker spans journalled: {r}"
        else:
            assert r["spans"] == 0, f"obs-off run journalled spans: {r}"
    for pool in POOLS:
        assert obs_ratio[pool] >= MIN_OBS_RATIO, (
            f"observability costs {1.0 - obs_ratio[pool]:.1%} of {pool} "
            f"throughput over {ROUNDS} rounds (gate allows <= "
            f"{1.0 - MIN_OBS_RATIO:.0%})"
        )
    if gate_speedup:
        assert speedup >= MIN_PROCESS_SPEEDUP, (
            f"process pool is {speedup:.2f}x threads "
            f"(gate: >= {MIN_PROCESS_SPEEDUP}x)"
        )
