"""The ``serve`` workload: an open-loop REST client beside one SSE stream.

A run measures several windows, each on a freshly started ``repro serve``
process (``serve_host.py``) that hosts two tenants, each watching one
Table-1 environment for longer than the window.  In a window one thread
sends that window's share of the generated request mix on one keep-alive
connection at a fixed rate; a second thread follows tenant ``a``'s event
stream.

How far the watches get in a window depends on the commit's speed, so
the compared memory figure is the servers' peak through set-up; the
windows' peak is printed beside it.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import loadgen
import stats
from workloads import Result

HERE = Path(__file__).resolve().parent
TENANT_IDS = {"a": "bench-a", "b": "bench-b"}

#: route -> (method, path template, expected status)
ROUTES = {
    "tenant_create": ("POST", "/v1/tenants", 201),
    "tenant_delete": ("DELETE", "/v1/tenants/{tid}", 200),
    "incidents": ("GET", "/v1/tenants/{tid}/incidents", 200),
    "fleet_incidents": ("GET", "/v1/tenants/{tid}/fleet-incidents", 200),
    "watch": ("GET", "/v1/tenants/{tid}/watch", 200),
    "tenant": ("GET", "/v1/tenants/{tid}", 200),
    "healthz": ("GET", "/healthz", 200),
    "metrics": ("GET", "/metrics", 200),
}


class RequestFailed(Exception):
    pass


class Client:
    """One keep-alive connection at a time; reconnects after a failure."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def call(self, method: str, path: str, body: dict | None = None, expect: int = 200):
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            self.conn.request(
                method,
                path,
                body=None if body is None else json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = self.conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise RequestFailed(f"{method} {path}: {type(exc).__name__}: {exc}") from exc
        if response.status != expect:
            raise RequestFailed(f"{method} {path} -> {response.status}: {raw[:200]!r}")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise RequestFailed(f"{method} {path}: body is not JSON") from exc

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class SseReader(threading.Thread):
    """Follows one tenant's event stream; records ids and simulated times."""

    def __init__(self, port: int, tenant_id: str) -> None:
        super().__init__(daemon=True)
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.path = f"/v1/tenants/{tenant_id}/events?after=-1"
        self.frames: list[tuple[int, str | None, float | None]] = []
        self.error: str | None = None
        self.stopping = False
        self.sock: socket.socket | None = None

    def run(self) -> None:
        try:
            self.conn.request("GET", self.path)
            # The response takes the socket over; keep it to unblock stop().
            self.sock = self.conn.sock
            response = self.conn.getresponse()
            if response.status != 200:
                self.error = f"SSE status {response.status}"
                return
            buffer = b""
            while True:
                chunk = response.read1(65536)
                if not chunk:
                    return
                buffer += chunk
                while b"\n\n" in buffer:
                    raw, buffer = buffer.split(b"\n\n", 1)
                    self._frame(raw.decode())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            if not self.stopping:
                self.error = f"SSE: {type(exc).__name__}: {exc}"

    def _frame(self, raw: str) -> None:
        seq, kind, t = None, None, None
        for line in raw.split("\n"):
            if line.startswith("id: "):
                seq = int(line[4:])
            elif line.startswith("event: "):
                kind = line[7:]
            elif line.startswith("data: "):
                t = json.loads(line[6:]).get("t")
        if seq is not None:
            self.frames.append((seq, kind, t))

    def stop(self) -> None:
        self.stopping = True
        if self.sock is not None:
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if self.ident is not None:  # started
            self.join(timeout=30)
        self.conn.close()


def split_cpus() -> tuple[int | None, set[int] | None]:
    """One CPU for the server and the others for the client, or no pinning
    on one CPU.

    On one CPU the server's threads (two watches and the event loop) hand
    the interpreter lock over without waking another CPU.  Spread over two
    virtual CPUs, every handover wakes the other one, and that cost follows
    the host's load: the watches' rate then moved by up to 2x between runs
    minutes apart.  The client keeps off the server's CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return cpus[0], set(cpus[1:])


class Server:
    """One ``serve_host.py`` process and its state root."""

    def __init__(self, root: Path, ledger_out: Path | None = None, cpu: int | None = None) -> None:
        self.root = root
        cmd = [sys.executable, str(HERE / "serve_host.py"), "--state-root", str(root)]
        if ledger_out is not None:
            cmd += ["--ledger-out", str(ledger_out)]
        if cpu is not None:
            cmd += ["--cpu", str(cpu)]
        root.mkdir(parents=True, exist_ok=True)
        self.log = (root / "server.log").open("wb")
        self.proc = subprocess.Popen(
            cmd,
            stdout=self.log,
            stderr=subprocess.STDOUT,
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        try:
            self.port = self._wait_port()
        except BaseException:
            self.stop()
            raise

    def _wait_port(self) -> int:
        manifest = self.root / "serve.json"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                log = (self.root / "server.log").read_text()[-2000:]
                raise RuntimeError(f"server exited with {self.proc.returncode}: {log}")
            try:
                return json.loads(manifest.read_text())["port"]
            except (OSError, ValueError, KeyError):
                time.sleep(0.005)
        raise RuntimeError("server did not publish its port")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()
        return self.proc.returncode


def _start_watches(client: Client, inputs: dict) -> None:
    for key, scenario in inputs["tenants"].items():
        tid = TENANT_IDS[key]
        client.call("POST", "/v1/tenants", {"tenant_id": tid}, 201)
        spec = {
            "scenarios": [scenario],
            "hours": inputs["watch_hours"],
            "seed": inputs["scenario_seed"],
        }
        client.call("POST", f"/v1/tenants/{tid}/fleets", spec, 201)
        client.call("POST", f"/v1/tenants/{tid}/watch/start", None, 200)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        states = [
            client.call("GET", f"/v1/tenants/{TENANT_IDS[k]}/watch")["state"]
            for k in inputs["tenants"]
        ]
        if all(s == "running" for s in states):
            return
        if any(s in ("failed", "done", "stopped") for s in states):
            raise RuntimeError(f"watch states {states}")
        time.sleep(0.005)
    raise RuntimeError("watches did not start")


def _watches(client: Client, inputs: dict) -> dict[str, dict]:
    """Each tenant's watch status."""
    return {k: client.call("GET", f"/v1/tenants/{TENANT_IDS[k]}/watch") for k in inputs["tenants"]}


def _advanced_s(watches: dict[str, dict]) -> float:
    return sum(status.get("advanced_s", 0.0) for status in watches.values())


def run_serve(
    inputs: dict, work_dir: Path, *, ledger_out: Path | None = None, check: bool = True
) -> Result:
    """Run the workload; with ``ledger_out`` every server is traced, each
    into a file of its own next to it.  While it runs, the calling process
    keeps off the server's CPU."""
    server_cpu, client_cpus = split_cpus()
    affinity = os.sched_getaffinity(0)
    if client_cpus:
        os.sched_setaffinity(0, client_cpus)
    try:
        result = _run(inputs, work_dir, server_cpu, ledger_out, check)
    finally:
        os.sched_setaffinity(0, affinity)
    result.notes["cpus"] = {"server": server_cpu, "client": sorted(client_cpus or affinity)}
    return result


def _window(server: Server, client: Client, mix: list, inputs: dict, traced: bool) -> dict:
    """One measured window: the open-loop ``mix`` beside one SSE reader."""
    pool_samples: list[dict] = []

    def send(item):
        route, key = item
        method, template, expect = ROUTES[route]
        tid = key if route.startswith("tenant_") else TENANT_IDS.get(key)
        body = {"tenant_id": tid} if route == "tenant_create" else None
        path = template.format(tid=tid)
        payload = client.call(method, path, body, expect)
        if route == "metrics":
            pool_samples.append(payload["pool"])
        if route == "watch" and payload.get("state") != "running":
            raise RequestFailed(f"GET {path}: watch is {payload.get('state')}: {payload.get('error')}")
        return payload

    sse = SseReader(server.port, TENANT_IDS[inputs["sse_tenant"]])
    try:
        peak = server.peak_rss_mb()
        before, t0 = _watches(client, inputs), time.perf_counter()
        if traced:
            server.proc.send_signal(signal.SIGUSR1)
        sse.start()
        outcomes = loadgen.run_open_loop(mix, inputs["rate_per_s"], send)
        if traced:
            server.proc.send_signal(signal.SIGUSR2)
        after, t1 = _watches(client, inputs), time.perf_counter()
        window_peak = server.peak_rss_mb()
    finally:
        sse.stop()
    return {
        "outcomes": outcomes,
        "pool": pool_samples,
        "sse": sse,
        "before": before,
        "after": after,
        "t": (t0, t1),
        "peak_rss_mb": peak,
        "window_peak_rss_mb": window_peak,
    }


def _run(inputs: dict, work_dir: Path, server_cpu: int | None, ledger_out: Path | None, check: bool) -> Result:
    """Each window runs on a server of its own: set up, measure, stop.  A
    fresh server keeps the watches' history, and so the heap that every
    full collection walks, to a few seconds of simulation."""
    result = Result("serve", inputs)
    traced = ledger_out is not None
    setups, windows = [], []
    for i, mix in enumerate(inputs["windows"]):
        out = ledger_out.with_name(f"{ledger_out.stem}-{i}.json") if traced else None
        start = time.perf_counter()
        server = Server(work_dir / f"root-{i}", out, server_cpu)
        client = Client(server.port)
        try:
            _start_watches(client, inputs)
            setups.append(time.perf_counter() - start)
            window = _window(server, client, mix, inputs, traced)
        finally:
            client.close()
            code = server.stop()
        window["code"] = code
        if traced:
            window["ledger"] = json.loads(out.read_text())
        windows.append(window)
    result.metric("setup_s", statistics.median(setups), "s", len(setups))
    # How far the watches get in a window depends on the commit's speed, so
    # the compared memory figure is the servers' peak through set-up.
    result.metric("peak_rss_mb", max(w["peak_rss_mb"] for w in windows), "MB", len(windows))
    result.notes["window_peak_rss_mb"] = max(w["window_peak_rss_mb"] for w in windows)
    result.timed = [w["t"] for w in windows]
    advanced = [(_advanced_s(w["after"]) - _advanced_s(w["before"])) / 3600.0 for w in windows]
    measured = [t1 - t0 for t0, t1 in result.timed]
    result.metric("sim_h_per_s", sum(advanced) / sum(measured), "env-h/s", len(windows))
    result.notes["window_sim_h_per_s"] = [round(h / s, 3) for h, s in zip(advanced, measured)]

    outcomes = [o for w in windows for o in w["outcomes"]]
    result.attempted = len(outcomes)
    result.failed = sum(not o.ok for o in outcomes)
    for o in outcomes:
        if not o.ok:
            result.failures.append(str(o.result))
    # A refused or failed request misses every latency limit.
    latencies = [o.latency_s * 1000.0 if o.ok else float("inf") for o in outcomes]
    result.metric("rest_p50_ms", statistics.median(latencies), "ms", len(latencies))
    result.metric("latency_ms", statistics.median(latencies), "ms", len(latencies))
    tail = stats.tail(latencies)
    if tail is not None:
        result.metric("rest_tail_ms", tail[1], "ms", len(latencies))
        result.notes["rest_tail_pct"] = tail[0]
    result.metric("ok_share", (result.attempted - result.failed) / result.attempted, "ratio", result.attempted)

    # Client-side layer figures: route medians, pool samples, lateness.
    layers: dict[str, float] = {}
    routes: dict[str, list[float]] = {}
    for o in outcomes:
        if o.ok:
            routes.setdefault(o.item[0], []).append(o.latency_s * 1000.0)
    for route, values in sorted(routes.items()):
        layers[f"serve.{route}.p50_ms"] = statistics.median(values)
    pool_samples = [p for w in windows for p in w["pool"]]
    if pool_samples:
        n = len(pool_samples)
        layers["runtime.pool.queued_mean"] = sum(p["queued"] for p in pool_samples) / n
        layers["runtime.pool.utilisation_mean"] = sum(p["utilisation"] for p in pool_samples) / n
        layers["runtime.pool.failed"] = sum(w["pool"][-1]["failed"] for w in windows if w["pool"])
    late = [o.late_s * 1000.0 for o in outcomes]
    layers["loadgen.late_p50_ms"] = statistics.median(late)
    layers["loadgen.late_max_ms"] = max(late)
    result.notes["client_layers"] = layers

    # Checkpoint events follow the wall clock; the others up to the horizon
    # repeat exactly.
    horizon = inputs["sse_horizon_h"] * 3600.0
    result.counts["serve.sse_events"] = 0
    result.notes["sse_events_total"] = 0
    for i, w in enumerate(windows):
        frames = w["sse"].frames
        ids = [seq for seq, _kind, _t in frames]
        result.counts["serve.sse_events"] += sum(
            kind != "checkpoint" and t is not None and t <= horizon for _s, kind, t in frames
        )
        result.notes["sse_events_total"] += len(ids)
        # The watches must run throughout the window: a failed watch would
        # leave every request answered and only the simulation rate lower.
        for key, status in w["after"].items():
            result.check(
                status["state"] == "running"
                and _advanced_s({key: status}) > _advanced_s({key: w["before"][key]}),
                f"window {i}: tenant {key}'s watch ended the window {status['state']} at "
                f"{status.get('advanced_s')} s: {status.get('error')}",
            )
        if check:
            result.check(w["sse"].error is None, f"window {i}: {w['sse'].error}")
            result.check(ids == list(range(len(ids))), f"window {i}: SSE ids are not gap-free from 0")
            last_t = max((t for _s, _k, t in frames if t is not None), default=0.0)
            result.check(last_t > horizon, f"window {i}: SSE stream ended at t={last_t}, before the count horizon")
            result.check(w["code"] == 0, f"window {i}: server exited with {w['code']}")
    if traced:
        result.notes["server_ledgers"] = [w["ledger"] for w in windows]
    return result
