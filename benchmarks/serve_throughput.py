"""repro.serve throughput: REST request rate + SSE fan-out at scale.

Two questions about the long-running fleet service:

* **REST** — how many requests/s does the hand-rolled HTTP/1.1 layer
  sustain from concurrent clients hitting a handler that crosses the
  coordination loop (``/healthz``)?
* **SSE fan-out** — when one tenant's fleet watch emits its event stream,
  can the broker fan every event out to **64 concurrent SSE clients**
  without losing frames and without unbounded lag?  Each client holds a
  bounded queue; the acceptance bar is *completeness* (all 64 clients see
  the identical, gap-free event sequence) and *bounded drain lag* (the
  slowest client finishes within ``LAG_BUDGET_S`` of the watch itself).

Results land in ``benchmarks/results/serve_throughput.txt`` and
machine-readable ``BENCH_serve.json``.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

from repro.serve import ServeApp

N_SSE_CLIENTS = 64
REST_THREADS = 8
REST_REQUESTS_PER_THREAD = 50
LAG_BUDGET_S = 5.0

FLEET_SPEC = {
    "scenarios": ["shared-pool-saturation"],
    "hours": 2.0,
    "seed": 7,
    "min_members": 2,
    "chunk_minutes": 30.0,
}


class _Server:
    def __init__(self, root) -> None:
        self.app = ServeApp(root, sse_backlog=256)
        self.thread = threading.Thread(
            target=self.app.serve_forever, args=("127.0.0.1", 0), daemon=True
        )
        self.thread.start()
        deadline = time.time() + 30
        while self.app.bound is None and time.time() < deadline:
            time.sleep(0.01)
        assert self.app.bound is not None, "server never bound"

    def request(self, method: str, path: str, body: dict | None = None):
        host, port = self.app.bound
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload)
            response = conn.getresponse()
            raw = response.read()
            return response.status, (json.loads(raw) if raw else None)
        finally:
            conn.close()

    def stop(self) -> None:
        self.app.stop()
        self.thread.join(timeout=30)


class _SseClient(threading.Thread):
    """Reads one tenant's stream until the terminal ``fleet_done`` event."""

    def __init__(self, host: str, port: int, path: str) -> None:
        super().__init__(daemon=True)
        self.conn = http.client.HTTPConnection(host, port, timeout=120)
        self.path = path
        self.seqs: list[int] = []
        self.finished_at: float | None = None
        self.error: str | None = None

    def run(self) -> None:
        try:
            self.conn.request("GET", self.path)
            response = self.conn.getresponse()
            buffer = b""
            while True:
                chunk = response.read1(65536)
                if not chunk:
                    break
                buffer += chunk
                done = False
                while b"\n\n" in buffer:
                    raw, buffer = buffer.split(b"\n\n", 1)
                    seq = event = None
                    for line in raw.decode().split("\n"):
                        if line.startswith("id: "):
                            seq = int(line[4:])
                        elif line.startswith("event: "):
                            event = line[7:]
                    if seq is not None:
                        self.seqs.append(seq)
                    if event == "fleet_done":
                        done = True
                if done:
                    self.finished_at = time.perf_counter()
                    break
        except Exception as exc:  # pragma: no cover - reported in the table
            self.error = repr(exc)
        finally:
            self.conn.close()


def _bench_rest(server: _Server) -> dict:
    latencies: list[float] = []
    lock = threading.Lock()

    def worker() -> None:
        mine = []
        for _ in range(REST_REQUESTS_PER_THREAD):
            t0 = time.perf_counter()
            status, _ = server.request("GET", "/healthz")
            mine.append(time.perf_counter() - t0)
            assert status == 200
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=worker) for _ in range(REST_THREADS)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0
    latencies.sort()
    n = len(latencies)
    return {
        "requests": n,
        "threads": REST_THREADS,
        "requests_per_s": n / elapsed,
        "p50_ms": latencies[n // 2] * 1e3,
        "p95_ms": latencies[int(n * 0.95)] * 1e3,
    }


def _bench_sse(server: _Server) -> dict:
    status, _ = server.request("POST", "/v1/tenants", {"tenant_id": "bench"})
    assert status == 201
    status, _ = server.request("POST", "/v1/tenants/bench/fleets", FLEET_SPEC)
    assert status == 201

    host, port = server.app.bound
    clients = [
        _SseClient(host, port, "/v1/tenants/bench/events")
        for _ in range(N_SSE_CLIENTS)
    ]
    for client in clients:
        client.start()
    time.sleep(0.2)  # let every stream attach before events start flowing

    t0 = time.perf_counter()
    status, _ = server.request("POST", "/v1/tenants/bench/watch/start")
    assert status == 200
    deadline = time.time() + 120
    while time.time() < deadline:
        _, watch = server.request("GET", "/v1/tenants/bench/watch")
        if watch["state"] in ("done", "failed", "stopped"):
            break
        time.sleep(0.02)
    assert watch["state"] == "done", watch
    watch_done = time.perf_counter()

    for client in clients:
        client.join(timeout=60)
    errors = [c.error for c in clients if c.error]
    assert not errors, errors
    assert all(c.finished_at is not None for c in clients), "client never finished"

    # Completeness: every client saw the identical gap-free sequence.
    reference = clients[0].seqs
    assert reference == list(range(len(reference))), "stream must be gap-free"
    for client in clients:
        assert client.seqs == reference, "fan-out must be complete for every client"

    lags = sorted(max(0.0, c.finished_at - watch_done) for c in clients)
    frames = len(reference) * N_SSE_CLIENTS
    elapsed = max(c.finished_at for c in clients) - t0
    return {
        "clients": N_SSE_CLIENTS,
        "events": len(reference),
        "frames_delivered": frames,
        "frames_per_s": frames / elapsed,
        "watch_wall_s": watch_done - t0,
        "drain_lag_p50_s": lags[len(lags) // 2],
        "drain_lag_max_s": lags[-1],
        "lag_budget_s": LAG_BUDGET_S,
    }


def test_bench_serve_throughput(record_result, tmp_path):
    server = _Server(tmp_path / "root")
    try:
        rest = _bench_rest(server)
        sse = _bench_sse(server)
    finally:
        server.stop()

    # The acceptance bar: full fan-out with bounded lag.
    assert sse["drain_lag_max_s"] < LAG_BUDGET_S

    text = "\n".join(
        [
            "repro serve throughput",
            "",
            f"REST  /healthz x{rest['requests']} over {rest['threads']} threads: "
            f"{rest['requests_per_s']:8.0f} req/s  "
            f"(p50 {rest['p50_ms']:.2f} ms, p95 {rest['p95_ms']:.2f} ms)",
            f"SSE   {sse['events']} events -> {sse['clients']} clients: "
            f"{sse['frames_delivered']} frames at {sse['frames_per_s']:8.0f} frames/s",
            f"      drain lag p50 {sse['drain_lag_p50_s'] * 1e3:.0f} ms, "
            f"max {sse['drain_lag_max_s'] * 1e3:.0f} ms "
            f"(budget {LAG_BUDGET_S:.0f} s); all clients gap-free and identical",
        ]
    )
    record_result("serve", text, data={"rest": rest, "sse": sse})
