"""The serve application: one process, one scheduler, many tenants.

``ServeApp`` owns the shared substrate — one
:class:`~repro.storage.JsonlBackend` under ``<state root>/shared``, the
:class:`~repro.serve.tenants.TenantRegistry` that slices it into per-tenant
keyspace prefixes, and one :class:`~repro.runtime.Scheduler` whose event
loop carries *everything*: the HTTP accept loop, every tenant's
:class:`~repro.stream.FleetSupervisor` (via ``run_async``), and every SSE
client's consumer task.  Blocking work — store replays, scenario
fast-forwards, manifest writes, a stopping watch's last checkpoint — goes
through ``Scheduler.call`` onto the worker pool; the serve suite's
loop-thread guard keeps it that way.

Crash-resume is the tentpole guarantee: each started watch flips its
tenant's manifest entry to ``running`` *before* the first chunk advances,
and the supervisor checkpoints into the tenant's own state dir as it goes.
A SIGKILLed server therefore restarts, reads the manifest, and resumes
every running tenant's watch — same checkpoints, same journals, so incident
history continues byte-for-byte as if the process had never died.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from ..fleets import FleetSpec
from ..obs import metrics as obs_metrics
from ..runtime import Scheduler, resolve_pool_backend, shared_pool
from ..storage import JsonlBackend
from ..storage.backend import atomic_write_json
from .http import HttpServer
from .stream import SseBroker
from .tenants import Tenant, TenantRegistry

if TYPE_CHECKING:  # pragma: no cover
    from ..stream import FleetSupervisor

__all__ = ["ServeApp", "WatchSession", "SERVE_MANIFEST"]

#: Written next to the tenant manifest once the server is accepting:
#: ``{"host": ..., "port": ..., "pid": ...}`` — how clients and the CI smoke
#: find a server that was started with ``--port 0``.
SERVE_MANIFEST = "serve.json"


class WatchSession:
    """One tenant's live watch: a supervisor task on the app's scheduler."""

    def __init__(self, app: "ServeApp", tenant_id: str, spec: FleetSpec) -> None:
        self.app = app
        self.tenant_id = tenant_id
        self.spec = spec
        self.state = "pending"  # pending → running → done|failed|stopped
        self.supervisor: "FleetSupervisor | None" = None
        self.task: asyncio.Task | None = None
        self.error: str | None = None
        self._stop_flag = False

    # -- blocking (worker pool) -------------------------------------------
    def _build(self) -> "FleetSupervisor":
        """Construct the supervisor stack; resume its checkpoint if any."""
        registry = self.app.registry
        tenant = registry.get(self.tenant_id)
        supervisor = self.spec.build(
            state_dir=registry.tenant_dir(tenant),
            backend=registry.backend_for(tenant),
            pool=self.app.scheduler.pool,
        )
        if supervisor.has_checkpoint():
            supervisor.resume()
        return supervisor

    # -- coordination loop -------------------------------------------------
    async def start(self) -> None:
        """Build (serialised — resume fast-forwards fan out on the pool),
        mark the manifest running, and spawn the watch task."""
        async with self.app.resume_lock:
            self.supervisor = await self.app.scheduler.call(self._build)
        broker = self.app.broker_for(self.tenant_id)
        broker.bind(self.supervisor.event_log)
        remaining = self.spec.hours * 3600.0 - self.supervisor.advanced_s
        if remaining <= 1e-9:
            self.state = "done"
            await self.app.record_watch(self.tenant_id, self.spec, running=False)
            return
        await self.app.record_watch(self.tenant_id, self.spec, running=True)
        self.task = self.app.scheduler.spawn(
            self._run(remaining, broker), name=f"watch-{self.tenant_id}"
        )

    async def _run(self, remaining: float, broker: SseBroker) -> None:
        self.state = "running"
        obs_metrics.inc("serve.watch.started")
        try:
            await self.supervisor.run_async(
                remaining, scheduler=self.app.scheduler, on_event=broker.publish
            )
        except asyncio.CancelledError:
            self.state = "stopped"
            raise
        except Exception as exc:  # noqa: BLE001 — reported via /watch status
            self.state = "failed"
            self.error = f"{type(exc).__name__}: {exc}"
            obs_metrics.inc("serve.watch.failed")
            await self.app.record_watch(self.tenant_id, self.spec, running=False)
        else:
            self.state = "stopped" if self._stop_flag else "done"
            obs_metrics.inc(f"serve.watch.{self.state}")
            await self.app.record_watch(self.tenant_id, self.spec, running=False)

    async def stop(self) -> None:
        """Graceful stop: current iterations finish, checkpoint is flushed."""
        self._stop_flag = True
        if self.supervisor is not None:
            self.supervisor.stop()
        if self.task is not None:
            try:
                await self.task
            except asyncio.CancelledError:
                pass

    def status(self) -> dict:
        out: dict = {
            "state": self.state,
            "spec": self.spec.to_dict(),
        }
        if self.supervisor is not None:
            out["advanced_s"] = self.supervisor.advanced_s
            out["target_s"] = self.spec.hours * 3600.0
        if self.error is not None:
            out["error"] = self.error
        return out


class ServeApp:
    """Everything behind one ``repro serve`` process."""

    def __init__(
        self,
        state_root: str | os.PathLike,
        *,
        sse_backlog: int = 128,
        pool: str | None = None,
    ) -> None:
        self.state_root = Path(state_root)
        # Both refusals come before the root is created.
        self.pool_backend = resolve_pool_backend(pool)
        # The removed sqlite backend kept every tenant's journals here;
        # resuming their checkpoints over an empty JSONL store would lose
        # those histories, so such a root is refused.
        sqlite_store = self.state_root / "shared.db"
        if sqlite_store.exists():
            raise ValueError(
                f"{sqlite_store} is a sqlite store, which this server no "
                "longer reads; start it on a fresh state root"
            )
        self.state_root.mkdir(parents=True, exist_ok=True)
        self.backend = JsonlBackend(self.state_root / "shared")
        self.registry = TenantRegistry(self.state_root, self.backend)
        self.scheduler = Scheduler(pool=shared_pool(backend=self.pool_backend))
        self.sse_backlog = sse_backlog
        self.sessions: dict[str, WatchSession] = {}
        self.brokers: dict[str, SseBroker] = {}
        # Router import is deferred: api.py imports this module's types.
        from .api import build_router

        self.server = HttpServer(build_router(self))
        self.bound: tuple[str, int] | None = None
        self.resume_lock: asyncio.Lock | None = None
        self._registry_lock: asyncio.Lock | None = None
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ---------------------------------------------------------
    def serve_forever(self, host: str = "127.0.0.1", port: int = 8787) -> int:
        """Sync entry point (the CLI): run until stopped; resumed-watch count."""
        return self.scheduler.run(self.main(host, port))

    async def main(self, host: str, port: int) -> int:
        """Bind, resume every running tenant's watch, serve until stopped."""
        self._loop = asyncio.get_running_loop()
        self.resume_lock = asyncio.Lock()
        self._registry_lock = asyncio.Lock()
        self._stop_event = asyncio.Event()
        self._install_signal_handlers()
        self.bound = await self.server.start(host, port)
        await self.scheduler.call(
            partial(
                atomic_write_json,
                self.state_root / SERVE_MANIFEST,
                {"host": self.bound[0], "port": self.bound[1], "pid": os.getpid()},
                indent=2,
                sort_keys=True,
            )
        )
        resumed = await self._resume_watches()
        obs_metrics.set_gauge("serve.tenants", len(self.registry))
        await self._stop_event.wait()
        await self._shutdown()
        return resumed

    def stop(self) -> None:
        """Request shutdown (thread-safe; also the signal handler)."""
        loop, event = self._loop, self._stop_event
        if loop is None or event is None:
            return
        loop.call_soon_threadsafe(event.set)

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._stop_event.set)
            except (NotImplementedError, RuntimeError, ValueError):
                return  # non-main thread / platform without signal support

    async def _resume_watches(self) -> int:
        """Restart every watch the manifest says was running at kill time."""
        resumed = 0
        for tenant in self.registry.list():
            watch = tenant.watch
            if not watch or not watch.get("running"):
                continue
            try:
                spec = FleetSpec.from_payload(watch.get("spec"))
                session = WatchSession(self, tenant.tenant_id, spec)
                self.sessions[tenant.tenant_id] = session
                await session.start()
                resumed += 1
            except Exception as exc:  # noqa: BLE001 — one bad tenant ≠ no server
                obs_metrics.inc("serve.watch.resume_failed")
                session = self.sessions.get(tenant.tenant_id)
                if session is not None:
                    session.state = "failed"
                    session.error = f"resume: {type(exc).__name__}: {exc}"
        obs_metrics.set_gauge("serve.watch.resumed", resumed)
        return resumed

    async def _shutdown(self) -> None:
        await self.server.close()
        for session in list(self.sessions.values()):
            if session.state in ("pending", "running"):
                await session.stop()
        for broker in list(self.brokers.values()):
            await broker.close()
        await self.scheduler.call(self.backend.flush)

    # -- tenant/watch operations (called from handlers) --------------------
    def broker_for(self, tenant_id: str) -> SseBroker:
        broker = self.brokers.get(tenant_id)
        if broker is None:
            broker = SseBroker(self.scheduler, backlog=self.sse_backlog)
            self.brokers[tenant_id] = broker
        return broker

    def refresh_telemetry(self) -> None:
        """Refresh per-tenant watch-health gauges (called at scrape time).

        Reads only in-memory session/broker state plus one checkpoint
        ``stat()`` per tenant — loop-safe.  Writes go straight through the
        registry instruments (not the ``is_enabled`` helpers) so a
        Prometheus scrape sees live values even when span tracing is off.
        The ``serve.tenant.<tid>.*`` prefix renders as a ``{tenant=...}``
        label in the exposition format.
        """
        from ..stream.supervisor import CHECKPOINT_FILE

        registry = obs_metrics.registry()
        registry.gauge("serve.tenants").set(float(len(self.registry)))
        states = [s.state for s in self.sessions.values()]
        for state in ("pending", "running", "done", "failed", "stopped"):
            registry.gauge(f"serve.watches.{state}").set(
                float(states.count(state))
            )
        for tenant_id, session in self.sessions.items():
            prefix = f"serve.tenant.{tenant_id}"
            supervisor = session.supervisor
            if supervisor is not None:
                registry.gauge(f"{prefix}.clock_skew_s").set(
                    supervisor.clocks.skew
                )
                registry.gauge(f"{prefix}.advanced_s").set(
                    supervisor.advanced_s
                )
                registry.gauge(f"{prefix}.inflight_diagnoses").set(
                    float(
                        sum(
                            len(w.manager.diagnosing_incidents())
                            for w in supervisor.watched.values()
                        )
                    )
                )
                if supervisor.state_dir is not None:
                    checkpoint = supervisor.state_dir / CHECKPOINT_FILE
                    try:
                        age = max(0.0, time.time() - checkpoint.stat().st_mtime)
                    except OSError:
                        age = -1.0  # no checkpoint yet
                    registry.gauge(f"{prefix}.checkpoint_age_s").set(age)
        for tenant_id, broker in self.brokers.items():
            prefix = f"serve.tenant.{tenant_id}"
            registry.gauge(f"{prefix}.sse_clients").set(
                float(len(broker.clients))
            )
            log = broker.event_log
            last = log.last_seq if log is not None else -1
            lag = max(
                (last - c.delivered for c in broker.clients.values()),
                default=0,
            )
            registry.gauge(f"{prefix}.sse_lag").set(float(max(0, lag)))

    async def mutate_registry(self, fn, /, *args):
        """Serialised, off-loop manifest mutation."""
        async with self._registry_lock:
            return await self.scheduler.call(fn, *args)

    async def record_watch(
        self, tenant_id: str, spec: FleetSpec, *, running: bool
    ) -> None:
        """Durably record a tenant's watch state (no-op for gone tenants)."""
        try:
            await self.mutate_registry(
                self.registry.set_watch,
                tenant_id,
                {"spec": spec.to_dict(), "running": running},
            )
        except KeyError:
            pass  # tenant deleted while its watch wound down

    async def start_watch(self, tenant: Tenant) -> WatchSession:
        existing = self.sessions.get(tenant.tenant_id)
        if existing is not None and existing.state in ("pending", "running"):
            raise RuntimeError(f"tenant {tenant.tenant_id!r} watch already running")
        if not tenant.watch or not tenant.watch.get("spec"):
            raise LookupError(f"tenant {tenant.tenant_id!r} has no fleet")
        spec = FleetSpec.from_payload(tenant.watch["spec"])
        session = WatchSession(self, tenant.tenant_id, spec)
        self.sessions[tenant.tenant_id] = session
        await session.start()
        return session

    async def stop_watch(self, tenant_id: str) -> WatchSession:
        session = self.sessions.get(tenant_id)
        if session is None or session.state not in ("pending", "running"):
            raise LookupError(f"tenant {tenant_id!r} has no running watch")
        await session.stop()
        return session

    async def delete_tenant(self, tenant_id: str) -> Tenant:
        session = self.sessions.pop(tenant_id, None)
        if session is not None and session.state in ("pending", "running"):
            await session.stop()
        broker = self.brokers.pop(tenant_id, None)
        if broker is not None:
            await broker.close()
        tenant = await self.mutate_registry(self.registry.delete, tenant_id)
        obs_metrics.set_gauge("serve.tenants", len(self.registry))
        return tenant

    def watch_status(self, tenant: Tenant) -> dict:
        session = self.sessions.get(tenant.tenant_id)
        if session is not None:
            return session.status()
        watch = tenant.watch or {}
        if watch.get("spec"):
            return {
                "state": "idle",
                "spec": watch["spec"],
                "running_at_last_exit": bool(watch.get("running")),
            }
        return {"state": "none"}
