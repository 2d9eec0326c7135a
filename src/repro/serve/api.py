"""REST/JSON + SSE routes over :class:`~repro.serve.app.ServeApp`.

Every handler here is an ``async def`` running on the coordination loop, so
none of them may touch the stores directly — journal replays and history
queries are module-level *sync* functions dispatched through
``Scheduler.call`` onto the worker pool.  The serve suite runs every test
under a guard that fails it if a handler (or anything else on the loop
thread) calls a blocking store or file method inline.

The surface (all JSON unless noted)::

    GET    /healthz
    GET    /metrics
    GET    /v1/scenarios
    GET    /v1/tenants
    POST   /v1/tenants                     {"tenant_id": ...}
    GET    /v1/tenants/{tid}
    DELETE /v1/tenants/{tid}
    POST   /v1/tenants/{tid}/fleets        FleetSpec payload
    GET    /v1/tenants/{tid}/watch
    POST   /v1/tenants/{tid}/watch/start
    POST   /v1/tenants/{tid}/watch/stop
    GET    /v1/tenants/{tid}/incidents     ?env=&state=&since=
    GET    /v1/tenants/{tid}/fleet-incidents   ?component=&state=&since=
    GET    /v1/tenants/{tid}/events        SSE; Last-Event-ID / ?after= resume
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from ..fleets import FleetSpec, scenario_catalog
from .http import HttpError, Request, Response, Router, StreamingResponse

if TYPE_CHECKING:  # pragma: no cover
    from .app import ServeApp
    from .tenants import Tenant

__all__ = ["build_router"]


def _tenant_payload(app: "ServeApp", tenant: "Tenant") -> dict:
    return {
        "tenant_id": tenant.tenant_id,
        "prefix": tenant.prefix,
        "created_seq": tenant.created_seq,
        "watch": app.watch_status(tenant),
    }


def _get_tenant(app: "ServeApp", request: Request) -> "Tenant":
    try:
        return app.registry.get(request.params["tenant_id"])
    except KeyError as exc:
        raise HttpError(404, str(exc)) from exc


def _float_query(request: Request, name: str) -> float | None:
    raw = request.query.get(name)
    if raw is None:
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise HttpError(400, f"query parameter {name!r} must be a number") from exc


# -- blocking store queries (worker pool only) ----------------------------
def _journal_store(app: "ServeApp", tenant_id: str, store_cls):
    """A fresh store over the tenant's view; it replays what is there."""
    return store_cls(app.registry.backend_for(app.registry.get(tenant_id)))


def _incident_history(app: "ServeApp", tenant_id: str, filters: dict) -> list[dict]:
    from ..stream import IncidentStore

    return _journal_store(app, tenant_id, IncidentStore).history(**filters)


def _fleet_incident_history(
    app: "ServeApp", tenant_id: str, filters: dict
) -> list[dict]:
    from ..correlate import FleetIncidentStore

    return _journal_store(app, tenant_id, FleetIncidentStore).history(**filters)


def _open_event_log(app: "ServeApp", tenant_id: str):
    from ..stream import FleetEventLog

    tenant = app.registry.get(tenant_id)
    return FleetEventLog(app.registry.backend_for(tenant))


def build_router(app: "ServeApp") -> Router:
    router = Router()

    # -- service ----------------------------------------------------------
    async def healthz(request: Request) -> Response:
        """Liveness by default; ``?ready=1`` adds a readiness gate.

        Liveness (200 whenever the loop answers) is what a process monitor
        wants.  Readiness is stricter: 503 while any watch session is still
        ``pending`` (resume fast-forward in flight) or has ``failed`` — a
        load balancer should not route new fleet work at a server that is
        still hydrating or wedged.
        """
        states = [s.state for s in app.sessions.values()]
        body = {
            "ok": True,
            "tenants": len(app.registry),
            "watches": {state: states.count(state) for state in set(states)},
            "sse_clients": sum(len(b.clients) for b in app.brokers.values()),
        }
        if request.query.get("ready") not in (None, "", "0"):
            not_ready = [s for s in states if s in ("pending", "failed")]
            if not_ready:
                body["ok"] = False
                body["not_ready"] = {
                    state: not_ready.count(state) for state in set(not_ready)
                }
                return Response(503, body)
            body["ready"] = True
        return Response(200, body)

    async def metrics(request: Request) -> Response:
        from ..obs import metrics as obs_metrics
        from ..obs import prometheus as obs_prometheus

        # stats() reads counters under the pool's own lock and the registry
        # snapshot copies under its lock — neither blocks on store I/O, so
        # both are safe to call inline on the coordination loop; the
        # telemetry refresh only touches in-memory session/broker state.
        app.refresh_telemetry()
        if request.query.get("format") == "prometheus":
            text = obs_prometheus.render_prometheus()
            return Response(
                200,
                text.encode("utf-8"),
                headers={"Content-Type": obs_prometheus.CONTENT_TYPE},
            )
        return Response(
            200,
            {
                "pool": app.scheduler.pool.stats(),
                "metrics": obs_metrics.json_view(obs_metrics.registry().snapshot()),
            },
        )

    async def scenarios(request: Request) -> Response:
        return Response(200, scenario_catalog())

    # -- tenants ----------------------------------------------------------
    async def list_tenants(request: Request) -> Response:
        return Response(
            200,
            {"tenants": [_tenant_payload(app, t) for t in app.registry.list()]},
        )

    async def create_tenant(request: Request) -> Response:
        body = request.json()
        if not isinstance(body, dict) or not isinstance(body.get("tenant_id"), str):
            raise HttpError(400, "body must be {\"tenant_id\": \"...\"}")
        tenant_id = body["tenant_id"]
        if tenant_id in app.registry:
            raise HttpError(409, f"tenant {tenant_id!r} already exists")
        try:
            tenant = await app.mutate_registry(app.registry.create, tenant_id)
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        return Response(201, _tenant_payload(app, tenant))

    async def get_tenant(request: Request) -> Response:
        return Response(200, _tenant_payload(app, _get_tenant(app, request)))

    async def delete_tenant(request: Request) -> Response:
        tenant = _get_tenant(app, request)
        await app.delete_tenant(tenant.tenant_id)
        return Response(200, {"deleted": tenant.tenant_id})

    # -- fleets / watches --------------------------------------------------
    async def create_fleet(request: Request) -> Response:
        tenant = _get_tenant(app, request)
        session = app.sessions.get(tenant.tenant_id)
        if session is not None and session.state in ("pending", "running"):
            raise HttpError(409, "stop the running watch before replacing the fleet")
        try:
            spec = FleetSpec.from_payload(request.json())
            members = spec.member_names()
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        await app.record_watch(tenant.tenant_id, spec, running=False)
        return Response(
            201,
            {
                "tenant_id": tenant.tenant_id,
                "spec": spec.to_dict(),
                "members": members,
            },
        )

    async def watch_status(request: Request) -> Response:
        tenant = _get_tenant(app, request)
        return Response(200, app.watch_status(tenant))

    async def watch_start(request: Request) -> Response:
        tenant = _get_tenant(app, request)
        try:
            session = await app.start_watch(tenant)
        except LookupError as exc:
            raise HttpError(409, str(exc)) from exc
        except RuntimeError as exc:
            raise HttpError(409, str(exc)) from exc
        except ValueError as exc:
            raise HttpError(400, str(exc)) from exc
        return Response(200, session.status())

    async def watch_stop(request: Request) -> Response:
        tenant = _get_tenant(app, request)
        try:
            session = await app.stop_watch(tenant.tenant_id)
        except LookupError as exc:
            raise HttpError(409, str(exc)) from exc
        return Response(200, session.status())

    # -- history ----------------------------------------------------------
    async def incidents(request: Request) -> Response:
        tenant = _get_tenant(app, request)
        filters = {
            "env": request.query.get("env"),
            "state": request.query.get("state"),
            "since": _float_query(request, "since"),
        }
        history = await app.scheduler.call(
            partial(_incident_history, app, tenant.tenant_id, filters)
        )
        return Response(200, {"incidents": history})

    async def fleet_incidents(request: Request) -> Response:
        tenant = _get_tenant(app, request)
        filters = {
            "component": request.query.get("component"),
            "state": request.query.get("state"),
            "since": _float_query(request, "since"),
        }
        history = await app.scheduler.call(
            partial(_fleet_incident_history, app, tenant.tenant_id, filters)
        )
        return Response(200, {"fleet_incidents": history})

    # -- SSE ---------------------------------------------------------------
    async def events(request: Request) -> StreamingResponse:
        tenant = _get_tenant(app, request)
        after_raw = request.query.get(
            "after", request.headers.get("last-event-id", "-1")
        )
        try:
            after_seq = int(after_raw)
        except ValueError as exc:
            raise HttpError(400, "after / Last-Event-ID must be an integer") from exc
        broker = app.broker_for(tenant.tenant_id)
        if broker.event_log is None:
            # No live watch has bound a log yet — open a read view so
            # catch-up still serves the journalled history.
            broker.bind(
                await app.scheduler.call(
                    partial(_open_event_log, app, tenant.tenant_id)
                )
            )
        return StreamingResponse(
            pump=lambda writer: broker.attach(writer, after_seq=after_seq),
            headers={"Content-Type": "text/event-stream"},
        )

    router.add("GET", "/healthz", healthz)
    router.add("GET", "/metrics", metrics)
    router.add("GET", "/v1/scenarios", scenarios)
    router.add("GET", "/v1/tenants", list_tenants)
    router.add("POST", "/v1/tenants", create_tenant)
    router.add("GET", "/v1/tenants/{tenant_id}", get_tenant)
    router.add("DELETE", "/v1/tenants/{tenant_id}", delete_tenant)
    router.add("POST", "/v1/tenants/{tenant_id}/fleets", create_fleet)
    router.add("GET", "/v1/tenants/{tenant_id}/watch", watch_status)
    router.add("POST", "/v1/tenants/{tenant_id}/watch/start", watch_start)
    router.add("POST", "/v1/tenants/{tenant_id}/watch/stop", watch_stop)
    router.add("GET", "/v1/tenants/{tenant_id}/incidents", incidents)
    router.add("GET", "/v1/tenants/{tenant_id}/fleet-incidents", fleet_incidents)
    router.add("GET", "/v1/tenants/{tenant_id}/events", events)
    return router
