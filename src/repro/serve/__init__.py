"""``repro serve`` — a long-running multi-tenant fleet service.

One process hosts many tenants over one shared storage backend and one
coordination loop:

* :mod:`repro.serve.tenants` — tenant ids → keyspace prefixes, durable
  manifest (the restart source of truth);
* :class:`~repro.fleets.FleetSpec` — the validated fleet spec (the POST
  body), built into a :class:`~repro.stream.FleetSupervisor` stack per
  tenant by the same builder ``repro watch`` uses;
* :mod:`repro.serve.http` — a minimal asyncio HTTP/1.1 server (no
  ``http.server``, no threads-per-request);
* :mod:`repro.serve.api` — the REST/JSON routes;
* :mod:`repro.serve.stream` — SSE fan-out of each tenant's fleet event log
  with bounded per-client queues and slow-client disconnect;
* :mod:`repro.serve.app` — the :class:`ServeApp` that owns it all and
  resumes every tenant's watch after a crash.

Start it with ``repro serve --state-root DIR --port N``.
"""

from .app import SERVE_MANIFEST, ServeApp, WatchSession
from ..fleets import FleetSpec, scenario_catalog
from .stream import SseBroker, SseClient, sse_frame
from .tenants import Tenant, TenantRegistry

__all__ = [
    "ServeApp",
    "WatchSession",
    "SERVE_MANIFEST",
    "FleetSpec",
    "scenario_catalog",
    "SseBroker",
    "SseClient",
    "sse_frame",
    "Tenant",
    "TenantRegistry",
]
