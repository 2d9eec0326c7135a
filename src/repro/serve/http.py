"""A minimal HTTP/1.1 server on asyncio streams — no ``http.server``.

The serve subsystem runs its REST/SSE surface directly on the coordination
loop (the shared :class:`~repro.runtime.Scheduler`), so the transport has to
be non-blocking end-to-end.  The stdlib's ``http.server`` is thread-per
-request and blocking; this module is the ~200-line asyncio replacement:
request-line/header/body parsing with hard limits, a tiny ``{param}``
router, JSON responses, and a streaming hook for SSE.

Deliberately *not* general: one request per connection
(``Connection: close``), no keep-alive, no chunked request bodies, no TLS.
Every handler is an ``async def`` that must route blocking work through
``Scheduler.call``; the serve suite fails any test in which a blocking store
or file call runs on the loop thread.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable
from urllib.parse import parse_qsl, unquote, urlsplit

from ..obs import metrics as obs_metrics
from ..obs import span

__all__ = [
    "HttpError",
    "Request",
    "Response",
    "StreamingResponse",
    "Router",
    "HttpServer",
]

_MAX_REQUEST_LINE = 8192
_MAX_HEADER_LINES = 100
_MAX_BODY = 1 << 20  # 1 MiB

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Raise from a handler to produce a JSON error response."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]  # keys lower-cased
    body: bytes
    params: dict[str, str] = field(default_factory=dict)  # router {param}s

    def json(self) -> Any:
        """Parse the body as JSON (HttpError 400 on garbage)."""
        if not self.body:
            raise HttpError(400, "request body required")
        try:
            return json.loads(self.body)
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc


@dataclass
class Response:
    """A buffered JSON (or raw-bytes) response."""

    status: int = 200
    payload: Any = None
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self) -> tuple[bytes, bytes]:
        if self.payload is None:
            body = b""
        elif isinstance(self.payload, bytes):
            # Raw passthrough (Prometheus exposition text, etc.) — the
            # handler owns the Content-Type.
            body = self.payload
            self.headers.setdefault("Content-Type", "application/octet-stream")
        else:
            body = (json.dumps(self.payload, sort_keys=True) + "\n").encode()
            self.headers.setdefault("Content-Type", "application/json")
        reason = _REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        self.headers.setdefault("Content-Length", str(len(body)))
        self.headers.setdefault("Connection", "close")
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode(), body


@dataclass
class StreamingResponse:
    """Headers now, body later: the handler keeps the connection.

    ``pump(writer)`` is awaited after the header block is flushed; when it
    returns (or raises) the connection is closed.  Used for SSE.
    """

    pump: Callable[[asyncio.StreamWriter], Awaitable[None]]
    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)

    def encode_headers(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        self.headers.setdefault("Cache-Control", "no-store")
        self.headers.setdefault("Connection", "close")
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode()


Handler = Callable[[Request], "Awaitable[Response | StreamingResponse]"]


class Router:
    """Literal-and-``{param}`` path routing, method-aware."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, tuple[str, ...], Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        segments = tuple(seg for seg in pattern.strip("/").split("/") if seg)
        self._routes.append((method.upper(), segments, handler))

    def resolve(self, method: str, path: str) -> tuple[Handler, dict[str, str]]:
        segments = tuple(seg for seg in path.strip("/").split("/") if seg)
        path_matched = False
        for route_method, route_segments, handler in self._routes:
            params = self._match(route_segments, segments)
            if params is None:
                continue
            path_matched = True
            if route_method == method.upper():
                return handler, params
        if path_matched:
            raise HttpError(405, f"method {method} not allowed for {path}")
        raise HttpError(404, f"no such resource: {path}")

    @staticmethod
    def _match(
        route: tuple[str, ...], actual: tuple[str, ...]
    ) -> dict[str, str] | None:
        if len(route) != len(actual):
            return None
        params: dict[str, str] = {}
        for expected, got in zip(route, actual):
            if expected.startswith("{") and expected.endswith("}"):
                params[expected[1:-1]] = unquote(got)
            elif expected != got:
                return None
        return params


class HttpServer:
    """Accept loop + request pipeline over a :class:`Router`."""

    def __init__(self, router: Router) -> None:
        self.router = router
        self._server: asyncio.AbstractServer | None = None

    async def start(self, host: str, port: int) -> tuple[str, int]:
        """Bind and start serving; returns the actual (host, port)."""
        self._server = await asyncio.start_server(self._handle, host, port)
        sock = self._server.sockets[0]
        bound_host, bound_port = sock.getsockname()[:2]
        return bound_host, bound_port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling ---------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        obs_metrics.inc("serve.connections")
        try:
            try:
                request = await self._read_request(reader)
            except HttpError as exc:
                await self._write_error(writer, exc)
                return
            except (
                asyncio.IncompleteReadError,
                ConnectionError,
                ValueError,
                asyncio.LimitOverrunError,
            ):
                return  # client went away or sent garbage mid-line
            await self._dispatch(request, writer)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> Request:
        line = await reader.readline()
        if len(line) > _MAX_REQUEST_LINE:
            raise HttpError(400, "request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            if len(raw) > _MAX_REQUEST_LINE:
                raise HttpError(400, "header line too long")
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise HttpError(400, f"malformed header: {name.strip()!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise HttpError(400, "too many headers")
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                size = int(length)
            except ValueError:
                raise HttpError(400, "bad Content-Length") from None
            if size > _MAX_BODY:
                raise HttpError(413, f"body exceeds {_MAX_BODY} bytes")
            if size:
                body = await reader.readexactly(size)
        url = urlsplit(target)
        return Request(
            method=method.upper(),
            path=unquote(url.path) or "/",
            query=dict(parse_qsl(url.query)),
            headers=headers,
            body=body,
        )

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter
    ) -> None:
        with span(
            "serve.request", method=request.method, path=request.path
        ) as request_span:
            try:
                handler, params = self.router.resolve(request.method, request.path)
                request.params = params
                tenant = params.get("tenant_id")
                if tenant is not None:
                    # Tenant-tagged service telemetry: the span carries the
                    # tenant for trace filtering, and the per-tenant request
                    # counter renders as a {tenant=...} label in Prometheus.
                    # Written through the registry (not the gated helper) so
                    # scrapes see it even when span tracing is off.
                    request_span.annotate(tenant=tenant)
                    obs_metrics.registry().counter(
                        f"serve.tenant.{tenant}.requests"
                    ).inc()
                result = await handler(request)
            except HttpError as exc:
                obs_metrics.inc(f"serve.responses.{exc.status}")
                await self._write_error(writer, exc)
                return
            except (ConnectionError, OSError):
                raise
            except Exception as exc:  # handler bug → 500, keep serving
                obs_metrics.inc("serve.responses.500")
                request_span.annotate(error=repr(exc))
                await self._write_error(
                    writer, HttpError(500, f"internal error: {exc}")
                )
                return
            obs_metrics.inc(f"serve.responses.{result.status}")
            if isinstance(result, StreamingResponse):
                writer.write(result.encode_headers())
                await writer.drain()
                await result.pump(writer)
                return
            head, body = result.encode()
            writer.write(head)
            if request.method != "HEAD":
                writer.write(body)
            await writer.drain()

    @staticmethod
    async def _write_error(writer: asyncio.StreamWriter, exc: HttpError) -> None:
        head, body = Response(exc.status, {"error": exc.message}).encode()
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
