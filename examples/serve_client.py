"""A REST/SSE client for the ``repro serve`` fleet service, stdlib only.

Walks the full tenant lifecycle against a running server:

1. create a tenant,
2. register a fleet from a scenario spec,
3. start the watch,
4. follow the tenant's live SSE event stream,
5. query the incident and fleet-incident histories.

Start a server in one terminal::

    python -m repro.cli serve --state-root /tmp/fleet --port 8787

then run this client in another::

    python examples/serve_client.py --url http://127.0.0.1:8787

With ``--state-root`` instead of ``--url`` the client reads the server's
``serve.json`` manifest to discover the bound port (handy with ``--port 0``).
``--until fleet-incident`` returns as soon as the first incident streams by
and a fleet incident is correlated — leaving the watch running server-side —
which is how the CI smoke drives a mid-watch SIGKILL.  Exits non-zero on any
failure.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import time
from pathlib import Path

FLEET_SPEC = {
    "scenarios": ["shared-pool-saturation"],
    "seed": 7,
    "min_members": 2,
    "chunk_minutes": 30.0,
}


class Client:
    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def request(self, method: str, path: str, body: dict | None = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            payload = None if body is None else json.dumps(body)
            conn.request(method, path, body=payload)
            response = conn.getresponse()
            raw = response.read()
            return response.status, (json.loads(raw) if raw else None)
        finally:
            conn.close()

    def expect(self, method: str, path: str, body: dict | None = None, *, ok=(200, 201)):
        status, payload = self.request(method, path, body)
        if status not in ok:
            raise SystemExit(f"{method} {path} -> {status}: {payload}")
        return payload

    def stream(self, path: str):
        """Yield parsed SSE frames from ``path`` until the caller stops."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        conn.request("GET", path)
        response = conn.getresponse()
        buffer = b""
        try:
            while True:
                chunk = response.read1(65536)
                if not chunk:
                    return
                buffer += chunk
                while b"\n\n" in buffer:
                    raw, buffer = buffer.split(b"\n\n", 1)
                    frame: dict = {}
                    for line in raw.decode().split("\n"):
                        if line.startswith("id: "):
                            frame["id"] = int(line[4:])
                        elif line.startswith("event: "):
                            frame["event"] = line[7:]
                        elif line.startswith("data: "):
                            frame["data"] = json.loads(line[6:])
                    if frame:
                        yield frame
        finally:
            conn.close()


def discover(args: argparse.Namespace) -> tuple[str, int]:
    if args.url:
        host, _, port = args.url.partition("://")[2].partition(":")
        return host, int(port)
    manifest = Path(args.state_root) / "serve.json"
    deadline = time.time() + 30
    while time.time() < deadline:
        try:
            data = json.loads(manifest.read_text())
            return data["host"], data["port"]
        except (OSError, ValueError, KeyError):
            time.sleep(0.1)
    raise SystemExit(f"no server manifest at {manifest}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--url", help="server base URL, e.g. http://127.0.0.1:8787")
    target.add_argument("--state-root", help="read host/port from <root>/serve.json")
    parser.add_argument("--tenant", default="example")
    parser.add_argument("--hours", type=float, default=6.0)
    parser.add_argument(
        "--until",
        choices=("done", "fleet-incident"),
        default="done",
        help="stop following the stream at watch completion, or as soon as "
        "the first incident streams by and a fleet incident is correlated "
        "(watch keeps running)",
    )
    args = parser.parse_args(argv)
    client = Client(*discover(args))

    health = client.expect("GET", "/healthz")
    print(f"server ok: tenants={health['tenants']}")

    client.expect("POST", "/v1/tenants", {"tenant_id": args.tenant}, ok=(201, 409))
    spec = dict(FLEET_SPEC, hours=args.hours)
    fleet = client.expect("POST", f"/v1/tenants/{args.tenant}/fleets", spec)
    print(f"fleet registered: {len(fleet['members'])} members")
    client.expect("POST", f"/v1/tenants/{args.tenant}/watch/start")

    incident_events = 0
    for frame in client.stream(f"/v1/tenants/{args.tenant}/events"):
        kind = frame.get("event", "")
        if kind == "incident_opened":
            incident_events += 1
            event = frame["data"]["event"]
            print(f"  [{frame['id']}] {event['env']}: incident {event['incident_id']}")
        if args.until == "fleet-incident" and incident_events:
            break  # the watch keeps running server-side
        if kind == "fleet_done":
            break

    if incident_events == 0:
        raise SystemExit("stream carried no incident_opened events")

    history = client.expect("GET", f"/v1/tenants/{args.tenant}/incidents")
    print(f"incident history: {len(history['incidents'])} ticket(s)")
    if not history["incidents"]:
        raise SystemExit("incident history is empty")

    # Mid-run the correlation may be a beat behind the stream; poll briefly.
    deadline = time.time() + 30
    fleet_incidents = []
    while time.time() < deadline and not fleet_incidents:
        payload = client.expect("GET", f"/v1/tenants/{args.tenant}/fleet-incidents")
        fleet_incidents = payload["fleet_incidents"]
        if not fleet_incidents:
            time.sleep(0.2)
    if not fleet_incidents:
        raise SystemExit("no fleet incident correlated")
    top = fleet_incidents[0]
    print(
        f"fleet incident {top['fleet_id']}: component {top['component_id']} "
        f"({len(top['members'])} members, confidence {top['confidence']:.2f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
