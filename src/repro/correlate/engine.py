"""The streaming correlation engine: incident opens → fleet incidents.

A fleet whose environments share SAN infrastructure has a failure mode the
per-environment view cannot name: one misconfigured shared pool opens N
"unrelated" incidents that each get diagnosed independently.  The
:class:`CorrelationEngine` watches the fleet event stream for exactly that
signature — **time-windowed co-occurrence of incident opens keyed by
shared-component membership** — and folds correlated waves into one durable
:class:`FleetIncident` (member incidents + suspected shared component +
confidence) instead of N tickets.

Feeding the engine
------------------
Events are the :data:`~repro.stream.FleetEvent` dicts a
:class:`~repro.stream.FleetSupervisor` produces.  Three types matter:

* ``advanced`` — a member's simulated clock moved.  The engine's
  **watermark** is the minimum clock over all attached members; buffered
  opens/resolves are only *processed* once the watermark passes them, in
  global simulated-time order.  This is what makes the engine deterministic:
  however the barrier-free runtime interleaves environments (and however a
  killed run is resumed), the processed sequence — and therefore the journal
  — depends only on simulated times, never on wall-clock arrival order.
* ``incident_opened`` / ``incident_resolved`` — buffered by simulated time;
  folding is **idempotent per incident id**, so the at-least-once delivery
  of a resumed supervisor (or a re-tailed event log) cannot double-count.

The engine can live in-process (``FleetSupervisor(correlator=engine)``) or
out-of-process, tailing the durable fleet event log of a state dir
(:meth:`CorrelationEngine.consume_log`).

Scoring
-------
A candidate group for shared component *C* is the set of unconsumed opens
from environments attached to *C* within one sliding ``window_s``.  It opens
a :class:`FleetIncident` when it reaches ``min_members`` distinct
environments and its confidence clears ``min_confidence``.  Confidence is
conditional co-occurrence against a baseline: each attached member's
historical open rate gives the probability ``p_i = 1 - exp(-rate_i *
window)`` of an open landing in the window *by chance*; with ``k`` of ``n``
attached members firing, ``confidence = (k - Σ p_i) / n`` (clamped to
[0, 1]) — a fleet that opens incidents all the time earns no confidence
from yet another coincidence, while six quiet members firing together is
close to certainty.  When one open is a candidate for several shared
components (a pool *and* the switch above it), the engine keeps a single
group for the best-conditioned component (most firing members, then highest
coverage of its membership).

Lifecycle: **open** (the triggering wave) → **grow** (later opens within the
window join) → **resolve** (every member incident resolved).  Each
transition is journalled through a :class:`FleetIncidentStore` in the
``fleet_incidents`` keyspace, with the same delta/fold design as the
per-environment incident journal; ``state_dict()`` / ``load_state()`` give
the supervisor checkpoint resume parity.
"""

from __future__ import annotations

import copy
import enum
import math
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from ..obs import metrics as obs_metrics
from ..obs import span
from ..storage.journal import JournalStore
from ..storage.keyspaces import FLEET_INCIDENTS

if TYPE_CHECKING:  # pragma: no cover
    from ..stream.eventlog import FleetEventLog

__all__ = [
    "FleetIncidentState",
    "FleetIncident",
    "FleetIncidentStore",
    "CorrelationEngine",
    "ticket_top_cause",
]


def ticket_top_cause(ticket: dict) -> str | None:
    """Top-ranked cause id of a fleet-incident ticket (None before the
    drill-down attached a report).  Shared by every rollup surface."""
    causes = (ticket.get("report") or {}).get("causes") or []
    return causes[0]["cause_id"] if causes else None


class FleetIncidentState(enum.Enum):
    OPEN = "open"
    RESOLVED = "resolved"


@dataclass
class FleetIncident:
    """One correlated degradation wave across environments sharing a component."""

    fleet_id: str
    component_id: str
    opened_at: float
    confidence: float
    state: FleetIncidentState = FleetIncidentState.OPEN
    #: Member incidents: ``{"env", "incident_id", "opened_at", "resolved_at"}``.
    members: list[dict] = field(default_factory=list)
    #: Simulated time of the latest member open (the sliding-window anchor).
    last_open_at: float = 0.0
    resolved_at: float | None = None
    #: The fleet-level drill-down report (shared-component ranking), once
    #: :func:`repro.correlate.diagnose_fleet_incident` has run.
    report_data: dict | None = None
    #: Fleet id of the predecessor group this one re-escalated from: the
    #: previous fleet incident on the same shared component resolved less
    #: than one correlation window before this wave opened.  A flapping
    #: shared component reads as one linked chain, not unrelated tickets.
    escalated_from: str | None = None

    @property
    def member_envs(self) -> list[str]:
        """Distinct member environments, in first-open order."""
        seen: list[str] = []
        for member in self.members:
            if member["env"] not in seen:
                seen.append(member["env"])
        return seen

    @property
    def member_incident_ids(self) -> list[str]:
        return [m["incident_id"] for m in self.members]

    @property
    def top_cause_id(self) -> str | None:
        if self.report_data is not None and self.report_data.get("causes"):
            return self.report_data["causes"][0]["cause_id"]
        return None

    def to_dict(self) -> dict:
        return {
            "fleet_id": self.fleet_id,
            "component_id": self.component_id,
            "state": self.state.value,
            "opened_at": self.opened_at,
            "last_open_at": self.last_open_at,
            "resolved_at": self.resolved_at,
            "confidence": self.confidence,
            "members": [dict(m) for m in self.members],
            "report": self.report_data,
            "escalated_from": self.escalated_from,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetIncident":
        return cls(
            fleet_id=data["fleet_id"],
            component_id=data["component_id"],
            opened_at=data["opened_at"],
            confidence=data["confidence"],
            state=FleetIncidentState(data["state"]),
            members=[dict(m) for m in data.get("members", [])],
            last_open_at=data.get("last_open_at", data["opened_at"]),
            resolved_at=data.get("resolved_at"),
            report_data=data.get("report"),
            escalated_from=data.get("escalated_from"),
        )


class FleetIncidentStore(JournalStore):
    """Durable, queryable fleet-incident history over a pluggable backend.

    The fleet-level sibling of :class:`repro.stream.IncidentStore`, sharing
    its :class:`~repro.storage.journal.JournalStore` scaffolding: each
    lifecycle transition is one delta record keyed by fleet-incident id in
    the ``fleet_incidents`` keyspace (``open`` carries the full ticket;
    ``grow`` / ``member_resolved`` / ``resolve`` / ``report`` only what they
    change), folded into a latest-ticket view that :meth:`history` serves
    across restarts — the query surface behind ``repro correlate``.  Folding
    is idempotent, so the duplicate transitions a resumed run deterministically
    re-journals cannot change a ticket.
    """

    KEYSPACE = FLEET_INCIDENTS

    def _fold(self, rec: dict) -> None:
        event = rec["event"]
        if event == "open":
            self._latest[rec["k"]] = copy.deepcopy(rec["incident"])
            return
        ticket = self._latest.get(rec["k"])
        if ticket is None:
            return
        if event == "grow":
            member = rec["member"]
            if member["incident_id"] not in [
                m["incident_id"] for m in ticket["members"]
            ]:
                ticket["members"].append(dict(member))
                ticket["last_open_at"] = rec["t"]
            if "confidence" in rec:
                ticket["confidence"] = rec["confidence"]
        elif event == "member_resolved":
            for member in ticket["members"]:
                if member["incident_id"] == rec["incident_id"]:
                    member["resolved_at"] = rec["resolved_at"]
        elif event == "resolve":
            ticket["state"] = FleetIncidentState.RESOLVED.value
            ticket["resolved_at"] = rec["resolved_at"]
        elif event == "report":
            ticket["report"] = rec["report"]

    # -- writing ---------------------------------------------------------
    def record(self, event: str, incident: FleetIncident, time: float, **extra) -> None:
        rec: dict = {"t": time, "k": incident.fleet_id, "event": event}
        if event == "open":
            rec["incident"] = incident.to_dict()
        elif event == "grow":
            rec["member"] = dict(extra["member"])
            rec["confidence"] = incident.confidence
        elif event == "member_resolved":
            rec["incident_id"] = extra["incident_id"]
            rec["resolved_at"] = extra["resolved_at"]
        elif event == "resolve":
            rec["resolved_at"] = incident.resolved_at
        elif event == "report":
            rec["report"] = incident.report_data
        else:
            raise ValueError(f"unknown fleet-incident event {event!r}")
        self._append(rec)

    # -- queries ---------------------------------------------------------
    def history(
        self,
        *,
        component: str | None = None,
        state: "FleetIncidentState | str | None" = None,
        since: float | None = None,
    ) -> list[dict]:
        """Latest ticket per fleet incident, ordered by open time."""
        wanted = state.value if isinstance(state, FleetIncidentState) else state
        out = [
            ticket
            for ticket in self._tickets()
            if (component is None or ticket["component_id"] == component)
            and (wanted is None or ticket["state"] == wanted)
            and (since is None or ticket["opened_at"] >= since)
        ]
        return sorted(out, key=lambda t: (t["opened_at"], t["fleet_id"]))


class CorrelationEngine:
    """Folds the fleet event stream into :class:`FleetIncident`\\ s.

    ``membership`` maps shared component id → the environment names attached
    to it (a :meth:`repro.correlate.SharedFabric.membership` dict).
    Environments that appear in no membership are ignored: their incidents
    are always *independent* and never delay anything.

    Thread-safety: a single mutex guards :meth:`observe`, the query surface,
    and :meth:`state_dict`, so the supervisor's batched checkpoint flusher
    can snapshot the engine from a pool thread while the coordination loop
    keeps feeding it.
    """

    def __init__(
        self,
        membership: Mapping[str, Sequence[str]],
        *,
        window_s: float = 3600.0,
        min_members: int = 3,
        min_confidence: float = 0.3,
        drilldown_delay_s: float | None = None,
        store: FleetIncidentStore | None = None,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if min_members < 2:
            raise ValueError("min_members must be at least 2")
        if not 0.0 <= min_confidence <= 1.0:
            raise ValueError("min_confidence must be in [0, 1]")
        if drilldown_delay_s is not None and drilldown_delay_s < 0:
            raise ValueError("drilldown_delay_s must be non-negative")
        self.membership: dict[str, tuple[str, ...]] = {
            component: tuple(envs) for component, envs in membership.items()
        }
        self.window_s = window_s
        self.min_members = min_members
        self.min_confidence = min_confidence
        #: How long (simulated seconds) after a group opens before it is
        #: surfaced for the drill-down.  The delay buys evidence: by the time
        #: the watermark passes ``opened_at + delay``, every member's store
        #: provably holds the complete post-onset window up to that cutoff,
        #: which makes the drill-down report deterministic.  Defaults to one
        #: correlation window.
        self.drilldown_delay_s = (
            drilldown_delay_s if drilldown_delay_s is not None else window_s
        )
        self.store = store
        self._components_of: dict[str, tuple[str, ...]] = {}
        for component in sorted(self.membership):
            for env in self.membership[component]:
                self._components_of[env] = self._components_of.get(env, ()) + (
                    component,
                )
        #: Simulated clock per attached member; the watermark is their min.
        self._clocks: dict[str, float] = {env: 0.0 for env in self._components_of}
        self._watermark = 0.0
        #: Events awaiting the watermark: {"t", "kind", "env", "incident_id"}.
        self._buffer: list[dict] = []
        #: Incident ids whose open/resolve has been *processed* (idempotence
        #: against the at-least-once delivery of a resumed supervisor).
        self._seen_opens: set[str] = set()
        self._seen_resolves: set[str] = set()
        #: Processed opens not yet consumed by a group: id → (t, env).
        self._pending: dict[str, tuple[float, str]] = {}
        #: Total processed opens per member (the baseline open rate).
        self._open_counts: dict[str, int] = {}
        self._groups: dict[str, FleetIncident] = {}
        self._live_by_component: dict[str, str] = {}
        #: Component → (fleet id, resolved_at) of the most recently resolved
        #: group on it: a successor opening within one window of that resolve
        #: is a **re-escalation** and links back via ``escalated_from``.
        self._recently_resolved: dict[str, tuple[str, float]] = {}
        self._member_group: dict[str, str] = {}
        self._counter = 0
        #: Open groups whose drill-down cutoff the watermark has passed,
        #: awaiting pickup by the caller.  ``_ready_emitted`` is in-memory
        #: only: after a resume, a group still lacking a report is surfaced
        #: again so the drill-down cannot be lost to a kill.
        self._ready: list[FleetIncident] = []
        self._ready_emitted: set[str] = set()
        self._lock = threading.Lock()

    # -- feeding ---------------------------------------------------------
    def observe(self, event: dict) -> list[FleetIncident]:
        """Feed one fleet event; returns fleet incidents ready for drill-down.

        A group is *ready* once the watermark has passed ``opened_at +
        drilldown_delay_s`` and it has no report yet — the caller should run
        :func:`repro.correlate.diagnose_fleet_incident` over the watched
        members and :meth:`attach_report` the result.  Only the watermark
        surfaces groups, so ``incident_opened`` and ``incident_resolved``
        events are just buffered and return ``[]``: a ready group comes
        back once, from the ``advanced`` feed (or :meth:`finalize`) that
        passes its cutoff.  The supervisor relies on this: it feeds
        transitions without looking for groups.
        """
        with self._lock:
            etype = event.get("type")
            if etype == "advanced":
                self._on_advanced(event)
            elif etype == "incident_opened":
                self._buffer_event(event, "open", event.get("opened_at"))
            elif etype == "incident_resolved":
                self._buffer_event(
                    event, "resolve", event.get("resolved_at", event.get("clock"))
                )
            obs_metrics.set_gauge("correlate.buffer_depth", len(self._buffer))
            if self._clocks:
                obs_metrics.set_gauge(
                    "correlate.watermark_lag_s",
                    max(self._clocks.values()) - self._watermark,
                )
            ready, self._ready = self._ready, []
            return ready

    def consume_log(self, log: "FleetEventLog", after_seq: int = -1) -> int:
        """Tail a durable fleet event log out-of-process.

        Feeds every record with ``seq > after_seq`` to :meth:`observe` and
        returns the last sequence number consumed (pass it back on the next
        poll).  Re-tailing from an earlier sequence is harmless — processing
        is idempotent per incident id.
        """
        last = after_seq
        for rec in log.tail(after_seq):
            self.observe(rec["event"])
            last = max(last, rec.get("seq", last))
        return last

    def finalize(self) -> list[FleetIncident]:
        """Process every buffered event regardless of the watermark; returns
        groups now ready for drill-down.

        For stream-end draining only (an event log whose run has completed,
        or the supervisor's quiesce sweep); never call mid-run — it would
        break the watermark determinism that keeps resumed histories
        identical.
        """
        with self._lock:
            if self._buffer:
                self._watermark = max(
                    self._watermark, max(e["t"] for e in self._buffer)
                )
                self._process()
            ready, self._ready = self._ready, []
            return ready

    def _on_advanced(self, event: dict) -> None:
        env = event.get("env")
        if env not in self._clocks:
            return
        clock = event.get("advanced_s", event.get("clock"))
        if clock is None or clock <= self._clocks[env]:
            return
        self._clocks[env] = float(clock)
        watermark = min(self._clocks.values())
        if watermark > self._watermark:
            self._watermark = watermark
            obs_metrics.inc("correlate.watermark_advances")
            with span("correlate.watermark", sim_t=watermark):
                self._process()

    def _buffer_event(self, event: dict, kind: str, time: float | None) -> None:
        env = event.get("env")
        if env not in self._components_of or time is None:
            return
        self._buffer.append(
            {
                "t": float(time),
                "kind": kind,
                "env": env,
                "incident_id": event["incident_id"],
            }
        )

    # -- watermark processing --------------------------------------------
    def _process(self) -> None:
        """Process buffered events up to the watermark, in simulated order."""
        due = [e for e in self._buffer if e["t"] <= self._watermark]
        if due:
            self._buffer = [e for e in self._buffer if e["t"] > self._watermark]
            due.sort(
                key=lambda e: (
                    e["t"],
                    0 if e["kind"] == "open" else 1,
                    e["env"],
                    e["incident_id"],
                )
            )
            for entry in due:
                if entry["kind"] == "open":
                    self._process_open(entry)
                else:
                    self._process_resolve(entry)
        # Surface groups whose drill-down evidence cutoff the watermark has
        # now passed (and that still lack a report — a resumed engine
        # re-surfaces them, so a kill cannot lose the drill-down).
        for group in sorted(self._groups.values(), key=lambda g: (g.opened_at, g.fleet_id)):
            if (
                group.state is FleetIncidentState.OPEN
                and group.report_data is None
                and group.fleet_id not in self._ready_emitted
                and self._watermark >= group.opened_at + self.drilldown_delay_s
            ):
                self._ready_emitted.add(group.fleet_id)
                self._ready.append(group)

    def _process_open(self, entry: dict) -> None:
        incident_id = entry["incident_id"]
        if incident_id in self._seen_opens:
            return
        self._seen_opens.add(incident_id)
        env, t = entry["env"], entry["t"]
        self._open_counts[env] = self._open_counts.get(env, 0) + 1
        # Drop pending opens that can no longer be consumed: any future
        # trigger t' satisfies t' - window > t0.
        horizon = t - self.window_s
        self._pending = {
            iid: (t0, e0) for iid, (t0, e0) in self._pending.items() if t0 >= horizon
        }
        if self._join_live_group(incident_id, env, t):
            return
        self._pending[incident_id] = (t, env)
        self._try_form_group(env, t)

    def _join_live_group(self, incident_id: str, env: str, t: float) -> bool:
        """Fold a new open into an open group of one of its components."""
        eligible: list[FleetIncident] = []
        for component in self._components_of[env]:
            fleet_id = self._live_by_component.get(component)
            if fleet_id is None:
                continue
            group = self._groups[fleet_id]
            if t - group.last_open_at <= self.window_s:
                eligible.append(group)
        if not eligible:
            return False
        group = min(eligible, key=lambda g: (g.opened_at, g.fleet_id))
        member = {"env": env, "incident_id": incident_id, "opened_at": t, "resolved_at": None}
        group.members.append(member)
        group.last_open_at = t
        self._member_group[incident_id] = group.fleet_id
        # A wider wave is stronger evidence: refresh the conditional
        # co-occurrence confidence as the group grows.
        group.confidence = round(
            self._confidence(
                group.component_id,
                [(m["opened_at"], m["env"], m["incident_id"]) for m in group.members],
            ),
            4,
        )
        self._journal("grow", group, t, member=member)
        return True

    def _try_form_group(self, env: str, t: float) -> None:
        """Open a fleet incident if one of ``env``'s shared components now
        has a qualifying co-occurrence window ending at ``t``."""
        best: tuple[tuple, str, list[tuple[float, str, str]], float] | None = None
        for component in self._components_of[env]:
            attached = set(self.membership[component])
            window_opens = sorted(
                (t0, e0, iid)
                for iid, (t0, e0) in self._pending.items()
                if e0 in attached and t - self.window_s <= t0 <= t
            )
            firing = {e0 for _t0, e0, _iid in window_opens}
            k = len(firing)
            if k < self.min_members:
                continue
            confidence = self._confidence(component, window_opens)
            if confidence < self.min_confidence:
                continue
            n = len(attached)
            rank = (k, k / n, -n, component)
            if best is None or rank > best[0]:
                best = (rank, component, window_opens, confidence)
        if best is None:
            return
        _rank, component, window_opens, confidence = best
        self._counter += 1
        # Re-escalation: a predecessor group on this component that resolved
        # within one correlation window of this wave's trigger is the same
        # flapping degradation coming back — link the successor to it.
        escalated_from: str | None = None
        previous = self._recently_resolved.get(component)
        if previous is not None and t - previous[1] <= self.window_s:
            escalated_from = previous[0]
            obs_metrics.inc("correlate.reescalations")
        group = FleetIncident(
            fleet_id=f"FLEET-{component}-{self._counter}",
            component_id=component,
            opened_at=t,
            confidence=round(confidence, 4),
            last_open_at=t,
            members=[
                {"env": e0, "incident_id": iid, "opened_at": t0, "resolved_at": None}
                for t0, e0, iid in window_opens
            ],
            escalated_from=escalated_from,
        )
        for _t0, _e0, iid in window_opens:
            self._pending.pop(iid, None)
            self._member_group[iid] = group.fleet_id
        self._groups[group.fleet_id] = group
        self._live_by_component[component] = group.fleet_id
        self._journal("open", group, t)

    def _confidence(
        self, component: str, window_opens: list[tuple[float, str, str]]
    ) -> float:
        """Conditional co-occurrence vs each member's baseline open rate.

        Rates are measured over the **watermark**, never a member's live
        clock: live clocks race arbitrarily ahead of the watermark under the
        barrier-free runtime, and a confidence read from them would differ
        between interleavings of the same simulated history.  The watermark
        at a processing point is a pure function of the event sequence, so
        the journalled confidence is too.
        """
        attached = self.membership[component]
        in_wave: dict[str, int] = {}
        for _t0, e0, _iid in window_opens:
            in_wave[e0] = in_wave.get(e0, 0) + 1
        k = len(in_wave)
        observed_s = max(self._watermark, self.window_s)
        expected = 0.0
        for env in attached:
            prior = self._open_counts.get(env, 0) - in_wave.get(env, 0)
            rate = prior / observed_s
            expected += 1.0 - math.exp(-rate * self.window_s)
        return max(0.0, min(1.0, (k - expected) / len(attached)))

    def _process_resolve(self, entry: dict) -> None:
        incident_id = entry["incident_id"]
        if incident_id in self._seen_resolves:
            return
        self._seen_resolves.add(incident_id)
        # An unconsumed open that resolves can no longer anchor a group.
        self._pending.pop(incident_id, None)
        fleet_id = self._member_group.get(incident_id)
        if fleet_id is None:
            return
        group = self._groups[fleet_id]
        for member in group.members:
            if member["incident_id"] == incident_id:
                member["resolved_at"] = entry["t"]
        self._journal(
            "member_resolved",
            group,
            entry["t"],
            incident_id=incident_id,
            resolved_at=entry["t"],
        )
        if group.state is FleetIncidentState.OPEN and all(
            m["resolved_at"] is not None for m in group.members
        ):
            group.state = FleetIncidentState.RESOLVED
            # Max over member resolve times, NOT this entry's time: member
            # resolutions can be buffered and processed across different
            # watermark batches in any order (a lagging member's backdated
            # short-circuit arrives after a faster sibling's), and the
            # group's resolve time must not depend on that order.
            group.resolved_at = max(m["resolved_at"] for m in group.members)
            if self._live_by_component.get(group.component_id) == fleet_id:
                del self._live_by_component[group.component_id]
            # Remember the resolve for the re-escalation cooldown: a new
            # group on this component within one window links back here.
            self._recently_resolved[group.component_id] = (
                fleet_id,
                group.resolved_at,
            )
            self._journal("resolve", group, group.resolved_at)

    def _journal(self, event: str, group: FleetIncident, time: float, **extra) -> None:
        if self.store is not None:
            self.store.record(event, group, time, **extra)

    # -- supervisor integration ------------------------------------------
    def disposition(self, incident_id: str, env: str, opened_at: float) -> str:
        """How the supervisor should treat one open member incident.

        * ``"grouped"`` — it belongs to a fleet incident: attach the fleet
          report instead of running a redundant per-member pipeline;
        * ``"independent"`` — it can never be grouped (unattached
          environment, or the watermark has passed its whole co-occurrence
          window): diagnose it normally;
        * ``"pending"`` — siblings may still co-fire: hold the diagnosis.
        """
        with self._lock:
            if incident_id in self._member_group:
                return "grouped"
            if env not in self._components_of:
                return "independent"
            if self._watermark >= opened_at + self.window_s:
                return "independent"
            return "pending"

    def short_circuit(self, incident_id: str) -> tuple[str, float, dict] | None:
        """Short-circuit ticket for one grouped member incident.

        Returns ``(fleet_id, resolve_time, report_data)`` once the incident
        belongs to a fleet incident whose drill-down report is attached —
        the supervisor resolves the member incident at ``resolve_time`` (the
        group's open time, a deterministic simulated instant) with the fleet
        report instead of running its own pipeline.  ``None`` while the
        incident is ungrouped or the drill-down is still pending.
        """
        with self._lock:
            fleet_id = self._member_group.get(incident_id)
            if fleet_id is None:
                return None
            group = self._groups[fleet_id]
            if group.report_data is None:
                return None
            return (fleet_id, group.opened_at, copy.deepcopy(group.report_data))

    def attach_report(self, fleet_id: str, report_data: dict) -> None:
        """Attach the drill-down's fleet-level report (journalled)."""
        with self._lock:
            group = self._groups[fleet_id]
            group.report_data = report_data
            self._journal("report", group, group.opened_at)

    def group_for_env(self, env: str) -> str | None:
        """The latest fleet incident one of ``env``'s incidents belongs to."""
        with self._lock:
            groups = [
                g for g in self._groups.values() if env in {m["env"] for m in g.members}
            ]
            if not groups:
                return None
            return max(groups, key=lambda g: (g.opened_at, g.fleet_id)).fleet_id

    # -- queries ---------------------------------------------------------
    @property
    def watermark(self) -> float:
        with self._lock:
            return self._watermark

    def fleet_incidents(self) -> list[FleetIncident]:
        with self._lock:
            return sorted(
                self._groups.values(), key=lambda g: (g.opened_at, g.fleet_id)
            )

    def to_dict(self) -> list[dict]:
        return [g.to_dict() for g in self.fleet_incidents()]

    def __len__(self) -> int:
        with self._lock:
            return len(self._groups)

    # -- resume ----------------------------------------------------------
    def state_dict(self) -> dict:
        """Freeze the engine for a supervisor checkpoint (JSON-able).

        Safe to call from the checkpoint flusher's pool thread; capture it
        *after* the per-environment snapshots so the engine state is never
        behind them (re-fed events from an engine that is ahead fold
        idempotently; events an engine never saw would be lost).
        """
        with self._lock:
            return {
                "window_s": self.window_s,
                "min_members": self.min_members,
                "min_confidence": self.min_confidence,
                "drilldown_delay_s": self.drilldown_delay_s,
                "clocks": dict(sorted(self._clocks.items())),
                "watermark": self._watermark,
                "buffer": sorted(
                    (dict(e) for e in self._buffer),
                    key=lambda e: (e["t"], e["kind"], e["env"], e["incident_id"]),
                ),
                "seen_opens": sorted(self._seen_opens),
                "seen_resolves": sorted(self._seen_resolves),
                "pending": {
                    iid: [t, env] for iid, (t, env) in sorted(self._pending.items())
                },
                "open_counts": dict(sorted(self._open_counts.items())),
                "groups": [g.to_dict() for g in sorted(
                    self._groups.values(), key=lambda g: g.fleet_id
                )],
                "live_by_component": dict(sorted(self._live_by_component.items())),
                "recently_resolved": {
                    component: [fleet_id, resolved_at]
                    for component, (fleet_id, resolved_at) in sorted(
                        self._recently_resolved.items()
                    )
                },
                "member_group": dict(sorted(self._member_group.items())),
                "counter": self._counter,
            }

    def load_state(self, state: dict) -> None:
        """Thaw a :meth:`state_dict` snapshot (journalling suppressed — the
        journal already holds these transitions).

        Refuses a snapshot frozen under different correlation parameters:
        resuming with, say, a different window would silently produce a
        fleet-incident history that diverges from the uninterrupted run —
        the exact bug class the checkpoint meta guard exists to surface.
        """
        recorded = {
            "window_s": state.get("window_s", self.window_s),
            "min_members": state.get("min_members", self.min_members),
            "min_confidence": state.get("min_confidence", self.min_confidence),
            "drilldown_delay_s": state.get(
                "drilldown_delay_s", self.drilldown_delay_s
            ),
        }
        current = {
            "window_s": self.window_s,
            "min_members": self.min_members,
            "min_confidence": self.min_confidence,
            "drilldown_delay_s": self.drilldown_delay_s,
        }
        if recorded != current:
            raise ValueError(
                "correlation state was checkpointed under different "
                f"parameters: checkpoint {recorded!r} vs current {current!r}"
            )
        with self._lock:
            self._clocks.update(state.get("clocks", {}))
            self._watermark = state.get("watermark", 0.0)
            self._buffer = [dict(e) for e in state.get("buffer", [])]
            self._seen_opens = set(state.get("seen_opens", ()))
            self._seen_resolves = set(state.get("seen_resolves", ()))
            self._pending = {
                iid: (t, env) for iid, (t, env) in state.get("pending", {}).items()
            }
            self._open_counts = dict(state.get("open_counts", {}))
            self._groups = {
                g["fleet_id"]: FleetIncident.from_dict(g)
                for g in state.get("groups", [])
            }
            self._live_by_component = dict(state.get("live_by_component", {}))
            self._recently_resolved = {
                component: (fleet_id, resolved_at)
                for component, (fleet_id, resolved_at) in state.get(
                    "recently_resolved", {}
                ).items()
            }
            self._member_group = dict(state.get("member_group", {}))
            self._counter = state.get("counter", len(self._groups))
            self._ready = []
            self._ready_emitted = set()
