"""Incident lifecycle: open → diagnosing → resolved, with dedup + cooldown.

Detections are cheap and repetitive — a flapping fault re-fires its detector
every on-window.  Incidents are the durable unit the supervisor diagnoses
and the operator sees.  The :class:`IncidentManager` maps the detection
stream onto few incidents:

* **dedup** — a detection whose key (environment, target) already has a
  live (non-resolved) incident merges into it instead of opening a new one;
* **cooldown** — after an incident resolves, further detections for its key
  are suppressed for ``cooldown_s`` of simulated time, so one flapping
  fault does not reopen an incident per flap;
* **severity** — derived from the largest normalised detection magnitude
  (1.0 = exactly at the trigger): minor < 2x <= major < 4x <= critical.

Durability: an :class:`IncidentStore` journals every lifecycle transition
(open → absorb → diagnosing → resolved) through a pluggable
:class:`repro.storage.StorageBackend`, so incident history survives process
restarts and is queryable across them (``repro incidents``).  A manager
wired to a store journals automatically; :meth:`IncidentManager.state_dict`
/ :meth:`~IncidentManager.load_state` freeze and thaw the live
dedup/cooldown state for supervisor resume checkpoints.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..storage.journal import JournalStore
from ..storage.keyspaces import INCIDENTS
from .detectors import Detection

if TYPE_CHECKING:  # pragma: no cover
    from ..core.pipeline import DiagnosisReport
    from ..storage.backend import StorageBackend

__all__ = [
    "IncidentState",
    "Severity",
    "Incident",
    "IncidentManager",
    "IncidentStore",
    "status_row",
]


class IncidentState(enum.Enum):
    OPEN = "open"
    DIAGNOSING = "diagnosing"
    RESOLVED = "resolved"


class Severity(enum.Enum):
    MINOR = "minor"
    MAJOR = "major"
    CRITICAL = "critical"

    @classmethod
    def from_magnitude(cls, magnitude: float) -> "Severity":
        if magnitude >= 4.0:
            return cls.CRITICAL
        if magnitude >= 2.0:
            return cls.MAJOR
        return cls.MINOR

    def escalated(self, levels: int) -> "Severity":
        """This severity bumped ``levels`` steps (saturating at critical)."""
        order = (Severity.MINOR, Severity.MAJOR, Severity.CRITICAL)
        return order[min(order.index(self) + max(levels, 0), len(order) - 1)]


@dataclass
class Incident:
    """One degradation episode in one watched environment."""

    incident_id: str
    env_name: str
    key: tuple[str, str]
    opened_at: float
    state: IncidentState = IncidentState.OPEN
    detections: list[Detection] = field(default_factory=list)
    #: Detections merged away by dedup while the incident was live.
    deduped: int = 0
    diagnosed_at: float | None = None
    resolved_at: float | None = None
    report: "DiagnosisReport | None" = None
    #: Serialised report carried by incidents restored from a journal or
    #: checkpoint (the live ``DiagnosisReport`` object does not round-trip;
    #: its ticket form does).  ``to_dict`` falls back to this.
    report_data: dict | None = None
    #: How the incident closed: "diagnosed" (a report was produced) or
    #: "recovered" (the series returned to baseline before diagnosis).
    resolution: str | None = None
    #: Predecessor incident id when this incident re-opened a key that had
    #: recovery-resolved within its cooldown window (a regression).
    escalated_from: str | None = None
    #: How many recover→regress cycles precede this incident; each one bumps
    #: the derived severity a level (flapping is worse than a single blip).
    escalations: int = 0

    @property
    def severity(self) -> Severity:
        magnitude = max((d.magnitude for d in self.detections), default=1.0)
        return Severity.from_magnitude(magnitude).escalated(self.escalations)

    @property
    def top_cause_id(self) -> str | None:
        if self.report is not None:
            if self.report.top_cause is None:
                return None
            return self.report.top_cause.match.cause_id
        if self.report_data is not None and self.report_data.get("causes"):
            return self.report_data["causes"][0]["cause_id"]
        return None

    def absorb(self, detection: Detection) -> None:
        self.detections.append(detection)
        self.deduped += 1

    def begin_diagnosis(self, time: float) -> None:
        if self.state is not IncidentState.OPEN:
            raise ValueError(f"{self.incident_id} is {self.state.value}, not open")
        self.state = IncidentState.DIAGNOSING
        self.diagnosed_at = time

    def resolve(
        self,
        time: float,
        report: "DiagnosisReport | None" = None,
        *,
        resolution: str = "diagnosed",
    ) -> None:
        if self.state is IncidentState.RESOLVED:
            raise ValueError(f"{self.incident_id} already resolved")
        if report is not None:
            self.report = report
        self.state = IncidentState.RESOLVED
        self.resolved_at = time
        self.resolution = resolution

    def to_dict(self) -> dict:
        """JSON-friendly form (the ticket the supervisor would file)."""
        if self.report is not None:
            from ..core.serialize import report_to_dict

            report = report_to_dict(self.report)
        else:
            report = self.report_data
        return {
            "incident_id": self.incident_id,
            "env": self.env_name,
            "target": self.key[1],
            "state": self.state.value,
            "severity": self.severity.value,
            "opened_at": self.opened_at,
            "diagnosed_at": self.diagnosed_at,
            "resolved_at": self.resolved_at,
            "detections": [d.to_dict() for d in self.detections],
            "deduped": self.deduped,
            "report": report,
            "resolution": self.resolution,
            "escalated_from": self.escalated_from,
            "escalations": self.escalations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Incident":
        """Rebuild an incident from its ticket form.

        The inverse of :meth:`to_dict` up to the live report object: a
        restored incident carries the serialised report under
        ``report_data``, which ``to_dict`` and ``top_cause_id`` consult, so
        ``Incident.from_dict(i.to_dict()).to_dict() == i.to_dict()``.
        """
        return cls(
            incident_id=data["incident_id"],
            env_name=data["env"],
            key=(data["env"], data["target"]),
            opened_at=data["opened_at"],
            state=IncidentState(data["state"]),
            detections=[Detection.from_dict(d) for d in data.get("detections", [])],
            deduped=data.get("deduped", 0),
            diagnosed_at=data.get("diagnosed_at"),
            resolved_at=data.get("resolved_at"),
            report_data=data.get("report"),
            resolution=data.get("resolution"),
            escalated_from=data.get("escalated_from"),
            escalations=data.get("escalations", 0),
        )


class IncidentManager:
    """Turns one environment's detection stream into deduplicated incidents.

    When constructed with a ``store``, every lifecycle transition is
    journalled through it, making the incident history durable.
    """

    #: Cooldown-map size above which observe() sweeps out expired entries.
    PRUNE_THRESHOLD = 32

    def __init__(
        self,
        env_name: str,
        cooldown_s: float = 3600.0,
        store: "IncidentStore | None" = None,
    ) -> None:
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be non-negative")
        self.env_name = env_name
        self.cooldown_s = cooldown_s
        self.store = store
        self.incidents: list[Incident] = []
        self._live: dict[tuple[str, str], Incident] = {}
        self._cooldown_until: dict[tuple[str, str], float] = {}
        #: Last recovery-resolved incident per key — the predecessor link a
        #: regression inside the cooldown window re-escalates from.
        self._recovered: dict[tuple[str, str], Incident] = {}
        #: Incidents recovery-resolved since the last :meth:`drain_recoveries`
        #: (the supervisor drains these per fold to emit resolved events).
        self._recoveries: list[Incident] = []
        self.suppressed = 0
        self._counter = 0

    def observe(self, detection: Detection) -> Incident | None:
        """Feed one detection; the new incident if one opened, else None."""
        key = (self.env_name, detection.target)
        live = self._live.get(key)
        if detection.kind == "recovery":
            # Return-to-baseline: resolve a still-open incident without a
            # diagnosis.  An incident already DIAGNOSING keeps going — the
            # in-flight report is about to resolve it anyway.
            if (
                live is not None
                and live.state is IncidentState.OPEN
                and detection.time >= live.opened_at
            ):
                live.absorb(detection)
                self.resolve(live, detection.time, resolution="recovered")
                self._recoveries.append(live)
            return None
        if live is not None and live.state is not IncidentState.RESOLVED:
            live.absorb(detection)
            self._journal("absorb", live, detection.time)
            return None
        # Prune expired cooldown entries (simulated time is monotone per
        # environment, so an entry at or below this detection's time can
        # never suppress anything again).  Without this, a long-lived fleet
        # with many detection targets leaks one entry per target forever and
        # bloats every resume checkpoint.  The sweep is size-gated so the
        # hot detection path stays O(1) amortised: expired entries are
        # harmless (the suppression check below ignores them), only their
        # memory matters.
        if len(self._cooldown_until) > self.PRUNE_THRESHOLD:
            self._cooldown_until = {
                k: until
                for k, until in self._cooldown_until.items()
                if until > detection.time
            }
        predecessor: Incident | None = None
        if detection.time < self._cooldown_until.get(key, -1.0):
            predecessor = self._recovered.get(key)
            if predecessor is None:
                self.suppressed += 1
                return None
            # Regression: the key recovery-resolved inside its cooldown and
            # degraded again — that is flapping, not noise.  Re-escalate
            # (bypass the cooldown) with a predecessor link and a severity
            # bump instead of suppressing the evidence.
        else:
            self._recovered.pop(key, None)  # cooldown over: fresh episode
        self._counter += 1
        incident = Incident(
            incident_id=f"INC-{self.env_name}-{self._counter}",
            env_name=self.env_name,
            key=key,
            opened_at=detection.time,
            detections=[detection],
            escalated_from=predecessor.incident_id if predecessor else None,
            escalations=predecessor.escalations + 1 if predecessor else 0,
        )
        if predecessor is not None:
            self._recovered.pop(key, None)
        self.incidents.append(incident)
        self._live[key] = incident
        self._journal("open", incident, detection.time)
        return incident

    def begin_diagnosis(self, incident: Incident, time: float) -> None:
        """Transition to DIAGNOSING (journalled)."""
        incident.begin_diagnosis(time)
        self._journal("diagnosing", incident, time)

    def resolve(
        self,
        incident: Incident,
        time: float,
        report: "DiagnosisReport | None" = None,
        *,
        resolution: str = "diagnosed",
    ) -> None:
        """Resolve and start the key's cooldown clock."""
        incident.resolve(time, report, resolution=resolution)
        self._cooldown_until[incident.key] = time + self.cooldown_s
        if resolution == "recovered":
            self._recovered[incident.key] = incident
        self._journal("resolved", incident, time)

    def drain_recoveries(self) -> list[Incident]:
        """Incidents recovery-resolved since the last drain (then cleared)."""
        out, self._recoveries = self._recoveries, []
        return out

    def _journal(self, event: str, incident: Incident, time: float) -> None:
        if self.store is not None:
            self.store.record(event, incident, time)

    # -- resume ----------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything needed to resume dedup/cooldown exactly: incidents
        (ticket form), cooldown clocks, the suppressed count, the id
        counter."""
        return {
            "env_name": self.env_name,
            "cooldown_s": self.cooldown_s,
            "incidents": [i.to_dict() for i in self.incidents],
            "cooldown_until": [
                [env, target, until]
                for (env, target), until in sorted(self._cooldown_until.items())
            ],
            "recovered": [
                [env, target, incident.incident_id]
                for (env, target), incident in sorted(self._recovered.items())
            ],
            "suppressed": self.suppressed,
            "counter": self._counter,
        }

    def load_state(self, state: dict) -> None:
        """Thaw a :meth:`state_dict` snapshot (journalling suppressed —
        the journal already holds these transitions)."""
        self.incidents = [Incident.from_dict(d) for d in state.get("incidents", [])]
        self._live = {
            i.key: i for i in self.incidents if i.state is not IncidentState.RESOLVED
        }
        self._cooldown_until = {
            (env, target): until
            for env, target, until in state.get("cooldown_until", [])
        }
        by_id = {i.incident_id: i for i in self.incidents}
        self._recovered = {
            (env, target): by_id[incident_id]
            for env, target, incident_id in state.get("recovered", [])
            if incident_id in by_id
        }
        self._recoveries = []
        self.suppressed = state.get("suppressed", 0)
        self._counter = state.get("counter", len(self.incidents))

    def open_incidents(self) -> list[Incident]:
        return [i for i in self.incidents if i.state is IncidentState.OPEN]

    def diagnosing_incidents(self) -> list[Incident]:
        return [i for i in self.incidents if i.state is IncidentState.DIAGNOSING]

    def resolved_incidents(self) -> list[Incident]:
        return [i for i in self.incidents if i.state is IncidentState.RESOLVED]

    def __len__(self) -> int:
        return len(self.incidents)


def status_row(
    watched, runs: int, verified: bool | None, identified: bool | None
) -> dict:
    """The fleet-table row of a local or process-backed watched environment;
    ``verified``/``identified`` grade its latest report (None: ungraded)."""
    manager = watched.manager
    incidents = manager.incidents
    last = incidents[-1] if incidents else None
    return {
        "env": watched.name,
        "query": watched.query_name,
        "clock": watched.clock,
        "runs": runs,
        "detections": sum(len(i.detections) for i in incidents)
        + manager.suppressed,
        "incidents": len(incidents),
        "open": len(manager.open_incidents()) + len(manager.diagnosing_incidents()),
        "suppressed": manager.suppressed,
        "state": last.state.value if last is not None else "healthy",
        "severity": last.severity.value if last is not None else "-",
        "top_cause": last.top_cause_id if last is not None else None,
        "ground_truth": watched.info.ground_truth if watched.info is not None else (),
        "verified": verified,
        "identified": identified,
    }


class IncidentStore(JournalStore):
    """Durable, queryable incident history over a pluggable backend.

    Each lifecycle transition is journalled as one *delta* record keyed by
    incident id: ``open`` carries the full ticket, ``absorb`` only the new
    detection, ``diagnosing``/``resolved`` only the fields they change — so
    an incident that absorbs N detections costs O(N) journal bytes, not
    O(N²) of re-serialised tickets.  The store folds the journal into the
    *latest* ticket per incident (both live and on :meth:`replay`), which is
    what ``history()`` serves across any number of process restarts — the
    query surface behind ``repro incidents``.

    Folding is idempotent: a supervisor resumed from a checkpoint replays
    the partially-journalled iteration deterministically, so a transition may be
    journalled twice with identical content — re-folding it must not change
    the ticket (``absorb`` skips a detection already present; the other
    events overwrite with equal values).
    """

    KEYSPACE = INCIDENTS

    def __init__(self, backend: "StorageBackend") -> None:
        self._transitions = 0
        super().__init__(backend)

    def replay(self) -> int:
        """Fold the journal into the latest-ticket view (on open)."""
        self._transitions = super().replay()
        return self._transitions

    def _fold(self, rec: dict) -> None:
        event = rec["event"]
        if event == "open":
            # Deep-copy: by-reference backends (MemoryBackend) keep the
            # journal record's own dict; folding later deltas into it in
            # place would retroactively rewrite the journalled open snapshot.
            self._latest[rec["k"]] = copy.deepcopy(rec["incident"])
            return
        ticket = self._latest.get(rec["k"])
        if ticket is None:
            return  # delta for an incident whose open record is gone
        if event == "absorb":
            detection = rec["detection"]
            if detection not in ticket["detections"]:
                ticket["detections"].append(detection)
                ticket["deduped"] = rec["deduped"]
                ticket["severity"] = rec["severity"]
        elif event == "diagnosing":
            ticket["state"] = IncidentState.DIAGNOSING.value
            ticket["diagnosed_at"] = rec["diagnosed_at"]
        elif event == "resolved":
            ticket["state"] = IncidentState.RESOLVED.value
            ticket["resolved_at"] = rec["resolved_at"]
            ticket["report"] = rec["report"]
            ticket["resolution"] = rec.get("resolution", "diagnosed")
            if "detections" in rec:  # absent in pre-0.5 journals
                ticket["detections"] = copy.deepcopy(rec["detections"])
                ticket["deduped"] = rec["deduped"]
                ticket["severity"] = rec["severity"]

    # -- writing ---------------------------------------------------------
    def record(self, event: str, incident: Incident, time: float) -> None:
        rec: dict = {"t": time, "k": incident.incident_id, "event": event}
        if event == "open":
            rec["incident"] = incident.to_dict()
        elif event == "absorb":
            rec["detection"] = incident.detections[-1].to_dict()
            rec["deduped"] = incident.deduped
            rec["severity"] = incident.severity.value
        elif event == "diagnosing":
            rec["diagnosed_at"] = incident.diagnosed_at
        elif event == "resolved":
            rec["resolved_at"] = incident.resolved_at
            rec["resolution"] = incident.resolution
            if incident.report is not None:
                from ..core.serialize import report_to_dict

                rec["report"] = report_to_dict(incident.report)
            else:
                rec["report"] = incident.report_data
            # Authoritative snapshot of the final detection set: a fleet
            # short-circuit may have re-routed detections absorbed after the
            # resolve instant, so the folded ticket must not keep them.
            rec["detections"] = [d.to_dict() for d in incident.detections]
            rec["deduped"] = incident.deduped
            rec["severity"] = incident.severity.value
        else:
            raise ValueError(f"unknown incident event {event!r}")
        self._append(rec)
        self._transitions += 1

    # -- queries ---------------------------------------------------------
    def history(
        self,
        *,
        env: str | None = None,
        state: "IncidentState | str | None" = None,
        since: float | None = None,
    ) -> list[dict]:
        """Latest ticket per incident, ordered by open time.

        ``env`` filters by environment name, ``state`` by final state,
        ``since`` by ``opened_at``.
        """
        wanted = state.value if isinstance(state, IncidentState) else state
        out = [
            ticket
            for ticket in self._tickets()
            if (env is None or ticket["env"] == env)
            and (wanted is None or ticket["state"] == wanted)
            and (since is None or ticket["opened_at"] >= since)
        ]
        return sorted(out, key=lambda t: (t["opened_at"], t["incident_id"]))

    def incidents(self) -> list[Incident]:
        """History rehydrated into :class:`Incident` objects."""
        return [Incident.from_dict(t) for t in self.history()]
