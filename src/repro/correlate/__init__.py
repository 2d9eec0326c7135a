"""repro.correlate — fleet-wide cross-environment correlation.

The first subsystem whose unit of analysis is the **fleet**, not the
environment.  Environments sharing SAN infrastructure fail together: one
misconfigured shared pool opens N "unrelated" incidents that the
per-environment view diagnoses N times.  This package closes that gap in
three layers:

* **shared fabrics** (:mod:`repro.correlate.fabric`) — build fleets of
  environments over common SAN components, with shared-component fault
  injection propagating to every attached member;
* **the streaming correlation engine** (:mod:`repro.correlate.engine`) —
  consumes the fleet event stream (in-process via
  ``FleetSupervisor(correlator=...)`` or out-of-process by tailing a state
  dir's durable fleet event log), maintains time-windowed co-occurrence of
  incident opens keyed by shared-component membership, and emits durable
  :class:`FleetIncident`\\ s with open → grow → resolve lifecycle;
* **shared-root-cause drill-down** (:mod:`repro.correlate.diagnosis`) —
  cross-member dependency-path analysis ranking the shared components (each
  member scores its own evidence), one fleet-level report replacing N
  redundant member diagnoses.

Quickstart::

    from repro.correlate import fabric_shared_pool_saturation
    from repro.stream import FleetSupervisor

    fabric = fabric_shared_pool_saturation(hours=8.0)   # 8 envs, 6 on P1
    engine = fabric.correlator()
    supervisor = FleetSupervisor(correlator=engine)
    fabric.watch_all(supervisor)
    supervisor.run(8 * 3600.0)
    for fleet_incident in engine.fleet_incidents():
        print(fleet_incident.fleet_id, fleet_incident.top_cause_id)
"""

from .diagnosis import (
    ComponentEvidence,
    FleetDiagnosis,
    SCResult,
    SharedCause,
    SharedComponentRankModule,
    diagnose_fleet_incident,
    rank_components_for_member,
)
from .engine import (
    CorrelationEngine,
    FleetIncident,
    FleetIncidentState,
    FleetIncidentStore,
    ticket_top_cause,
)
from .fabric import (
    SharedComponentSpec,
    SharedFabric,
    SharedFabricBuilder,
    SharedFault,
    fabric_coincidental_independent_faults,
    fabric_shared_pool_saturation,
    fabric_shared_switch_degradation,
)

__all__ = [
    "CorrelationEngine",
    "FleetIncident",
    "FleetIncidentState",
    "FleetIncidentStore",
    "ticket_top_cause",
    "SharedComponentSpec",
    "SharedFault",
    "SharedFabric",
    "SharedFabricBuilder",
    "fabric_shared_pool_saturation",
    "fabric_shared_switch_degradation",
    "fabric_coincidental_independent_faults",
    "ComponentEvidence",
    "SharedCause",
    "FleetDiagnosis",
    "SCResult",
    "SharedComponentRankModule",
    "diagnose_fleet_incident",
    "rank_components_for_member",
]
