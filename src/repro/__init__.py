"""repro — reproduction of "Why Did My Query Slow Down?" (DIADS, CIDR 2009).

An integrated database + SAN diagnosis library.  The package is organised as:

* :mod:`repro.stats` — KDE anomaly scoring and baseline detectors,
* :mod:`repro.san` — SAN simulator (topology, zoning, I/O contention),
* :mod:`repro.db` — database simulator (catalog, optimizer, executor),
* :mod:`repro.monitor` — noisy sampled monitoring stores, bundled as
  ``MonitoringStores`` (in memory, or ``MonitoringStores.open(state_dir)``
  over a durable backend),
* :mod:`repro.lab` — environment, workloads, fault injection, scenarios,
* :mod:`repro.core` — the paper's contribution: APGs and the DIADS workflow,
  built on a pluggable pipeline engine (registry + DAG scheduling),
* :mod:`repro.runtime` — the execution substrate: a shared long-lived
  worker pool, a cooperative asyncio scheduler with bounded backpressure
  queues, and per-environment clock vectors,
* :mod:`repro.stream` — online detectors, incidents, and the barrier-free
  fleet supervisor that closes the detect→diagnose loop with no human
  marking (each environment advances on its own clock; slow diagnoses
  overlap the rest of the fleet),
* :mod:`repro.storage` — one pluggable backend protocol (memory + the
  crash-safe JSONL journal) under every store, and lossless
  serializers for persistence (``DiagnosisBundle.save()/load()``,
  ``repro watch --state-dir`` resume).

Quickstart::

    from repro import Diads, scenario_san_misconfiguration

    bundle = scenario_san_misconfiguration().run()
    report = Diads.from_bundle(bundle).diagnose("q2-report")
    print(report.render())

Fleet-scale batch and plug-in modules::

    from repro import DiagnosisPipeline, DiagnosisRequest, register_module

    reports = DiagnosisPipeline().diagnose_many(
        [DiagnosisRequest(bundle.bundle, "q2-report")], max_workers=8
    )

Online monitoring with auto-triggered diagnosis::

    from repro import FleetSupervisor, scenario_flapping_san_misconfiguration

    supervisor = FleetSupervisor()
    supervisor.watch_scenario(scenario_flapping_san_misconfiguration(hours=8.0))
    supervisor.run(8 * 3600.0)  # incidents open + diagnose themselves
"""

from .core import (
    Diads,
    DiagnosisModule,
    DiagnosisPipeline,
    DiagnosisReport,
    DiagnosisRequest,
    InteractiveSession,
    ModuleRegistry,
    RankedCause,
    default_pipeline,
    default_registry,
    evaluate_bundle,
    evaluate_bundles,
    evaluate_report,
    evaluate_scenario,
    register_module,
)
from .lab import (
    Scenario,
    ScenarioBundle,
    all_table1_scenarios,
    scenario_buffer_pool,
    scenario_concurrent_db_san,
    scenario_cpu_saturation,
    scenario_data_property_change,
    scenario_flapping_san_misconfiguration,
    scenario_lock_contention,
    scenario_plan_regression,
    scenario_raid_rebuild,
    scenario_san_misconfiguration,
    scenario_staggered_dual_faults,
    scenario_two_external_workloads,
)
from .stream import (
    CusumDetector,
    Detection,
    DetectorBank,
    EwmaDriftDetector,
    FleetEventLog,
    FleetSupervisor,
    Incident,
    IncidentManager,
    IncidentState,
    IncidentStore,
    ResponseTimeSloDetector,
    Severity,
    ThresholdSloDetector,
    WatchedEnvironment,
)
from .correlate import (
    CorrelationEngine,
    FleetDiagnosis,
    FleetIncident,
    FleetIncidentState,
    FleetIncidentStore,
    SharedFabric,
    SharedFabricBuilder,
    diagnose_fleet_incident,
    fabric_coincidental_independent_faults,
    fabric_shared_pool_saturation,
    fabric_shared_switch_degradation,
)
from .runtime import ClockVector, Scheduler, TaskQueue, WorkerPool, shared_pool
from .monitor import MonitoringStores
from .storage import JsonlBackend, MemoryBackend, StorageBackend
from . import obs

__version__ = "0.10.0"

__all__ = [
    "__version__",
    "Diads",
    "DiagnosisModule",
    "DiagnosisPipeline",
    "DiagnosisReport",
    "DiagnosisRequest",
    "InteractiveSession",
    "ModuleRegistry",
    "RankedCause",
    "default_pipeline",
    "default_registry",
    "register_module",
    "evaluate_bundle",
    "evaluate_bundles",
    "evaluate_report",
    "evaluate_scenario",
    "Scenario",
    "ScenarioBundle",
    "all_table1_scenarios",
    "scenario_buffer_pool",
    "scenario_concurrent_db_san",
    "scenario_cpu_saturation",
    "scenario_data_property_change",
    "scenario_flapping_san_misconfiguration",
    "scenario_lock_contention",
    "scenario_plan_regression",
    "scenario_raid_rebuild",
    "scenario_san_misconfiguration",
    "scenario_staggered_dual_faults",
    "scenario_two_external_workloads",
    "Detection",
    "ThresholdSloDetector",
    "EwmaDriftDetector",
    "CusumDetector",
    "ResponseTimeSloDetector",
    "DetectorBank",
    "Incident",
    "IncidentManager",
    "IncidentState",
    "IncidentStore",
    "Severity",
    "FleetEventLog",
    "FleetSupervisor",
    "WatchedEnvironment",
    "CorrelationEngine",
    "FleetDiagnosis",
    "FleetIncident",
    "FleetIncidentState",
    "FleetIncidentStore",
    "SharedFabric",
    "SharedFabricBuilder",
    "diagnose_fleet_incident",
    "fabric_shared_pool_saturation",
    "fabric_shared_switch_degradation",
    "fabric_coincidental_independent_faults",
    "StorageBackend",
    "MemoryBackend",
    "JsonlBackend",
    "MonitoringStores",
    "WorkerPool",
    "shared_pool",
    "Scheduler",
    "TaskQueue",
    "ClockVector",
    "obs",
]
