"""Watched fleets: the scenario registries and the one fleet builder.

:data:`SCENARIOS` and :data:`FLEET_SCENARIOS` name every environment and
shared fabric a fleet can watch.  A :class:`FleetSpec` is one fleet
definition: scenario names, duration, seed, and the supervisor/correlator
knobs.  Both front ends build through it: ``repro watch`` turns its command
line into a spec, and ``repro serve`` takes one as the JSON body of
``POST /v1/tenants/{id}/fleets``.  The spec validates eagerly (unknown
scenario names, duplicate members, fleet scenarios that declare the same
shared component, out-of-range numbers — all before any environment is
built) and is JSON-round-trippable (``to_dict``/``from_payload``).
:meth:`FleetSpec.build` constructs the fabrics, the correlation engine and
the supervisor, and stamps :meth:`FleetSpec.checkpoint_meta` into every
checkpoint, so a watch only resumes with the same fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING

from .correlate import (
    CorrelationEngine,
    FleetIncidentStore,
    fabric_coincidental_independent_faults,
    fabric_shared_pool_saturation,
    fabric_shared_switch_degradation,
)
from .lab import (
    scenario_buffer_pool,
    scenario_concurrent_db_san,
    scenario_cpu_saturation,
    scenario_data_property_change,
    scenario_flapping_san_misconfiguration,
    scenario_healthy,
    scenario_lock_contention,
    scenario_plan_regression,
    scenario_raid_rebuild,
    scenario_san_misconfiguration,
    scenario_staggered_dual_faults,
    scenario_switch_degradation,
    scenario_two_external_workloads,
)
from .stream import FleetEventLog, FleetSupervisor, IncidentStore

if TYPE_CHECKING:  # pragma: no cover
    from .correlate import SharedFabric
    from .runtime import WorkerPool
    from .storage.backend import StorageBackend

__all__ = [
    "SCENARIOS",
    "FLEET_SCENARIOS",
    "DEFAULT_WATCH_FLEET",
    "FleetSpec",
    "scenario_catalog",
]

SCENARIOS = {
    "san-misconfiguration": scenario_san_misconfiguration,
    "san-misconfiguration-v2-burst": lambda **kw: scenario_san_misconfiguration(
        with_v2_burst=True, **kw
    ),
    "two-external-workloads": scenario_two_external_workloads,
    "data-property-change": scenario_data_property_change,
    "concurrent-db-san": scenario_concurrent_db_san,
    "lock-contention": scenario_lock_contention,
    "plan-regression": scenario_plan_regression,
    "cpu-saturation": scenario_cpu_saturation,
    "buffer-pool-thrashing": scenario_buffer_pool,
    "raid-rebuild": scenario_raid_rebuild,
    "flapping-san-misconfiguration": scenario_flapping_san_misconfiguration,
    "staggered-dual-faults": scenario_staggered_dual_faults,
    "healthy-baseline": scenario_healthy,
    "switch-degradation": scenario_switch_degradation,
}

#: Fleet scenarios: shared fabrics of many environments.  Naming one in a
#: fleet expands it into its member environments and enables the
#: cross-environment correlator automatically.
FLEET_SCENARIOS = {
    "shared-pool-saturation": fabric_shared_pool_saturation,
    "shared-switch-degradation": fabric_shared_switch_degradation,
    "coincidental-independent-faults": fabric_coincidental_independent_faults,
}

#: The stock ``repro watch`` fleet: three persistent faults + one flapping.
DEFAULT_WATCH_FLEET = (
    "san-misconfiguration",
    "flapping-san-misconfiguration",
    "lock-contention",
    "data-property-change",
)


def scenario_catalog() -> dict:
    """The scenario names a fleet may name."""
    return {
        "scenarios": sorted(SCENARIOS),
        "fleet_scenarios": sorted(FLEET_SCENARIOS),
    }


@dataclass(frozen=True)
class FleetSpec:
    """A validated, JSON-able fleet definition."""

    scenarios: tuple[str, ...]
    hours: float = 8.0
    seed: int | None = None
    chunk_minutes: float = 30.0
    cooldown_minutes: float = 120.0
    max_inflight_diagnoses: int | None = None
    correlation_window_minutes: float = 60.0
    min_members: int = 3
    max_workers: int | None = None
    #: Recovery-aware incident closure (resolve on return-to-baseline,
    #: re-escalate on regression) — see FleetSupervisor(recovery=True).
    recovery: bool = False

    @classmethod
    def from_payload(cls, data: object) -> "FleetSpec":
        """Validate a JSON payload into a spec (ValueError on any problem)."""
        if not isinstance(data, dict):
            raise ValueError("fleet spec must be a JSON object")
        unknown_fields = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown_fields:
            raise ValueError(f"unknown fleet spec fields: {', '.join(unknown_fields)}")
        names = data.get("scenarios")
        if not isinstance(names, (list, tuple)) or not names:
            raise ValueError("fleet spec needs a non-empty 'scenarios' list")
        unknown = [n for n in names if n not in SCENARIOS and n not in FLEET_SCENARIOS]
        if unknown:
            raise ValueError(f"unknown scenarios: {', '.join(map(str, unknown))}")
        duplicates = sorted({n for n in names if names.count(n) > 1})
        if duplicates:
            raise ValueError(f"duplicate scenarios: {', '.join(duplicates)}")

        def number(name: str, default: float, *, zero_ok: bool = False) -> float:
            value = data.get(name, default)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number")
            if value < 0 or (value == 0 and not zero_ok):
                raise ValueError(
                    f"{name} must be {'non-negative' if zero_ok else 'positive'}"
                )
            return float(value)

        def optional_int(name: str, *, minimum: int = 1) -> int | None:
            value = data.get(name)
            if value is None:
                return None
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise ValueError(f"{name} must be an integer >= {minimum}")
            return value

        seed = data.get("seed")
        if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
            raise ValueError("seed must be an integer")
        recovery = data.get("recovery", False)
        if not isinstance(recovery, bool):
            raise ValueError("recovery must be a boolean")
        spec = cls(
            scenarios=tuple(names),
            hours=number("hours", 8.0),
            seed=seed,
            chunk_minutes=number("chunk_minutes", 30.0),
            cooldown_minutes=number("cooldown_minutes", 120.0, zero_ok=True),
            max_inflight_diagnoses=optional_int("max_inflight_diagnoses"),
            correlation_window_minutes=number("correlation_window_minutes", 60.0),
            min_members=optional_int("min_members") or 3,
            max_workers=optional_int("max_workers"),
            recovery=recovery,
        )
        spec._fabrics()  # a membership conflict is refused here, not at build
        return spec

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["scenarios"] = list(self.scenarios)
        return out

    def checkpoint_meta(self) -> dict:
        """The run identity every checkpoint records; resume requires it.

        Knobs that do not change the simulated history (pool, worker count,
        in-flight diagnosis cap) stay out, so a resume may change them.
        """
        meta = {
            "scenarios": list(self.scenarios),
            "hours": self.hours,
            "seed": self.seed,
            "chunk_minutes": self.chunk_minutes,
            "cooldown_minutes": self.cooldown_minutes,
        }
        if any(name in FLEET_SCENARIOS for name in self.scenarios):
            meta["correlation_window_minutes"] = self.correlation_window_minutes
            meta["min_members"] = self.min_members
        if self.recovery:
            meta["recovery"] = True
        return meta

    def member_names(self) -> list[str]:
        """Environment names this spec expands to (fleet members included)."""
        fabrics, _membership = self._fabrics()
        members: list[str] = []
        for name in self.scenarios:
            if name in fabrics:
                members.extend(sorted(fabrics[name].members))
            else:
                members.append(name)
        return members

    def _fabrics(
        self,
    ) -> tuple[dict[str, "SharedFabric"], dict[str, tuple[str, ...]]]:
        """The named fleet scenarios' fabrics (in spec order) and their
        merged shared-component membership; none when no fleet scenario is
        named.

        Same-named components in different fleet scenarios are DIFFERENT
        physical components (each fabric is its own set of simulators);
        merging them would correlate unrelated members, so a component two
        fabrics declare is a ValueError.
        """
        fabrics = {
            name: FLEET_SCENARIOS[name](**self._scenario_kwargs())
            for name in self.scenarios
            if name in FLEET_SCENARIOS
        }
        membership: dict[str, tuple[str, ...]] = {}
        for fabric in fabrics.values():
            for component, members in fabric.membership().items():
                if component in membership:
                    raise ValueError(
                        f"fleet scenarios conflict: shared component "
                        f"{component!r} is declared by more than one fleet "
                        "scenario (same-named components in different "
                        "fabrics are physically distinct) — watch them "
                        "separately"
                    )
                membership[component] = tuple(members)
        return fabrics, membership

    def _scenario_kwargs(self) -> dict:
        kwargs: dict = {"hours": self.hours}
        if self.seed is not None:
            kwargs["seed"] = self.seed
        return kwargs

    # -- construction ----------------------------------------------------
    def build(
        self,
        *,
        state_dir: str | Path | None = None,
        backend: "StorageBackend | None" = None,
        pool: "WorkerPool | None" = None,
        max_skew_s: float | None = None,
    ) -> "FleetSupervisor":
        """Build the fleet's supervisor stack (ValueError on a bad fleet).

        The journals go to ``backend`` when given (``repro serve``: the
        tenant's prefixed view over one shared backend), else under
        ``state_dir`` when given, else nowhere.  Blocking (store replays,
        scenario construction) — the serve app runs this through
        ``Scheduler.call`` on the worker pool.
        """
        fabrics, membership = self._fabrics()
        correlator = None
        if fabrics:
            if backend is not None:
                fleet_store = FleetIncidentStore(backend)
            elif state_dir is not None:
                fleet_store = FleetIncidentStore.open(state_dir)
            else:
                fleet_store = None
            correlator = CorrelationEngine(
                membership,
                window_s=self.correlation_window_minutes * 60.0,
                min_members=self.min_members,
                store=fleet_store,
            )
        supervisor = FleetSupervisor(
            chunk_s=self.chunk_minutes * 60.0,
            max_workers=self.max_workers,
            cooldown_s=self.cooldown_minutes * 60.0,
            state_dir=state_dir,
            max_inflight_diagnoses=self.max_inflight_diagnoses,
            correlator=correlator,
            max_skew_s=max_skew_s,
            recovery=self.recovery,
            incident_store=IncidentStore(backend) if backend is not None else None,
            event_log=FleetEventLog(backend) if backend is not None else None,
            pool=pool,
            checkpoint_meta=self.checkpoint_meta(),
        )
        # Hydration specs carry each environment's registry identity (the
        # same keys the checkpoint meta records): under a process pool the
        # supervisor builds and simulates each environment inside its
        # sticky worker; under threads they are ignored.
        hydration = {"hours": self.hours, "seed": self.seed}
        for fabric_name, fabric in fabrics.items():
            fabric.watch_all(supervisor, hydration={"fleet": fabric_name, **hydration})
        for name in self.scenarios:
            if name not in FLEET_SCENARIOS:
                supervisor.watch_scenario(
                    SCENARIOS[name](**self._scenario_kwargs()),
                    name=name,
                    hydration={"scenario": name, **hydration},
                )
        return supervisor
