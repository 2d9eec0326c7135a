"""Fleet correlation — one shared-pool outage, eight environments, ONE report.

A misconfigured volume lands on a pool shared by six of eight environments.
Watched independently, that is a dozen "unrelated" incidents and a dozen
redundant pipeline runs.  With the cross-environment correlator
(:mod:`repro.correlate`) wired into the supervisor:

1. the streaming engine notices the co-occurring incident opens across the
   pool's membership and merges them into one ``FleetIncident``;
2. the shared-root-cause drill-down ranks the shared components across the
   members' run histories (dependency paths x metric/duration correlation) and
   names the pool — out-ranking the also-shared core switch, because two
   attached-but-healthy members are evidence against the switch;
3. every member incident is resolved with the fleet-level report instead of
   paying its own six-module diagnosis;
4. the control experiment shows co-location alone is not correlation.

Run:  python examples/fleet_correlation.py
CLI:  python -m repro.cli watch shared-pool-saturation --hours 8 --state-dir ./state
      python -m repro.cli correlate --state-dir ./state
"""

from repro import FleetSupervisor
from repro.correlate import (
    fabric_coincidental_independent_faults,
    fabric_shared_pool_saturation,
)

HOURS = 8.0

# --- shared-pool outage: 8 environments, 6 attached to the faulty pool ------
fabric = fabric_shared_pool_saturation(hours=HOURS, n_envs=8, attached=6)
engine = fabric.correlator()  # keyed by the fabric's shared-component map
supervisor = FleetSupervisor(correlator=engine, cooldown_s=HOURS * 3600.0)
fabric.watch_all(supervisor)
supervisor.run(HOURS * 3600.0)

for group in engine.fleet_incidents():
    print(f"{group.fleet_id}: {len(group.members)} member incidents across "
          f"{len(group.member_envs)} environments, confidence "
          f"{group.confidence:.2f}, {group.state.value}")
    for cause in group.report_data["causes"]:
        print(f"  {cause['cause_id']:<28} score {cause['score']:.2f} "
              f"(coverage {cause['coverage']:.2f}, "
              f"correlation {cause['correlation']:.2f})")

print("\nmember incidents (all short-circuited by the fleet report):")
for incident in supervisor.incidents():
    print(f"  {incident.incident_id:<28} {incident.state.value:<9} "
          f"-> {incident.top_cause_id}")

# --- the control: shared infrastructure, independent staggered faults -------
control = fabric_coincidental_independent_faults(hours=HOURS)
control_engine = control.correlator()
control_supervisor = FleetSupervisor(correlator=control_engine)
control.watch_all(control_supervisor)
control_supervisor.run(HOURS * 3600.0)

opened = sum(len(w.manager.incidents) for w in control_supervisor.watched.values())
print(f"\ncontrol fabric: {opened} independent incident(s), "
      f"{len(control_engine.fleet_incidents())} merged group(s) "
      "(co-location alone is not correlation)")
