"""Online monitoring with auto-triggered diagnosis — the closed loop.

The paper's workflow is reactive: an administrator notices slow runs, marks
them unsatisfactory, and only then does DIADS investigate.  The streaming
subsystem removes the human: a :class:`FleetSupervisor` watches several
environments at once, online detectors (EWMA drift over volume response
times + a response-time SLO over the query's run stream) open incidents the
moment a degradation appears, runs are auto-marked, and every incident gets
a full pipeline diagnosis attached — all while the simulation keeps running.

The fleet here mixes three persistent faults with one *flapping* SAN
misconfiguration (the offending workload comes and goes on a duty cycle),
which exercises incident deduplication and cooldown.

Run:  python examples/online_watch.py
CLI:  python -m repro.cli watch --hours 8
"""

from repro import FleetSupervisor
from repro.fleets import DEFAULT_WATCH_FLEET, SCENARIOS

HOURS = 8.0

supervisor = FleetSupervisor(
    chunk_s=1800.0,      # detectors + diagnosis run every simulated 30 min
    cooldown_s=7200.0,   # a resolved target stays quiet for 2 h
    max_workers=4,       # environments advance (and diagnose) concurrently
)
# The stock `repro watch` fleet: three persistent faults + one flapping.
for name in DEFAULT_WATCH_FLEET:
    supervisor.watch_scenario(SCENARIOS[name](hours=HOURS))


# Advance the whole fleet, narrating each incident as it resolves.  Every
# environment runs on its own clock, so the lines interleave across the fleet.
def narrate(event):
    if event["type"] == "incident_resolved":
        print(
            f"t={event['clock'] / 3600.0:4.1f}h  {event['incident_id']:<40} "
            f"{event['severity']:<8} -> {event['top_cause']}"
        )


supervisor.run(HOURS * 3600.0, on_event=narrate)

print()
print(supervisor.render_table())

# Every detection the fleet produced, folded into few incidents:
total_detections = sum(
    sum(len(i.detections) for i in w.manager.incidents) + w.manager.suppressed
    for w in supervisor.watched.values()
)
incidents = supervisor.incidents()
diagnosed = [i for i in incidents if i.report is not None]
print(
    f"\n{total_detections} detections -> {len(incidents)} incidents "
    f"({len(diagnosed)} diagnosed) across {len(supervisor.watched)} environments"
)

# The incident is the ops ticket: JSON-ready, report attached.
sample = diagnosed[0].to_dict()
print(f"\nexample ticket {sample['incident_id']}: severity={sample['severity']}, "
      f"top cause={sample['report']['causes'][0]['cause_id']}")
