"""Concurrent database + SAN problems, and why silo tools get them wrong.

Scenario 4 of Table 1: a DML batch changes data properties at the same time
as a SAN misconfiguration creates contention on V1.  DIADS identifies both
and ranks them by impact; the silo baselines (SAN-only, DB-only,
pure-correlation) each tell a misleading story.

Run:  python examples/concurrent_problems.py
"""

from repro.core import Diads, baseline_findings
from repro.lab import scenario_concurrent_db_san


def main() -> None:
    bundle = scenario_concurrent_db_san(hours=24).run()
    query = bundle.query_name

    print("=== DIADS (integrated) ===")
    report = Diads.from_bundle(bundle).diagnose(query)
    for i, ranked in enumerate(report.ranked_causes, start=1):
        if ranked.match.confidence.value == "low":
            break
        print(f"  {i}. {ranked.describe()}")

    print()
    print("=== SAN-only tool ===")
    for finding in baseline_findings("san-only", bundle, query):
        print(f"  - {finding.describe()}")
    print("  (volume-level contention found, but the concurrent data-property")
    print("   change is invisible to a storage tool)")

    print()
    print("=== DB-only tool ===")
    for finding in baseline_findings("db-only", bundle, query):
        print(f"  - {finding.describe()}")
    print("  (operators pinpointed, but the SAN misconfiguration cannot be")
    print("   seen; the usual database suspects are raised instead)")

    print()
    print("=== Pure-correlation tool (no domain knowledge) ===")
    for finding in baseline_findings("correlation-only", bundle, query):
        print(f"  - {finding.describe()}")
    print("  (event flooding: every co-moving metric looks like a cause)")


if __name__ == "__main__":
    main()
