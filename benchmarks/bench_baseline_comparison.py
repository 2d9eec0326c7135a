"""E10 — Section 5's silo-tool comparison.

Paper: a SAN-only tool flags both V1 and V2 (and may prefer V2 because most
data lives there); a DB-only tool pinpoints slow operators but emits
false positives (buffer pool, plan choice); pure correlation floods.  DIADS
pinpoints V1's contention with the misconfiguration evidence.
"""

from __future__ import annotations

import pytest

from repro.core.baselines import baseline_findings
from repro.core.workflow import Diads


@pytest.fixture(scope="module")
def tool_outputs(scenario1_burst_bundle):
    bundle, query = scenario1_burst_bundle, scenario1_burst_bundle.query_name
    return {
        "DIADS": Diads.from_bundle(bundle).diagnose(query),
        "san-only": baseline_findings("san-only", bundle, query),
        "db-only": baseline_findings("db-only", bundle, query),
        "correlation-only": baseline_findings("correlation-only", bundle, query),
    }


def test_e10_reproduction(tool_outputs, record_result):
    lines = ["E10 — tool comparison on scenario 1 + bursty V2 load", "-" * 78]
    report = tool_outputs["DIADS"]
    lines.append(f"DIADS            -> {report.top_cause.describe()}")
    for tool in ("san-only", "db-only", "correlation-only"):
        findings = tool_outputs[tool]
        lines.append(f"{tool:<16} -> {len(findings)} findings:")
        for f in findings[:6]:
            lines.append(f"    - {f.describe()}")
    record_result("e10_baseline_comparison", "\n".join(lines))


def test_diads_pinpoints_v1(tool_outputs):
    top = tool_outputs["DIADS"].top_cause
    assert top.match.cause_id == "volume-contention-san-misconfig"
    assert top.match.binding == "V1"


def test_san_only_blames_both_volumes_preferring_v2(tool_outputs):
    findings = tool_outputs["san-only"]
    targets = [f.target for f in findings]
    assert "V1" in targets and "V2" in targets
    assert targets.index("V2") < targets.index("V1")


def test_db_only_emits_false_positives_and_misses_the_san(tool_outputs):
    findings = tool_outputs["db-only"]
    causes = {f.cause for f in findings}
    assert "slow-operators" in causes
    assert "suboptimal-buffer-pool" in causes or "suboptimal-plan-choice" in causes
    assert all("V1" not in f.target for f in findings)


def test_correlation_only_floods_across_components(tool_outputs):
    findings = tool_outputs["correlation-only"]
    components = {f.target.split(".")[0] for f in findings}
    assert len(findings) >= 5
    assert len(components) >= 3


def test_bench_san_only(benchmark, scenario1_burst_bundle):
    findings = benchmark(
        lambda: baseline_findings(
            "san-only", scenario1_burst_bundle, scenario1_burst_bundle.query_name
        )
    )
    assert findings


def test_bench_correlation_only(benchmark, scenario1_burst_bundle):
    findings = benchmark(
        lambda: baseline_findings(
            "correlation-only", scenario1_burst_bundle, scenario1_burst_bundle.query_name
        )
    )
    assert findings
