"""Tests for batch/interactive workflow, reports, baselines and what-if."""

from __future__ import annotations

import pytest

from repro.core.baselines import baseline_findings
from repro.core.report import (
    render_apg_browser,
    render_apg_overview,
    render_query_table,
    render_workflow_screen,
)
from repro.core.apg import build_apg
from repro.core.whatif import WhatIfAnalyzer
from repro.core.workflow import Diads


@pytest.fixture(scope="module")
def report1(scenario1):
    return Diads.from_bundle(scenario1).diagnose(scenario1.query_name)


class TestBatchWorkflow:
    def test_top_cause_is_ground_truth(self, report1, scenario1):
        assert report1.top_cause.match.cause_id in scenario1.info.ground_truth
        assert report1.top_cause.match.binding == "V1"

    def test_every_module_ran(self, report1):
        for name in ("PD", "CO", "CR", "DA", "SD", "IA"):
            assert name in report1.context.results

    def test_cause_lookup(self, report1):
        ranked = report1.cause("volume-contention-san-misconfig")
        assert ranked.impact_pct is not None and ranked.impact_pct > 90

    def test_plan_branch_skips_statistical_modules(self, scenario_pd):
        report = Diads.from_bundle(scenario_pd).diagnose(scenario_pd.query_name)
        assert "CO" not in report.context.results
        assert report.top_cause.match.cause_id == "plan-regression-index-drop"
        assert report.top_cause.impact_pct == 100.0

    def test_render_mentions_cause_and_modules(self, report1):
        text = report1.render()
        assert "volume-contention-san-misconfig" in text
        assert "[CO]" in text and "[IA]" in text
        assert "Symptoms observed" in text


class TestInteractiveWorkflow:
    def test_step_through_matches_batch(self, scenario1, report1):
        session = Diads.from_bundle(scenario1).interactive(scenario1.query_name)
        steps = []
        while not session.finished:
            result = session.run_next()
            steps.append(result.module)
        assert steps == ["PD", "CO", "CR", "DA", "SD", "IA"]
        interactive = session.report()
        assert (
            interactive.top_cause.match.cause_id
            == report1.top_cause.match.cause_id
        )

    def test_plan_branch_shortens_pipeline(self, scenario_pd):
        session = Diads.from_bundle(scenario_pd).interactive(scenario_pd.query_name)
        session.run_all()
        assert session.executed == ["PD", "SD", "IA"]

    def test_edit_result_feeds_downstream(self, scenario1):
        """Removing the V1 leaves from COS suppresses the V1 symptoms."""
        session = Diads.from_bundle(scenario1).interactive(scenario1.query_name)
        session.run_next()  # PD
        session.run_next()  # CO
        session.edit("CO", lambda co: co.cos.difference_update({"O8", "O22"}))
        session.run_all()
        sd = session.ctx.result("SD")
        assert "operators-anomalous-volume:V1" not in {s.sid for s in sd.symptoms}

    def test_rerun_restores_edited_result(self, scenario1):
        session = Diads.from_bundle(scenario1).interactive(scenario1.query_name)
        session.run_next()
        session.run_next()
        session.edit("CO", lambda co: co.cos.clear())
        assert session.ctx.result("CO").cos == set()
        session.rerun("CO")
        assert {"O8", "O22"} <= session.ctx.result("CO").cos

    def test_rerun_requires_prior_execution(self, scenario1):
        session = Diads.from_bundle(scenario1).interactive(scenario1.query_name)
        with pytest.raises(ValueError):
            session.rerun("CO")

    def test_bypass(self, scenario1):
        session = Diads.from_bundle(scenario1).interactive(scenario1.query_name)
        session.run_next()  # PD
        session.run_next()  # CO
        session.bypass("CR")
        session.run_all()
        assert "CR" not in session.ctx.results
        assert "SD" in session.ctx.results

    def test_bypass_after_execution_rejected(self, scenario1):
        session = Diads.from_bundle(scenario1).interactive(scenario1.query_name)
        session.run_next()
        with pytest.raises(ValueError):
            session.bypass("PD")


class TestRenderers:
    def test_query_table(self, scenario1):
        text = render_query_table(scenario1.bundle.stores.runs, scenario1.query_name)
        assert "Unsatisfactory" in text
        assert "[x]" in text and "q2-report#" in text

    def test_apg_overview_matches_figure1(self, scenario1):
        apg = build_apg(scenario1.bundle, scenario1.query_name)
        text = render_apg_overview(apg)
        assert "operators: 25 (9 leaves)" in text
        assert "ts_supplier -> V1" in text
        assert "inner:" in text and "outer:" in text

    def test_apg_browser(self, scenario1):
        apg = build_apg(scenario1.bundle, scenario1.query_name)
        text = render_apg_browser(apg, "O22")
        assert ">>> selected" in text
        assert "V1" in text

    def test_workflow_screen_progression(self, scenario1):
        session = Diads.from_bundle(scenario1).interactive(scenario1.query_name)
        before = render_workflow_screen(session)
        assert "[PD:NEXT]" in before
        session.run_next()
        after = render_workflow_screen(session)
        assert "[PD:done]" in after and "[CO:NEXT]" in after


class TestBaselines:
    def test_san_only_flags_both_volumes_in_burst_variant(self, scenario1_burst):
        findings = baseline_findings(
            "san-only", scenario1_burst.bundle, scenario1_burst.query_name
        )
        targets = [f.target for f in findings]
        assert "V1" in targets and "V2" in targets
        # ...and prefers V2 ("most of the data is on V2")
        assert targets.index("V2") < targets.index("V1")

    def test_db_only_emits_false_positives(self, scenario1):
        findings = baseline_findings("db-only", scenario1.bundle, scenario1.query_name)
        causes = {f.cause for f in findings}
        assert "slow-operators" in causes
        assert "suboptimal-buffer-pool" in causes  # the false positive
        assert not any("V1" in f.target for f in findings)  # blind to the SAN

    def test_correlation_only_floods(self, scenario1):
        findings = baseline_findings(
            "correlation-only", scenario1.bundle, scenario1.query_name
        )
        assert len(findings) >= 5  # event flooding: many correlated metrics
        components = {f.target.split(".")[0] for f in findings}
        assert len(components) >= 3  # spread across unrelated components


class TestWhatIf:
    def test_replan_predicts_index_recreation_fixes_regression(self, scenario_pd):
        # the fault dropped the index; what-if: create it again
        analyzer = WhatIfAnalyzer(scenario_pd.bundle)
        original = scenario_pd.bundle.initial_catalog.index("ix_partsupp_suppkey")
        outcome = analyzer.replan_under(
            scenario_pd.query_name, create_indexes=(original,)
        )
        assert outcome.plan_changes
        assert outcome.hypothetical_cost < outcome.current_cost

    def test_replan_no_change_without_hypothesis(self, scenario_pd):
        analyzer = WhatIfAnalyzer(scenario_pd.bundle)
        outcome = analyzer.replan_under(scenario_pd.query_name)
        assert not outcome.plan_changes

    def test_add_workload_predicts_slowdown_on_used_volume(self, scenario1):
        analyzer = WhatIfAnalyzer(scenario1.bundle)
        outcome = analyzer.add_workload(
            scenario1.query_name, "V2", read_iops=150.0, write_iops=150.0
        )
        assert outcome.slowdown_pct > 5.0
        assert outcome.volume_latency_after["V2"] > outcome.volume_latency_before["V2"]

    def test_add_workload_on_isolated_pool_harmless(self, scenario1):
        analyzer = WhatIfAnalyzer(scenario1.bundle)
        outcome = analyzer.add_workload(
            scenario1.query_name, "V1", read_iops=0.0, write_iops=0.0
        )
        assert abs(outcome.slowdown_pct) < 1.0

    def test_missing_spec_raises(self, scenario1):
        analyzer = WhatIfAnalyzer(scenario1.bundle)
        with pytest.raises(ValueError):
            analyzer.replan_under(scenario1.query_name)
