"""Tests for the pluggable pipeline engine: registry, DAG scheduling, batch.

Covers the redesign's acceptance criteria: third-party modules registered
via ``@register_module`` run inside ``Diads.diagnose()`` with no engine
edits, and ``diagnose_many`` over a fleet of queries returns reports
identical to per-query ``diagnose()`` calls.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.core.baselines import baseline_findings, baseline_pipeline
from repro.core.modules.base import DiagnosisContext, ModuleResult
from repro.core.pipeline import (
    DEFAULT_MODULES,
    DiagnosisPipeline,
    DiagnosisRequest,
    PipelineError,
    default_pipeline,
)
from repro.core.registry import (
    ModuleRegistry,
    RegistryError,
    default_registry,
    register_module,
)
from repro.core.serialize import report_to_dict
from repro.core.workflow import MODULE_ORDER, Diads
from repro.core.evaluation import evaluate_bundle, evaluate_bundles


class _StubModule:
    """Minimal registrable module for registry/DAG tests."""

    def __init__(self, name: str, requires=(), after=(), gate=None, provides=None) -> None:
        self.name = name
        self.requires = tuple(requires)
        self.after = tuple(after)
        if gate is not None:
            self.gate = gate
        if provides is not None:
            self.provides = provides

    def run(self, ctx: DiagnosisContext) -> ModuleResult:
        result = ModuleResult(module=self.name, summary="stub ran")
        ctx.set_result(result)
        return result


class TestRegistry:
    def test_paper_modules_are_registered(self):
        registry = default_registry()
        for name in DEFAULT_MODULES:
            assert name in registry

    def test_register_and_create(self):
        registry = ModuleRegistry()
        registry.register(lambda: _StubModule("X1"), name="X1")
        module = registry.create("X1")
        assert module.name == "X1"

    def test_duplicate_registration_rejected(self):
        registry = ModuleRegistry()
        registry.register(lambda: _StubModule("X1"), name="X1")
        with pytest.raises(RegistryError):
            registry.register(lambda: _StubModule("X1"), name="X1")
        registry.register(lambda: _StubModule("X1"), name="X1", replace=True)

    def test_unknown_module_lists_known(self):
        with pytest.raises(RegistryError, match="PD"):
            default_registry().create("no-such-module")

    def test_nameless_factory_rejected(self):
        with pytest.raises(RegistryError):
            ModuleRegistry().register(lambda: _StubModule("X"))


class TestDagScheduling:
    def test_default_order_matches_figure2(self):
        assert default_pipeline().order == ("PD", "CO", "CR", "DA", "SD", "IA")
        assert MODULE_ORDER == ("PD", "CO", "CR", "DA", "SD", "IA")

    def test_listing_order_is_irrelevant(self):
        shuffled = DiagnosisPipeline(["IA", "SD", "DA", "CR", "CO", "PD"])
        assert shuffled.order == default_pipeline().order

    def test_cycle_detected(self):
        a = _StubModule("A", requires=("B",))
        b = _StubModule("B", requires=("A",))
        with pytest.raises(PipelineError, match="cycle"):
            DiagnosisPipeline([a, b])

    def test_missing_requirement_detected(self):
        with pytest.raises(PipelineError, match="requires"):
            DiagnosisPipeline([_StubModule("A", requires=("Z",))])

    def test_duplicate_module_detected(self):
        with pytest.raises(PipelineError, match="twice"):
            DiagnosisPipeline([_StubModule("A"), _StubModule("A")])

    def test_soft_after_ignored_when_absent(self):
        pipeline = DiagnosisPipeline([_StubModule("A", after=("Z", "B")), _StubModule("B")])
        assert pipeline.order == ("B", "A")

    def test_provides_resolves_requires_edges(self, scenario1):
        """A drop-in replacement advertises the key it fills via provides."""

        from repro.core.modules import COResult

        class FakeCO:
            """Replacement fills the CO key with a COResult-shaped payload."""

            name = "CO2"
            provides = "CO"
            requires = ("PD",)

            def run(self, ctx):
                result = COResult(
                    module="CO", summary="replacement COS", scores={}, cos=set()
                )
                ctx.set_result(result)
                return result

        pipeline = DiagnosisPipeline(["PD", FakeCO(), "SD", "IA"])
        assert pipeline.order.index("CO2") > pipeline.order.index("PD")
        report = pipeline.diagnose(scenario1)
        assert report.context.result("CO").summary == "replacement COS"

    def test_duplicate_provides_detected(self):
        with pytest.raises(PipelineError, match="both provide"):
            DiagnosisPipeline(
                [_StubModule("A"), _StubModule("B", provides="A")]
            )


class TestGating:
    def test_plans_differ_gates_drilldown_modules(self, scenario_pd):
        report = Diads.from_bundle(scenario_pd).diagnose(scenario_pd.query_name)
        assert set(report.context.results) == {"PD", "SD", "IA"}
        assert report.skipped["CO"] == "gated"
        assert report.skipped["CR"] == "gated"
        assert report.skipped["DA"] == "gated"

    def test_shared_plan_passes_gates(self, scenario1):
        report = Diads.from_bundle(scenario1).diagnose(scenario1.query_name)
        assert report.skipped == {}
        assert set(report.context.results) == set(DEFAULT_MODULES)

    def test_bypass_cascades_to_hard_dependents(self, scenario1):
        """DA hard-requires CO: bypassing CO must skip DA, not crash it."""
        session = Diads.from_bundle(scenario1).interactive(scenario1.query_name)
        session.bypass("CO")
        session.run_all()
        assert "CO" not in session.ctx.results
        assert "DA" not in session.ctx.results  # cascaded, engine never ran it
        assert "SD" in session.ctx.results  # soft dependency: still runs
        assert session.executed == ["PD", "CR", "SD", "IA"]

    def test_gate_skip_recorded_in_batch_report(self, scenario_pd):
        pipeline = default_pipeline()
        report = pipeline.diagnose(scenario_pd)
        assert report.skipped["DA"] == "gated"
        assert report_to_dict(report)["skipped"]["CO"] == "gated"


class TestInteractiveSession:
    def test_pending_follows_pipeline_order(self, scenario1):
        session = Diads.from_bundle(scenario1).interactive(scenario1.query_name)
        assert session.pending == list(MODULE_ORDER)
        session.run_next()
        assert session.pending == list(MODULE_ORDER[1:])

    def test_gates_reshape_pending_after_pd(self, scenario_pd):
        session = Diads.from_bundle(scenario_pd).interactive(scenario_pd.query_name)
        session.run_next()  # PD discovers the plan change
        assert session.pending == ["SD", "IA"]
        session.run_all()
        assert session.executed == ["PD", "SD", "IA"]

    def test_edit_then_rerun_roundtrip(self, scenario1):
        session = Diads.from_bundle(scenario1).interactive(scenario1.query_name)
        session.run_next()  # PD
        session.run_next()  # CO
        edited = session.edit("CO", lambda co: co.cos.clear())
        assert edited.cos == set()
        restored = session.rerun("CO")
        assert restored.cos  # recomputed from the monitoring data

    def test_edit_before_execution_raises(self, scenario1):
        session = Diads.from_bundle(scenario1).interactive(scenario1.query_name)
        with pytest.raises(KeyError):
            session.edit("CO", lambda co: None)

    def test_bypassed_modules_reported_as_skipped(self, scenario1):
        session = Diads.from_bundle(scenario1).interactive(scenario1.query_name)
        session.bypass("CR")
        session.run_all()
        report = session.report()
        assert report.skipped["CR"] == "bypassed"

    def test_interactive_skipped_matches_batch(self, scenario_pd):
        """Gated/cascaded modules get the same bookkeeping as batch mode."""
        batch = Diads.from_bundle(scenario_pd).diagnose(scenario_pd.query_name)
        session = Diads.from_bundle(scenario_pd).interactive(scenario_pd.query_name)
        session.run_all()
        assert session.report().skipped == batch.skipped

    def test_bypass_cascade_recorded_in_report(self, scenario1):
        session = Diads.from_bundle(scenario1).interactive(scenario1.query_name)
        session.bypass("CO")
        session.run_all()
        skipped = session.report().skipped
        assert skipped["CO"] == "bypassed"
        assert skipped["DA"].startswith("upstream CO unavailable")

    def test_bypass_pd_degrades_gracefully(self, scenario1):
        """SD reads PD optionally: bypassing PD still yields a diagnosis
        from events/metrics instead of crashing or skipping everything."""
        session = Diads.from_bundle(scenario1).interactive(scenario1.query_name)
        session.bypass("PD")
        session.run_all()
        assert session.executed == ["SD"]  # drill-down + IA need the APG
        report = session.report()
        assert report.ranked_causes  # symptoms still matched
        assert report.skipped["CO"].startswith("upstream PD unavailable")
        assert report.skipped["IA"].startswith("upstream PD unavailable")


@register_module
class _TicketNoteModule:
    """Third-party drill-down: annotates the diagnosis with COS size.

    Registered at import time via ``@register_module`` — the acceptance
    check that plug-ins run inside ``Diads.diagnose()`` with no engine
    edits.
    """

    name = "NOTE"
    requires = ("CO",)
    after = ("SD",)

    def run(self, ctx: DiagnosisContext) -> ModuleResult:
        co = ctx.result("CO")
        result = ModuleResult(
            module=self.name,
            summary=f"ticket note: {len(co.cos)} operators implicated",
        )
        ctx.set_result(result)
        return result


class TestThirdPartyModules:
    def test_registered_plugin_runs_inside_diagnose(self, scenario1):
        diads = Diads.from_bundle(
            scenario1, modules=[*DEFAULT_MODULES, "NOTE"]
        )
        assert diads.pipeline.order.index("NOTE") > diads.pipeline.order.index("SD")
        report = diads.diagnose(scenario1.query_name)
        note = report.context.result("NOTE")
        assert "operators implicated" in note.summary
        # the classic six still ran and the diagnosis is unchanged
        assert report.top_cause.match.cause_id in scenario1.info.ground_truth

    def test_plugin_inherits_gate_cascades(self, scenario_pd):
        diads = Diads.from_bundle(
            scenario_pd, modules=[*DEFAULT_MODULES, "NOTE"]
        )
        report = diads.diagnose(scenario_pd.query_name)
        assert "NOTE" not in report.context.results
        assert report.skipped["NOTE"].startswith("upstream CO unavailable")

    def test_plugin_instance_without_registration(self, scenario1):
        class Inline:
            name = "INLINE"
            requires = ("PD",)

            def run(self, ctx):
                result = ModuleResult(module="INLINE", summary="ran inline")
                ctx.set_result(result)
                return result

        report = Diads.from_bundle(
            scenario1, modules=[*DEFAULT_MODULES, Inline()]
        ).diagnose(scenario1.query_name)
        assert report.context.result("INLINE").summary == "ran inline"


class TestBatchDiagnosis:
    def test_diagnose_many_matches_sequential(
        self,
        scenario1,
        scenario1_burst,
        scenario2,
        scenario3,
        scenario4,
        scenario5,
        scenario_pd,
        scenario_pd_config,
    ):
        """Fleet acceptance: batch over 8 queries == per-query diagnose()."""
        bundles = [
            scenario1,
            scenario1_burst,
            scenario2,
            scenario3,
            scenario4,
            scenario5,
            scenario_pd,
            scenario_pd_config,
        ]
        pipeline = default_pipeline()
        sequential = [pipeline.diagnose(b) for b in bundles]
        batched = pipeline.diagnose_many(bundles, max_workers=8)
        assert len(batched) == 8
        for seq, bat in zip(sequential, batched):
            assert report_to_dict(seq) == report_to_dict(bat)
            assert seq.skipped == bat.skipped

    def test_request_normalisation(self, scenario1):
        req = DiagnosisRequest.of((scenario1, scenario1.query_name))
        assert req.bundle is scenario1.bundle
        req2 = DiagnosisRequest.of(scenario1)
        assert req2.query_name == scenario1.query_name

    def test_diads_diagnose_many_defaults_to_all_queries(self, scenario1):
        diads = Diads.from_bundle(scenario1)
        assert diads.queries() == [scenario1.query_name]
        reports = diads.diagnose_many(max_workers=2)
        assert [r.query_name for r in reports] == [scenario1.query_name]

    def test_report_cache_and_refresh(self, scenario1):
        diads = Diads.from_bundle(scenario1)
        first = diads.diagnose(scenario1.query_name)
        assert diads.diagnose(scenario1.query_name) is first
        assert diads.diagnose(scenario1.query_name, refresh=True) is not first

    def test_diagnose_many_reuses_cache(self, scenario1):
        diads = Diads.from_bundle(scenario1)
        first = diads.diagnose(scenario1.query_name)
        reports = diads.diagnose_many([scenario1.query_name])
        assert reports[0] is first  # cached, not re-diagnosed

    def test_threshold_mutation_invalidates_cache(self, scenario1):
        diads = Diads.from_bundle(scenario1)
        first = diads.diagnose(scenario1.query_name)
        diads.threshold = 0.9
        second = diads.diagnose(scenario1.query_name)
        assert second is not first
        assert second.context.threshold == 0.9

    def test_symptoms_db_mutation_takes_effect(self, scenario1):
        from repro.core.symptoms import default_symptoms_database

        diads = Diads.from_bundle(scenario1)
        first = diads.diagnose(scenario1.query_name)
        custom = default_symptoms_database()
        diads.symptoms_db = custom
        second = diads.diagnose(scenario1.query_name)
        assert second is not first  # cache cleared, pipeline rebuilt
        assert diads.modules()["SD"].database is custom

    def test_symptoms_db_swap_rejected_on_custom_pipeline(self, scenario1):
        from repro.core.symptoms import default_symptoms_database

        diads = Diads.from_bundle(scenario1, modules=list(DEFAULT_MODULES))
        with pytest.raises(ValueError, match="custom"):
            diads.symptoms_db = default_symptoms_database()

    def test_sequential_fallback_single_worker(self, scenario1, scenario5):
        pipeline = default_pipeline()
        reports = pipeline.diagnose_many([scenario1, scenario5], max_workers=1)
        assert [r.query_name for r in reports] == [
            scenario1.query_name,
            scenario5.query_name,
        ]


class TestBaselinePipelines:
    def test_baseline_pipeline_matches_facade(self, scenario1):
        findings = baseline_findings(
            "san-only", scenario1.bundle, scenario1.query_name
        )
        pipeline = baseline_pipeline("san-only")
        report = pipeline.diagnose(scenario1.bundle, scenario1.query_name)
        assert report.context.result("SAN_ONLY").findings == findings

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ValueError, match="unknown baseline"):
            baseline_pipeline("voodoo")

    def test_baselines_are_registered(self):
        registry = default_registry()
        assert "SAN_ONLY" in registry and "DB_ONLY" in registry
        assert "CORR_ONLY" in registry

    def test_correlation_only_works_without_satisfactory_runs(self):
        """Seed semantics: pure correlation needs >=3 labelled runs, not
        both labels — baseline_findings must not require a diagnosis
        context."""
        from repro.lab.scenarios import scenario_san_misconfiguration

        sb = scenario_san_misconfiguration(hours=5).run()
        runs = sb.bundle.stores.runs
        for run in runs.runs(sb.query_name):
            runs.mark(run.run_id, False)  # relabel: nothing satisfactory
        findings = baseline_findings("correlation-only", sb.bundle, sb.query_name)
        assert isinstance(findings, list)  # pipeline path would raise
        assert baseline_findings("san-only", sb.bundle, sb.query_name) == []


class TestEvaluationBatch:
    def test_evaluate_bundles_matches_single(self, scenario1, scenario5):
        batch = evaluate_bundles([scenario1, scenario5], max_workers=2)
        singles = [evaluate_bundle(scenario1), evaluate_bundle(scenario5)]
        for got, want in zip(batch, singles):
            assert got.scenario_name == want.scenario_name
            assert got.identified == want.identified
            assert got.top_cause == want.top_cause
            assert got.top_impact_pct == want.top_impact_pct


class TestCliBatch:
    def test_parser_accepts_batch(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["batch", "san-misconfiguration", "--max-workers", "4", "--json"]
        )
        assert args.command == "batch" and args.json and args.max_workers == 4

    def test_unknown_scenario_fails_cleanly(self, capsys):
        assert cli_main(["batch", "nonsense"]) == 2
        assert "unknown scenarios" in capsys.readouterr().err

    def test_batch_json_roundtrip(self, capsys):
        assert cli_main(["batch", "san-misconfiguration", "--hours", "6", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["scenario"] == "san-misconfiguration"
        assert payload[0]["causes"][0]["cause_id"] == "volume-contention-san-misconfig"

    def test_batch_table_output(self, capsys):
        assert cli_main(["batch", "san-misconfiguration", "--hours", "6"]) == 0
        out = capsys.readouterr().out
        assert "queries diagnosed across 1 bundle(s)" in out
        assert "volume-contention-san-misconfig" in out
