"""Tests for JSON serialization of plans, APGs and reports."""

from __future__ import annotations

import json

import pytest

from repro.core.apg import build_apg
from repro.core.serialize import apg_to_dict, report_to_dict
from repro.core.workflow import Diads
from repro.db.plans import canonical_q2_plan
from repro.storage.serializers import plan_from_dict, plan_to_dict


class TestPlanRoundTrip:
    def test_roundtrip_preserves_signature(self, q2_plan):
        restored = plan_from_dict(plan_to_dict(q2_plan))
        assert restored.signature() == q2_plan.signature()
        assert restored.size == 25

    def test_roundtrip_preserves_fields(self, q2_plan):
        restored = plan_from_dict(plan_to_dict(q2_plan))
        o22 = restored.find("O22")
        original = q2_plan.find("O22")
        assert o22.table == original.table
        assert o22.index == original.index
        assert o22.loops == original.loops
        assert o22.est_rows == original.est_rows

    def test_json_dumpable(self, q2_plan):
        text = json.dumps(plan_to_dict(q2_plan))
        assert '"O23"' in text

    def test_missing_optional_fields_defaulted(self):
        restored = plan_from_dict({"op_id": "O1", "op_type": "Limit"})
        assert restored.est_rows == 1.0 and restored.children == []


class TestApgSerialization:
    def test_structure(self, scenario1):
        apg = build_apg(scenario1, scenario1.query_name)
        data = apg_to_dict(apg)
        assert data["operator_count"] == 25
        assert data["volumes_used"] == ["V1", "V2"]
        assert set(data["dependency"]["O23"]["outer"]) == {"V3", "V4"}
        assert len(data["runs"]) == len(apg.runs)
        json.dumps(data)  # must be JSON-safe

    def test_annotations_included_on_demand(self, scenario1):
        apg = build_apg(scenario1, scenario1.query_name)
        slim = apg_to_dict(apg)
        fat = apg_to_dict(apg, include_annotations=True)
        assert "annotations" not in slim
        assert "V1" in fat["annotations"]["O22"]["components"]
        json.dumps(fat)


class TestReportSerialization:
    @pytest.fixture(scope="class")
    def report(self, scenario1):
        return Diads.from_bundle(scenario1).diagnose(scenario1.query_name)

    def test_causes_ranked_and_typed(self, report):
        data = report_to_dict(report)
        assert data["causes"][0]["cause_id"] == "volume-contention-san-misconfig"
        assert data["causes"][0]["confidence"] == "high"
        assert data["causes"][0]["impact_pct"] > 90

    def test_modules_and_symptoms_present(self, report):
        data = report_to_dict(report)
        assert set(data["modules"]) == {"PD", "CO", "CR", "DA", "SD", "IA"}
        sids = {s["sid"] for s in data["symptoms"]}
        assert "volume-metric-anomaly:V1" in sids

    def test_json_dumpable(self, report):
        json.dumps(report_to_dict(report))
