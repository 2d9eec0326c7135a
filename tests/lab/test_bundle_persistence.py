"""DiagnosisBundle.save/load round trip + durable environment stores."""

from __future__ import annotations

import json

import pytest

from repro.core import Diads
from repro.core.serialize import report_to_dict
from repro.lab.environment import DiagnosisBundle, Environment
from repro.lab.scenarios import scenario_san_misconfiguration
from repro.monitor import MonitoringStores


@pytest.fixture(scope="module")
def scenario_bundle():
    return scenario_san_misconfiguration(hours=6.0).run()


class TestBundleSaveLoad:
    def test_round_trip_preserves_views(self, tmp_path, scenario_bundle):
        bundle = scenario_bundle.bundle
        bundle.save(tmp_path / "b")
        loaded = DiagnosisBundle.load(tmp_path / "b")

        key = bundle.stores.metrics.keys()[0]
        assert loaded.stores.metrics.series(*key) == bundle.stores.metrics.series(*key)
        assert [r.run_id for r in loaded.stores.runs.runs()] == [
            r.run_id for r in bundle.stores.runs.runs()
        ]
        assert [r.satisfactory for r in loaded.stores.runs.runs()] == [
            r.satisfactory for r in bundle.stores.runs.runs()
        ]
        assert len(loaded.stores.events.events) == len(bundle.stores.events.events)
        assert loaded.catalog.snapshot() == bundle.catalog.snapshot()
        assert loaded.initial_catalog.snapshot() == bundle.initial_catalog.snapshot()
        assert loaded.db_config == bundle.db_config
        assert loaded.query_names == bundle.query_names
        assert set(loaded.query_specs) == set(bundle.query_specs)
        assert loaded.topology.snapshot() == bundle.topology.snapshot()

    def test_loaded_bundle_diagnoses_identically(self, tmp_path, scenario_bundle):
        bundle = scenario_bundle.bundle
        query = scenario_bundle.query_name
        bundle.save(tmp_path / "b")
        loaded = DiagnosisBundle.load(tmp_path / "b")

        original = report_to_dict(Diads.from_bundle(bundle).diagnose(query))
        restored = report_to_dict(Diads.from_bundle(loaded).diagnose(query))
        assert json.dumps(original, sort_keys=True) == json.dumps(
            restored, sort_keys=True
        )
        assert original["causes"], "scenario should produce ranked causes"

    def test_save_writes_the_payload(self, tmp_path, scenario_bundle):
        """save() is to_payload() on disk: the telemetry records as segment
        lines, everything else as bundle.json; load() decodes it back."""
        bundle = scenario_bundle.bundle
        payload = json.loads(json.dumps(bundle.to_payload()))
        bundle.save(tmp_path / "b")
        telemetry = payload.pop("telemetry")
        assert json.loads((tmp_path / "b" / "bundle.json").read_text()) == payload
        segments = sorted((tmp_path / "b" / "telemetry").glob("*.jsonl"))
        assert {path.stem for path in segments} == set(telemetry)
        for path in segments:
            lines = path.read_text().splitlines()
            assert [json.loads(line) for line in lines] == telemetry[path.stem]
        loaded = DiagnosisBundle.load(tmp_path / "b")
        assert loaded.to_payload()["telemetry"] == telemetry
        loaded.stores.close()

    def test_save_refuses_overwrite_unless_asked(self, tmp_path, scenario_bundle):
        bundle = scenario_bundle.bundle
        bundle.save(tmp_path / "b")
        with pytest.raises(FileExistsError):
            bundle.save(tmp_path / "b")
        bundle.save(tmp_path / "b", overwrite=True)  # replaces cleanly
        loaded = DiagnosisBundle.load(tmp_path / "b")
        assert len(loaded.stores.runs.runs()) == len(bundle.stores.runs.runs())


class TestEnvironmentWithDurableStores:
    def test_injected_telemetry_store_records_and_reopens(self, tmp_path):
        from repro.db.tpch import build_tpch_catalog
        from repro.san.builder import build_testbed

        stores = MonitoringStores.open(tmp_path / "tel", seed=11)
        env = Environment(
            testbed=build_testbed(),
            catalog=build_tpch_catalog(),
            seed=11,
            stores=stores,
        )
        env.advance(1800.0)
        key = stores.metrics.keys()[0]
        before = stores.metrics.series(*key)
        assert before, "environment should have recorded telemetry"
        stores.close()

        reopened = MonitoringStores.open(tmp_path / "tel", seed=11)
        assert reopened.metrics.series(*key) == before
        assert reopened.config.scopes() == stores.config.scopes()
        reopened.close()
