"""Shared fixtures for the benchmark/reproduction suite.

Each bench regenerates one table or figure of the paper.  The reproduced
artefact is written to ``benchmarks/results/<name>.txt`` (and echoed to
stdout) so the numbers survive pytest's output capturing; EXPERIMENTS.md
summarises paper-vs-measured for all of them.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.lab.scenarios import (
    scenario_concurrent_db_san,
    scenario_data_property_change,
    scenario_lock_contention,
    scenario_plan_regression,
    scenario_san_misconfiguration,
    scenario_two_external_workloads,
)

#: Simulated timeline per scenario (hours). 12h → 12 good + 12 bad runs.
BENCH_HOURS = 12.0

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def record_result():
    """Writer for reproduced tables/figures: record_result(name, text, data=None).

    Every result lands twice: the human table at ``results/<name>.txt`` and
    a machine-readable ``results/BENCH_<name>.json`` (pass ``data=`` for
    structured rows; without it the JSON still records the rendered text, so
    every benchmark is diffable by tooling).
    """
    import json

    def write(name: str, text: str, data=None) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        payload = {"benchmark": name, "text": text}
        if data is not None:
            payload["data"] = data
        (RESULTS_DIR / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        print(f"\n=== {name} (saved to {path}) ===\n{text}\n")

    return write


@pytest.fixture(scope="session")
def scenario1_bundle():
    return scenario_san_misconfiguration(hours=BENCH_HOURS).run()


@pytest.fixture(scope="session")
def scenario1_burst_bundle():
    return scenario_san_misconfiguration(hours=BENCH_HOURS, with_v2_burst=True).run()


@pytest.fixture(scope="session")
def scenario2_bundle():
    return scenario_two_external_workloads(hours=BENCH_HOURS).run()


@pytest.fixture(scope="session")
def scenario3_bundle():
    return scenario_data_property_change(hours=BENCH_HOURS).run()


@pytest.fixture(scope="session")
def scenario4_bundle():
    return scenario_concurrent_db_san(hours=BENCH_HOURS).run()


@pytest.fixture(scope="session")
def scenario5_bundle():
    return scenario_lock_contention(hours=BENCH_HOURS).run()


@pytest.fixture(scope="session")
def scenario_pd_bundle():
    return scenario_plan_regression(hours=BENCH_HOURS).run()
