"""The workload seed changes only the generated inputs."""

import inputs

#: Fields that may depend on the seed; everything else is fixed by the
#: workload and the run length.
SEEDED = {
    "diagnose": {"seed", "scenario_seed", "scenarios", "checked"},
    "watch": {"seed", "fabric_seed"},
    "serve": {"seed", "scenario_seed", "windows"},
}


def _all(seed: int, seconds: int = 20) -> dict:
    return {
        "diagnose": inputs.diagnose_inputs(seed, seconds),
        "watch": inputs.watch_inputs(seed, seconds),
        "serve": inputs.serve_inputs(seed, seconds),
    }


def test_same_seed_same_inputs():
    assert _all(3) == _all(3)


def test_seed_changes_only_seeded_fields():
    a, b = _all(1), _all(2)
    for workload, fields in SEEDED.items():
        changed = {k for k in a[workload] if a[workload][k] != b[workload][k]}
        assert changed <= fields, (workload, changed - fields)
        assert {"seed"} <= changed


def test_seed_only_reorders_operations():
    a, b = _all(1), _all(2)
    assert sorted(a["diagnose"]["scenarios"]) == sorted(b["diagnose"]["scenarios"])
    routes = lambda windows: [sorted(route for route, _arg in mix) for mix in windows]  # noqa: E731
    assert routes(a["serve"]["windows"]) == routes(b["serve"]["windows"])


def test_run_length_sets_the_operation_count():
    short, long = inputs.diagnose_inputs(1, 20), inputs.diagnose_inputs(1, 40)
    assert short["ops_per_env"] == 1 and long["ops_per_env"] == 2
    assert long["scenario_hours"] == long["history_h"] + 2 * long["append_s"] / 3600.0
    serve = inputs.serve_inputs(1, 20)
    mix = [item for window in serve["windows"] for item in window]
    assert len(mix) >= 100  # enough for a p90 tail
    writes = [route for route, _ in mix if route.startswith("tenant_")]
    assert len(writes) * 7 == 2 * (len(mix) - len(writes))
