"""`repro watch` and `repro serve` share one fleet validator and builder.

`repro watch` turns its command line into a :class:`~repro.fleets.FleetSpec`
payload, so every refusal below is the same one the serve API gives, and
the checkpoint meta both front ends stamp is the dict `repro watch` has
always written (so state dirs from earlier releases still resume).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.fleets import FleetSpec
from repro.lab.environment import Environment

SINGLE_META = {
    "scenarios": ["flapping-san-misconfiguration"],
    "hours": 2.0,
    "seed": None,
    "chunk_minutes": 30.0,
    "cooldown_minutes": 120.0,
}


class TestWatchArguments:
    @pytest.fixture(autouse=True)
    def _no_simulation(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a refused watch must not simulate")

        monkeypatch.setattr(Environment, "advance", refuse)

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["nonsense"], "unknown scenarios: nonsense"),
            (["lock-contention", "lock-contention"], "duplicate scenarios: lock-contention"),
            (
                ["shared-pool-saturation", "shared-switch-degradation"],
                "shared component 'fcsw-core' is declared by more than one",
            ),
            (["--max-skew-minutes", "1"], "max_skew_s must be at least chunk_s"),
            (["--hours", "0"], "hours must be positive"),
            (["--max-workers", "0"], "max_workers must be an integer >= 1"),
            (["--cooldown-minutes", "-1"], "cooldown_minutes must be non-negative"),
            (
                ["--correlation-window-minutes", "0"],
                "correlation_window_minutes must be positive",
            ),
        ],
        ids=[
            "unknown",
            "duplicate",
            "fabric-conflict",
            "skew-below-chunk",
            "zero-hours",
            "zero-workers",
            "negative-cooldown",
            "zero-window",
        ],
    )
    def test_refused_before_any_simulation(self, capsys, tmp_path, argv, reason):
        assert main(["watch", *argv, "--state-dir", str(tmp_path / "s")]) == 2
        assert reason in capsys.readouterr().err


class TestFleetSpec:
    def test_watch_writes_the_pinned_checkpoint_meta(self, tmp_path, capsys):
        state = tmp_path / "state"
        main(
            [
                "watch", "flapping-san-misconfiguration", "--hours", "2",
                "--state-dir", str(state), "--json",
            ]
        )
        capsys.readouterr()
        checkpoint = json.loads((state / "checkpoint.json").read_text())
        assert checkpoint["meta"] == SINGLE_META

    def test_checkpoint_meta(self):
        def meta(**payload):
            return FleetSpec.from_payload({"hours": 2, **payload}).checkpoint_meta()

        assert meta(scenarios=["flapping-san-misconfiguration"]) == SINGLE_META
        # Knobs that do not change the history stay out of the meta.
        assert (
            meta(
                scenarios=["flapping-san-misconfiguration"],
                max_workers=3,
                max_inflight_diagnoses=1,
            )
            == SINGLE_META
        )
        assert meta(scenarios=["shared-pool-saturation"]) == {
            **SINGLE_META,
            "scenarios": ["shared-pool-saturation"],
            "correlation_window_minutes": 60.0,
            "min_members": 3,
        }
        assert meta(scenarios=["flapping-san-misconfiguration"], recovery=True) == {
            **SINGLE_META,
            "recovery": True,
        }

    def test_to_dict_round_trips_every_field_in_order(self):
        spec = FleetSpec.from_payload({"scenarios": ["lock-contention"], "seed": 7})
        payload = spec.to_dict()
        assert list(payload) == [
            "scenarios",
            "hours",
            "seed",
            "chunk_minutes",
            "cooldown_minutes",
            "max_inflight_diagnoses",
            "correlation_window_minutes",
            "min_members",
            "max_workers",
            "recovery",
        ]
        assert payload["scenarios"] == ["lock-contention"]
        assert FleetSpec.from_payload(payload) == spec

    def test_zero_cooldown_is_accepted(self):
        spec = FleetSpec.from_payload(
            {"scenarios": ["lock-contention"], "cooldown_minutes": 0}
        )
        assert spec.cooldown_minutes == 0.0
        assert spec.build().cooldown_s == 0.0

    @pytest.mark.parametrize(
        "value",
        ["false", "true", 0, 1, None, [True]],
        ids=["str-false", "str-true", "zero", "one", "null", "list"],
    )
    def test_recovery_must_be_a_json_boolean(self, value):
        with pytest.raises(ValueError, match="recovery must be a boolean"):
            FleetSpec.from_payload({"scenarios": ["lock-contention"], "recovery": value})

    def test_conflicting_fleet_scenarios_are_refused_at_validation(self):
        with pytest.raises(ValueError, match="shared component 'fcsw-core'"):
            FleetSpec.from_payload(
                {"scenarios": ["shared-pool-saturation", "shared-switch-degradation"]}
            )
