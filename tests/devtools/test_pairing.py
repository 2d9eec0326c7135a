"""Checkpoint and serializer surfaces come in pairs, checked on the real classes.

A class with ``state_dict`` but no ``load_state`` checkpoints state that a
resume silently drops; a ``*_to_dict`` with no ``*_from_dict`` cannot
round-trip.  Introspection sees inherited methods and aliases, so it needs
no list of exemptions.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import types
from fractions import Fraction

import repro
from repro.storage import serializers
from repro.stream.detectors import CusumDetector


def _defined_in(module, predicate):
    return [
        obj
        for _, obj in inspect.getmembers(module, predicate)
        if obj.__module__ == module.__name__
    ]


def one_sided(classes):
    return [
        cls for cls in classes if hasattr(cls, "state_dict") != hasattr(cls, "load_state")
    ]


def missing_inverses(names):
    return sorted(
        partner
        for name in names
        for suffix, inverse in (("_to_dict", "_from_dict"), ("_from_dict", "_to_dict"))
        if name.endswith(suffix)
        and (partner := name[: -len(suffix)] + inverse) not in names
    )


def _own_function_names(module):
    return {fn.__name__ for fn in _defined_in(module, inspect.isfunction)}


class TestCheckpointPairing:
    def test_state_dict_and_load_state_come_in_pairs(self):
        classes = [
            cls
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            for cls in _defined_in(importlib.import_module(info.name), inspect.isclass)
        ]
        assert one_sided(classes) == []

    def test_one_sided_pair_flagged(self):
        class Engine:
            def state_dict(self):
                return {}

        assert one_sided([Engine]) == [Engine]

    def test_complete_pair_clean(self):
        class Engine:
            def state_dict(self):
                return {}

            def load_state(self, state):
                pass

        assert one_sided([Engine]) == []

    def test_assignment_alias_counts(self):
        # ``load_state = _restore`` style aliases satisfy the pair.
        def _restore(self, state):
            pass

        class Engine:
            def state_dict(self):
                return {}

            load_state = _restore

        assert one_sided([Engine]) == []

    def test_same_module_inheritance_resolved(self):
        # Engine inherits load_state from Base, so overriding only
        # state_dict does not break the pair.
        class Base:
            def state_dict(self):
                return {}

            def load_state(self, state):
                pass

        class Engine(Base):
            def state_dict(self):
                return {"extra": 1}

        assert one_sided([Engine]) == []

    def test_imported_base_resolved(self):
        # The missing half is looked up on the imported base: a repro
        # detector has it, a stdlib class does not.
        class Engine(CusumDetector):
            def state_dict(self):
                return {}

        class Ratio(Fraction):
            def state_dict(self):
                return {}

        assert one_sided([Engine, Ratio]) == [Ratio]


class TestSerializerCompleteness:
    def test_every_serializer_has_its_inverse(self):
        assert missing_inverses(_own_function_names(serializers)) == []

    def test_missing_inverse_flagged(self):
        assert missing_inverses({"incident_to_dict"}) == ["incident_from_dict"]

    def test_complete_pair_clean(self):
        assert missing_inverses({"incident_to_dict", "incident_from_dict"}) == []

    def test_imported_functions_not_counted(self):
        # Only functions defined in the module itself are paired; a
        # half-pair imported from elsewhere is checked where it lives.
        module = types.ModuleType("fixture")
        module.plan_to_dict = serializers.plan_to_dict
        assert _own_function_names(module) == set()
        assert "plan_to_dict" in _own_function_names(serializers)
