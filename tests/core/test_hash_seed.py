"""Diagnosis reports do not depend on the interpreter's hash seed.

``PYTHONHASHSEED`` changes the iteration order of sets, and a float sum in
that order changes a report's last bits.  Two processes with different seeds
must serialise byte-identical reports for the same scenario.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import json
from repro.cli import SCENARIOS
from repro.core.serialize import report_to_dict
from repro.core.workflow import Diads

for name in ("data-property-change", "concurrent-db-san"):
    bundle = SCENARIOS[name](hours=24, seed=1).run()
    report = Diads.from_bundle(bundle).diagnose(bundle.query_name)
    print(json.dumps(report_to_dict(report), sort_keys=True))
"""


def test_reports_are_identical_across_hash_seeds():
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", SCRIPT],
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC)),
            stdout=subprocess.PIPE,
        )
        for seed in (0, 2)
    ]
    outputs = [proc.communicate(timeout=300)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outputs[0].count(b"\n") == 2
    assert outputs[0] == outputs[1]
