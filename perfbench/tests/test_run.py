"""A workload that raises still ends the run with one JSON result line."""

import json
import math

import run


def test_raising_workload_reports_a_failed_run(monkeypatch, capsys):
    def boom(*_args, **_kwargs):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(run, "run_pass", boom)
    code = run.main(["--workload", "watch", "--seed", "1", "--seconds", "20", "--trace", "0"])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert any("simulated crash" in line for line in out)
