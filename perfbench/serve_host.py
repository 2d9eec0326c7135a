"""Run ``repro serve`` for the benchmark, optionally under the layer ledger.

    python3 perfbench/serve_host.py --state-root DIR [--ledger-out FILE] [--cpu N]

The server binds a free port (see ``DIR/serve.json``) and stops on SIGTERM.
With ``--cpu``, the whole server runs on that one CPU.
With ``--ledger-out``, SIGUSR1 and SIGUSR2 mark the start and the end of
the measured window: the ledger is snapshotted at each mark, and on exit
both snapshots, the top-level span intervals and the kept spans are
written next to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-root", required=True)
    parser.add_argument("--ledger-out", default=None)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        # Before any thread starts, so every thread of the server inherits it.
        os.sched_setaffinity(0, {args.cpu})

    ledger = None
    marks: dict = {}
    if args.ledger_out:
        from ledger import Ledger

        ledger = Ledger()
        ledger.install()

        def mark(signum, _frame) -> None:
            key = "start" if signum == signal.SIGUSR1 else "end"
            marks[key] = {"t": time.perf_counter(), "snapshot": ledger.snapshot()}

        signal.signal(signal.SIGUSR1, mark)
        signal.signal(signal.SIGUSR2, mark)

    from repro.cli import main as repro_main

    code = repro_main(["serve", "--state-root", args.state_root, "--port", "0"])
    if ledger is not None:
        out = Path(args.ledger_out)
        out.write_text(
            json.dumps(
                {
                    "marks": marks,
                    "intervals": ledger.top_level_intervals(),
                    "dropped_spans": ledger.dropped_spans,
                }
            )
        )
        ledger.write_spans(out.with_suffix(".spans.jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main())
