"""Self-time arithmetic of the layer ledger on a synthetic call tree."""

import threading

from ledger import Ledger, covered_s, diff, layer_metrics, total


class FakeClock:
    """A clock each thread advances explicitly, shared by every thread."""

    def __init__(self) -> None:
        self.now = {}

    def __call__(self) -> float:
        return self.now.get(threading.get_ident(), 0.0)

    def set(self, t: float) -> None:
        self.now[threading.get_ident()] = t


def _tree(ledger: Ledger, clock: FakeClock, base: float) -> None:
    """outer [0, 10] > middle [1, 7] > inner [2, 5], plus inner [8, 9]."""
    clock.set(base + 0)
    outer = ledger.enter("outer")
    clock.set(base + 1)
    middle = ledger.enter("middle")
    clock.set(base + 2)
    inner = ledger.enter("inner")
    clock.set(base + 5)
    ledger.leave(inner)
    clock.set(base + 7)
    ledger.leave(middle)
    clock.set(base + 8)
    inner = ledger.enter("inner")
    clock.set(base + 9)
    ledger.leave(inner)
    clock.set(base + 10)
    ledger.leave(outer)


def test_self_time_over_two_threads():
    clock = FakeClock()
    ledger = Ledger(clock=clock)
    worker = threading.Thread(target=_tree, args=(ledger, clock, 100.0))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    _tree(ledger, clock, 0.0)
    layers = ledger.snapshot()["layers"]
    # per thread: outer busy 10, self 10 - 6 - 1 = 3; middle busy 6, self 3;
    # inner busy 3 + 1 = 4, self 4.  Two threads double every figure.
    assert layers["outer"] == [2, 20.0, 6.0]
    assert layers["middle"] == [2, 12.0, 6.0]
    assert layers["inner"] == [4, 8.0, 8.0]
    total_self = sum(entry[2] for entry in layers.values())
    assert total_self == 20.0  # self times partition the top-level busy time
    assert sorted(ledger.top_level_intervals()) == [(0.0, 10.0), (100.0, 110.0)]


def test_recursion_counts_busy_once():
    clock = FakeClock()
    ledger = Ledger(clock=clock)
    clock.set(0)
    a = ledger.enter("f")
    clock.set(1)
    b = ledger.enter("f")
    clock.set(3)
    ledger.leave(b)
    clock.set(4)
    ledger.leave(a)
    assert ledger.snapshot()["layers"]["f"] == [2, 4.0, 4.0]


def test_wrap_records_and_reraises():
    ledger = Ledger()

    def boom():
        raise KeyError("x")

    traced = ledger.wrap(boom, "layer.boom")
    try:
        traced()
    except KeyError:
        pass
    else:  # pragma: no cover
        raise AssertionError("the wrapped exception must propagate")
    assert ledger.snapshot()["layers"]["layer.boom"][0] == 1


def test_span_cap_counts_dropped():
    ledger = Ledger(span_limit=2)
    for _ in range(5):
        ledger.leave(ledger.enter("x"))
    assert len(ledger.spans) == 2
    assert ledger.dropped_spans == 3


def test_covered_merges_overlaps_and_clips():
    intervals = [(0.0, 4.0), (2.0, 6.0), (8.0, 12.0), (9.0, 10.0)]
    assert covered_s(intervals, 0.0, 20.0) == 10.0
    assert covered_s(intervals, 3.0, 9.0) == 4.0
    assert covered_s([], 0.0, 5.0) == 0.0


def test_diff_and_flatten():
    before = {"layers": {"lab.advance": [1, 1.0, 0.5]}, "gc_pause_s": 0.1, "gc_gen2": 1}
    after = {"layers": {"lab.advance": [3, 4.0, 2.0]}, "gc_pause_s": 0.4, "gc_gen2": 2}
    metrics = layer_metrics(diff(after, before))
    assert metrics["lab.advance.calls"] == 2
    assert metrics["lab.advance.busy_s"] == 3.0
    assert metrics["lab.advance.self_s"] == 1.5
    assert metrics["db.execute.calls"] == 0
    assert metrics["py.gc.gen2"] == 1


def test_total_sums_snapshots_of_several_processes():
    a = {"layers": {"lab.advance": [2, 3.0, 1.0]}, "gc_pause_s": 0.25, "gc_gen2": 1}
    b = {"layers": {"lab.advance": [1, 1.0, 0.5], "db.execute": [4, 0.5, 0.5]}, "gc_pause_s": 0.5, "gc_gen2": 2}
    summed = total([a, b])
    assert summed["layers"] == {"lab.advance": [3, 4.0, 1.5], "db.execute": [4, 0.5, 0.5]}
    assert summed["gc_pause_s"] == 0.75
    assert summed["gc_gen2"] == 3
    assert a["layers"]["lab.advance"] == [2, 3.0, 1.0]  # inputs untouched
