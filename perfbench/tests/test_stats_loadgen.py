"""The tail rule and open-loop timing from the scheduled send time."""

import pytest

import loadgen
import stats


def test_no_tail_below_ten_samples_beyond_p90():
    assert stats.tail(list(range(99))) is None  # 9 samples beyond p90
    assert stats.tail(list(range(20))) is None  # p50 is never named a tail


def test_tail_is_highest_supported_percentile():
    pct, value = stats.tail([float(i) for i in range(1, 101)])
    assert pct == 90.0 and value == 90.0
    assert stats.beyond(100, 90.0) == 10
    pct, value = stats.tail([float(i) for i in range(1, 201)])
    assert pct == 95.0 and value == 190.0
    pct, _ = stats.tail(list(range(1000)))
    assert pct == 99.0


def test_percentile_nearest_rank():
    assert stats.percentile([5, 1, 3], 50) == 3
    with pytest.raises(ValueError):
        stats.percentile([], 50)


class FakeTime:
    def __init__(self) -> None:
        self.now = 0.0
        self.slept = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.slept.append(seconds)
        self.now += seconds


def test_open_loop_times_from_due_time_with_lateness():
    fake = FakeTime()
    durations = {0: 0.1, 1: 2.5, 2: 0.1, 3: 0.1}

    def send(i):
        if i == 3:
            raise RuntimeError("refused")
        fake.now += durations[i]
        return i

    out = loadgen.run_open_loop(range(4), 1.0, send, clock=fake.clock, sleep=fake.sleep)
    # due 0, 1, 2, 3; request 1 stalls until t=3.5, so 2 and 3 go out late.
    assert [o.due for o in out] == [0.0, 1.0, 2.0, 3.0]
    assert [round(o.late_s, 6) for o in out] == [0.0, 0.0, 1.5, 0.6]
    assert [round(o.latency_s, 6) for o in out] == [0.1, 2.5, 1.6, 0.6]
    assert [o.ok for o in out] == [True, True, True, False]
    assert isinstance(out[3].result, RuntimeError)
    assert fake.slept == [pytest.approx(0.9)]


def test_open_loop_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        loadgen.run_open_loop([1], 0.0, lambda item: item)
