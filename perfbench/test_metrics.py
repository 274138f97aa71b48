"""Tests of the benchmark's own metric code on synthetic input.

    python3 -m pytest perfbench/test_metrics.py
"""

import pytest

import hostspeed
import stats
from spans import Tracer, self_times


def test_percentile_needs_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    assert stats.percentile(values, 0.9) == 90  # 10 samples (91..100) beyond
    assert stats.percentile(values, 0.5) == 50
    with pytest.raises(ValueError):
        stats.percentile(values[:99], 0.9)  # only 9 beyond
    with pytest.raises(ValueError):
        stats.percentile(values, 0.95)


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 30
    assert stats.percentile(values, 0.5) == 3.0
    assert stats.percentile(values, 0.9) == 5.0


def test_self_time_on_nested_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # a second root [20, 21] has the same name as c.
    names = ["root", "a", "c", "b", "c"]
    starts = [0.0, 1.0, 2.0, 5.0, 20.0]
    ends = [10.0, 4.0, 3.0, 9.0, 21.0]
    parents = [-1, 0, 1, 0, -1]
    out = self_times(names, starts, ends, parents)
    assert out["root"] == (1, pytest.approx(3000.0))  # 10 - 3 - 4 seconds
    assert out["a"] == (1, pytest.approx(2000.0))
    assert out["b"] == (1, pytest.approx(4000.0))
    assert out["c"] == (2, pytest.approx(2000.0))
    total = sum(ms for _, ms in out.values())
    assert total == pytest.approx(11000.0)  # the two roots' spans


def test_tracer_records_only_while_active():
    tracer = Tracer()

    def inner(x):
        return x + 1

    traced_inner = tracer.span("inner", inner)
    outer = tracer.span("outer", lambda x: traced_inner(x) * 2)
    assert outer(1) == 4 and tracer.names == []
    tracer.active = True
    assert outer(1) == 4
    tracer.active = False
    assert tracer.names == ["outer", "inner"]
    assert tracer.parents == [-1, 0]
    calls, ms = tracer.self_ms()["inner"]
    assert calls == 1 and ms >= 0.0


def test_geometric_mean():
    assert stats.geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
    assert stats.geometric_mean([0.1] * 7) == pytest.approx(0.1)
    assert stats.geometric_mean([2.0, 8.0, 4.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        stats.geometric_mean([])
    with pytest.raises(ValueError):
        stats.geometric_mean([1.0, 0.0])


def test_fail_ratio_with_its_base():
    assert stats.ratio(0, 40) == 0.0
    assert stats.ratio(3, 40) == pytest.approx(0.075)
    assert stats.ratio(0, 0) == 0.0  # nothing attempted
    with pytest.raises(ValueError):
        stats.ratio(-1, 4)


def test_speed_factor_scales_to_the_nominal_kernel_time():
    nominal = hostspeed.NOMINAL_S
    # median of the kernel timings, not their mean: one slow outlier is ignored
    assert hostspeed.speed_factor([nominal, 2 * nominal, 50 * nominal]) == pytest.approx(0.5)
    assert hostspeed.speed_factor([nominal] * 4) == pytest.approx(1.0)
    assert hostspeed.time_kernel() > 0.0
