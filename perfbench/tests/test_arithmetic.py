"""The benchmark's own arithmetic: percentiles, self time, seeding."""

import pytest

from perfbench import stats, workloads
from perfbench.tracer import Tracer, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nearest_rank_returns_a_sample():
    values = list(range(1, 11))
    assert stats.nearest_rank(values, 50) == 5
    assert stats.nearest_rank(values, 90) == 9
    assert stats.nearest_rank(values, 91) == 10
    assert stats.nearest_rank(values, 100) == 10
    assert stats.nearest_rank([7.5], 99) == 7.5
    assert stats.nearest_rank(list(range(1, 1001)), 99) == 990
    assert stats.median([3, 1, 2]) == 2


def test_nearest_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.nearest_rank([], 50)
    with pytest.raises(ValueError):
        stats.nearest_rank([1], 0)


@pytest.mark.parametrize(
    "count, level",
    [(1000, 99.0), (10_000, 99.9), (999, 95.0), (200, 95.0), (100, 90.0), (40, 75.0)],
)
def test_tail_leaves_ten_samples_beyond(count, level):
    values = [float(v) for v in range(count)]
    reported_level, value = stats.tail(values)
    assert reported_level == level
    assert sum(1 for v in values if v > value) >= stats.MIN_BEYOND_TAIL
    higher = [lv for lv in stats.TAIL_LEVELS if lv > level]
    for lv in higher:
        assert stats.beyond(values, lv) < stats.MIN_BEYOND_TAIL


def test_tail_of_small_sample_is_none():
    assert stats.tail([1.0] * 39) is None


def test_self_time_under_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def at(t, action, *args):
        clock.now = t
        action(*args)

    at(0, tracer.begin, "outer", True)
    at(1, tracer.begin, "child")
    at(3, tracer.end)
    at(4, tracer.begin, "middle")
    at(5, tracer.begin, "child")
    at(6, tracer.end)
    at(8, tracer.end)
    at(10, tracer.end)
    at(11, tracer.begin, "outer", True)
    at(12, tracer.end)

    totals = self_times(tracer.spans)
    assert totals["outer"].calls == 2
    assert totals["outer"].total_s == 11
    assert totals["outer"].self_s == 10 - 2 - 4 + 1
    assert totals["middle"].self_s == 3
    assert totals["child"].calls == 2
    assert totals["child"].self_s == 3
    # Self times partition the root spans' wall exactly.
    assert sum(t.self_s for t in totals.values()) == 11

    ops = {}
    for _id, _parent, name, start, _end, op in tracer.spans:
        ops[(name, start)] = op
    first = ops[("outer", 0)]
    assert first > 0
    assert ops[("child", 1)] == ops[("middle", 4)] == ops[("child", 5)] == first
    assert ops[("outer", 11)] not in (0, first)


def test_span_outside_an_operation_has_no_op_id():
    tracer = Tracer()
    tracer.begin("loose")
    tracer.end()
    assert tracer.spans[0][5] == 0


def test_fig3_inputs_follow_the_seed():
    assert workloads.fig3_inputs(5, 0) == workloads.fig3_inputs(5, 0)
    assert workloads.fig3_inputs(5, 0) != workloads.fig3_inputs(6, 0)
    assert workloads.fig3_inputs(5, 0) != workloads.fig3_inputs(5, 1)
    drawn = workloads.fig3_inputs(5, 0)
    assert len(drawn) == 176
    assert all(0.1 <= u <= 0.3 for u in drawn)
    assert len(set(drawn)) > 1


def test_serve_inputs_follow_the_seed():
    assert workloads.serve_inputs(5, 0) == workloads.serve_inputs(5, 0)
    assert workloads.serve_inputs(5, 0) != workloads.serve_inputs(6, 0)
    # Repetition 1 replays repetition 0; later ones get new streams.
    assert workloads.serve_inputs(5, 1) == workloads.serve_inputs(5, 0)
    assert workloads.serve_inputs(5, 2) != workloads.serve_inputs(5, 0)
    assert workloads.serve_inputs(5, 2) != workloads.serve_inputs(5, 3)


def test_fig6_inputs_follow_the_seed():
    def shards(seed):
        return [spec.as_dict() for spec in workloads.fig6_inputs(seed).expand()]

    assert shards(5) == shards(5)
    assert shards(5) != shards(6)
    assert {s["scheduler"] for s in shards(5)} == {"credit", "credit2", "tableau"}
