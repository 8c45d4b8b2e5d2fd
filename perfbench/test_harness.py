"""Tests for the benchmark harness's own arithmetic.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import run
from harness import (
    Span,
    Tracer,
    check_metric_name,
    failed_frac,
    self_times,
    tail_percentile,
)


# -- the percentile-with-ten-beyond rule -------------------------------
def test_tail_is_p99_when_ten_samples_lie_beyond_it():
    tail = tail_percentile(range(1, 1001))
    assert (tail.level, tail.value, tail.beyond, tail.n) == (99.0, 990, 10, 1000)


def test_tail_steps_down_to_the_highest_supported_level():
    # 999 samples: p99 is rank 990 with 9 beyond, so p95 is reported.
    tail = tail_percentile(range(1, 1000))
    assert (tail.level, tail.value, tail.beyond) == (95.0, 950, 49)


def test_tail_uses_p999_with_ten_thousand_samples():
    tail = tail_percentile(range(10_000))
    assert (tail.level, tail.beyond, tail.n) == (99.9, 10, 10_000)


def test_tail_of_twenty_samples_is_the_median():
    tail = tail_percentile(range(20))
    assert (tail.level, tail.beyond, tail.n) == (50.0, 10, 20)


def test_small_sample_falls_back_to_the_median_with_its_count():
    tail = tail_percentile([5.0, 1.0, 3.0, 2.0, 4.0, 6.0])
    assert tail.level == 50.0
    assert tail.value == 3.5
    assert tail.beyond < 10
    assert tail.n == 6


def test_tail_rejects_empty_input():
    with pytest.raises(ValueError):
        tail_percentile([])


# -- self-time ---------------------------------------------------------
def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        Span(1, "parent", 0.0, 10.0, None, "r"),
        Span(2, "a", 1.0, 4.0, 1, "r"),
        Span(3, "b", 3.0, 6.0, 1, "r"),   # overlaps a on [3, 4]
        Span(4, "c", 8.0, 12.0, 1, "r"),  # runs past the parent's end
        Span(5, "grandchild", 1.5, 2.0, 2, "r"),
    ]
    selfs = self_times(spans)
    # children cover [1, 6] and [8, 10] of the parent: 7 of 10 seconds
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(2.5)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(0.5)


def test_tracer_nests_spans_and_restores_wrapped_functions():
    class Target:
        def work(self, x):
            return x * 2

    tracer = Tracer("run-1")
    original = Target.work
    tracer.wrap(Target, "work", "target.work")
    with tracer.span("outer"):
        assert Target().work(21) == 42
    tracer.restore()
    assert Target.work is original
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("target.work", "outer")
    assert inner.parent == outer.id and outer.parent is None
    assert {span.run for span in tracer.spans} == {"run-1"}
    summary = tracer.summary()
    assert summary["outer"]["self_s"] <= summary["outer"]["total_s"]


def test_tracer_restores_classmethods():
    class Target:
        @classmethod
        def make(cls, value):
            return cls, value

    tracer = Tracer("run-2")
    tracer.wrap(Target, "make", "target.make")
    assert Target.make(3) == (Target, 3)
    tracer.restore()
    assert isinstance(vars(Target)["make"], classmethod)
    assert [span.name for span in tracer.spans] == ["target.make"]


# -- failed_frac -------------------------------------------------------
def test_failed_frac_counts_failures_against_attempts():
    assert failed_frac(2500, 0) == 0.0
    assert failed_frac(8, 2) == 0.25
    assert failed_frac(6, 6) == 1.0


@pytest.mark.parametrize("attempted, failed", [(0, 0), (5, 6), (5, -1)])
def test_failed_frac_rejects_impossible_counts(attempted, failed):
    with pytest.raises(ValueError):
        failed_frac(attempted, failed)


# -- metric names ------------------------------------------------------
@pytest.mark.parametrize("name", ["setup_s", "soa.store_s", "figures.F3bc_s",
                                  "op-p50", "0rounds"])
def test_valid_metric_names(name):
    assert check_metric_name(name) == name


@pytest.mark.parametrize("name", ["", "rounds/s", "p99 ms", "_x", ".x",
                                  "a" * 65, "latency(ms)"])
def test_invalid_metric_names(name):
    with pytest.raises(ValueError):
        check_metric_name(name)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads(
        (Path(run.__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text()
    )
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
