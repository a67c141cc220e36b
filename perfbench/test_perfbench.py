"""Metric arithmetic of the benchmark, on synthetic samples and spans.

No workload runs here.  Run with `python3 -m pytest perfbench`.
"""

import json
import os

import numpy as np
import pytest

import metrics


def make_spans(rows, facts=None):
    """Spans from (name, start, end, parent) rows; row i is span i."""
    names = sorted({r[0] for r in rows})
    return {
        "names": names,
        "name": np.array([names.index(r[0]) for r in rows]),
        "start": np.array([r[1] for r in rows], dtype=float),
        "end": np.array([r[2] for r in rows], dtype=float),
        "parent": np.array([r[3] for r in rows]),
        "flops": np.zeros(len(rows)),
        "nbytes": np.zeros(len(rows)),
        "facts": facts or {},
    }


def test_median_of_odd_and_even_sample_counts():
    assert metrics.median([3.0, 1.0, 2.0]) == 2.0
    assert metrics.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert metrics.median([7.5]) == 7.5
    with pytest.raises(ValueError):
        metrics.median([])


def test_error_rate_counts_failures_against_attempts():
    assert metrics.error_rate(8, 0) == 0.0
    assert metrics.error_rate(8, 2) == 0.25
    for attempted, failed in ((0, 0), (4, 5), (4, -1)):
        with pytest.raises(ValueError):
            metrics.error_rate(attempted, failed)


def test_end_to_end_takes_medians_and_pass_rate():
    out = metrics.end_to_end([2.0, 9.0, 3.0], [4.0, 5.0], [1.0, 1.2, 0.9, 5.0, 1.1], 120.5, 6, 0)
    assert out == {"run_s": 3.0, "cpu_s": 4.5, "setup_s": 1.1, "peak_rss_mb": 120.5,
                   "pass_rate": 1.0}
    assert metrics.end_to_end([1.0], [1.0], [1.0], 1.0, 8, 2)["pass_rate"] == 0.75


def test_union_length_merges_overlaps_and_clips():
    assert metrics.union_length([], 0.0, 10.0) == 0.0
    assert metrics.union_length([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == 5.0
    assert metrics.union_length([(-2, 1), (9, 12)], 0.0, 10.0) == 2.0
    assert metrics.union_length([(1, 9), (2, 3)], 0.0, 10.0) == 8.0


def test_self_time_subtracts_children_once():
    spans = make_spans([
        ("pipeline", 0.0, 10.0, -1),
        ("child", 1.0, 3.0, 0),
        ("child", 4.0, 6.0, 0),
        ("grandchild", 4.5, 5.5, 2),
    ])
    assert metrics.self_time(spans, 0) == pytest.approx(6.0)
    assert metrics.self_time(spans, 2) == pytest.approx(1.0)
    assert metrics.self_time(spans, 3) == pytest.approx(1.0)


def test_self_time_with_worker_thread_children():
    # a pipeline calls parallel_map, whose two items overlap on two threads
    spans = make_spans([
        ("pipeline", 0.0, 12.0, -1),
        ("experiments.parallel_map", 2.0, 10.0, 0),
        ("experiments.parallel_map.item", 2.0, 9.0, 1),
        ("experiments.parallel_map.item", 2.5, 10.0, 1),
    ])
    assert metrics.self_time(spans, 0) == pytest.approx(4.0)
    assert metrics.self_time(spans, 1) == pytest.approx(0.0)


def test_parallel_efficiency():
    # two workers, 8 s wall, items busy 7 + 7.5 s
    assert metrics.parallel_efficiency(14.5, 2 * 8.0) == pytest.approx(0.90625)
    assert metrics.parallel_efficiency(0.0, 0.0) == 0.0


def test_step_ffts_exclude_initial_transform_and_tail_checks():
    spans = make_spans([
        ("evolution.evolve", 0.0, 10.0, -1),
        ("spectral.values", 0.1, 0.2, 0),
        ("spectral.fft", 0.1, 0.2, 1),          # initial datum: not a step
        ("spectral.density", 1.0, 2.0, 0),
        ("spectral.fft", 1.0, 1.1, 3),
        ("spectral.fft", 1.2, 1.3, 3),
        ("spectral.fft", 2.0, 2.1, 0),          # called by the step kernel directly
        ("spectral.tail", 3.0, 4.0, 0),
        ("spectral.fft", 3.0, 3.5, 7),          # record-time tail check: not a step
        ("spectral.fft", 11.0, 12.0, -1),       # outside any evolve
    ])
    assert metrics.step_fft_rows(spans).tolist() == [4, 5, 6]


def synthetic_run():
    """Two traced passes of one pipeline: a map over two evolve items."""
    rows, facts = [], {}
    for offset in (0.0, 20.0):
        top = len(rows)
        rows.append(("experiments.run_illposedness_demo", offset, offset + 10.0, -1))
        rows.append(("experiments.parallel_map", offset + 1.0, offset + 9.0, top))
        facts[top + 1] = {"workers": 2}
        for nx, end in ((2048, 8.0), (4096, 9.0)):
            item = len(rows)
            rows.append(("experiments.parallel_map.item", offset + 1.0, offset + end, top + 1))
            rows.append(("evolution.evolve", offset + 1.0, offset + end, item))
            facts[item + 1] = {"steps": 1000, "nx": nx, "records": 17}
            for _ in range(5):
                rows.append(("spectral.fft", offset + 2.0, offset + 2.001, item + 1))
    return make_spans(rows, facts)


def test_layer_metrics_on_synthetic_passes():
    out = metrics.layer_metrics(synthetic_run(), passes=2, run_s=10.0, traced_run_s=11.0)
    assert out["evolution.steps"] == 2000
    assert out["evolution.records"] == 34
    assert out["evolution.evolve.calls"] == 2
    assert out["spectral.fft.calls"] == 10
    assert out["spectral.fft_per_step"] == 10 / 2000
    assert out["evolution.step_us.nx2048"] == pytest.approx(7000.0)
    assert out["evolution.step_us.nx4096"] == pytest.approx(8000.0)
    assert out["evolution.step_us.nx256"] == 0.0
    assert out["experiments.parallel_map.busy_s"] == pytest.approx(8.0)
    assert out["experiments.parallel_map.efficiency"] == pytest.approx(15.0 / 16.0)
    assert out["experiments.run_illposedness_demo.self_s"] == pytest.approx(2.0)
    assert out["experiments.scan_trilinear.self_s"] == 0.0
    assert out["trace.overhead"] == pytest.approx(1.1)


def test_layer_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = metrics.layer_metrics(synthetic_run(), passes=2, run_s=1.0, traced_run_s=1.0)
    assert list(out) == [m["name"] for m in spec["per_layer"]]
    e2e = metrics.end_to_end([1.0], [1.0], [1.0], 1.0, 1, 0)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
