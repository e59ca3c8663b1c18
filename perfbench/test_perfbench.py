"""Tests of the benchmark's own code: the tail-percentile rule, the self-time
arithmetic, and a tiny-size smoke run of each workload."""

import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import decwt.cli  # noqa: E402
import numpy as np  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (1, 50.0), (19, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10 ** 6, 99.0),
])
def test_tail_percentile_examples(n, expected):
    assert bw.tail_percentile(n) == expected


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in range(20, 3000, 7):
        p = bw.tail_percentile(n)
        values = list(range(n))
        assert n - (bw.percentile(values, p) + 1) >= 10, (n, p)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert bw.percentile(values, 50) == 50.0
    assert bw.percentile(values, 90) == 90.0
    assert bw.percentile(values[::-1], 99.5) == 100.0
    assert bw.percentile([3.0], 50) == 3.0


def test_self_time_subtracts_union_of_children():
    spans = [
        (0, "cli.main", 0.0, 10.0, None, 0),
        (1, "lse.step", 1.0, 3.0, 0, 0),
        (2, "lse.step", 2.0, 5.0, 0, 0),     # overlaps span 1
        (3, "gfunc.table", 9.0, 12.0, 0, 0),  # overhangs its parent
        (4, "master_eq.fft", 1.5, 2.5, 1, 0),  # grandchild of span 0
        (5, "svgplot.write", 20.0, 21.0, None, 1),
    ]
    selfs = bench_trace.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert bench_trace.covered_time(spans) == pytest.approx(11.0)


def test_tracer_nests_spans_and_restores_patches():
    original_main = decwt.cli.main
    original_fft2 = np.fft.fft2
    tracer = bench_trace.Tracer()
    with bench_trace.instrument(tracer):
        assert decwt.cli.main is not original_main
        tracer.call("cli.main", lambda: tracer.call("lse.step", lambda: None))
    assert decwt.cli.main is original_main
    assert np.fft.fft2 is original_fft2
    outer, inner = tracer.spans
    assert inner[4] == outer[0] and outer[4] is None


@pytest.mark.parametrize("name", ["grid-sparse", "grid-dense", "light"])
def test_smoke_end_to_end(name, tmp_path):
    metrics, attempted, failed, report = bw.end_to_end(
        name, seed=3, seconds=0.01, workdir=str(tmp_path), tiny=True, setup_repeats=1)
    assert failed == 0, report["failures"]
    assert report["fail_ratio"] == 0.0
    assert attempted > 1
    assert set(metrics) == {"setup_s", "work_per_s", "unit_s.p50", "unit_s.tail",
                            "peak_rss_mb", "max_rel_err", "pass_ratio"}
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", ["grid-dense", "light"])
def test_smoke_traced_accounts_for_wall_time(name, tmp_path):
    metrics, attempted, failed, report, spans = bw.traced(
        name, seed=4, seconds=0.01, workdir=str(tmp_path), tiny=True)
    assert failed == 0, report["failures"]
    assert set(metrics) == set(bw.LAYER_METRICS)
    assert spans
    assert report["layer_self_ms_plus_unaccounted"] == pytest.approx(
        metrics["trace.wall_ms"][0], rel=1e-9)
    if name == "grid-dense":
        assert metrics["master_eq.fft.calls"][0] == 2 * metrics["master_eq.step.count"][0]
        assert metrics["fields.ckpt_read.bytes"][0] > 0
    else:
        assert metrics["master_eq.step.count"][0] == 0
        assert metrics["lse.step.count"][0] > 0
