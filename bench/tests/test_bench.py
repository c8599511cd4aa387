"""Tests of the benchmark itself; run with ``python3 -m pytest bench/tests``.

They sit outside the package's ``testpaths`` and import the benchmark
modules from ``bench/`` and the program from ``src/``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from metricregions import cli  # noqa: E402


def test_self_time_subtracts_child_coverage():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, None, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("a.inner", 2.0, 3.0, 1, 0),
        S("b", 5.0, 9.0, 0, 0),
        S("b.x", 5.5, 7.0, 3, 0),
        S("b.y", 6.0, 8.0, 3, 0),  # overlaps b.x: the union counts once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.5, 2.0])


def test_layer_metrics_report_self_time_per_op():
    t = tracing.Tracer()
    S = tracing.Span
    t.spans = [
        S("cli.main", 0.0, 4.0, None, 0),
        S("metrics.rowwise_distance", 1.0, 2.0, 0, 0),
        S("cli.main", 4.0, 6.0, None, 1),
    ]
    m = t.layer_metrics(n_ops=2, count_ops=[0, 1])
    assert m["cli.main.self_s"] == pytest.approx((3.0 + 2.0) / 2)
    assert m["metrics.rowwise_distance.self_s"] == pytest.approx(0.5)
    assert set(m) == {name for name, _, _ in tracing.LAYER_METRICS}


@pytest.mark.parametrize(
    "n, rank, beyond",
    [(1, 1, 0), (10, 1, 9), (11, 1, 10), (12, 2, 10), (100, 90, 10), (1000, 990, 10)],
)
def test_op_tail_is_highest_percentile_with_ten_ops_beyond(n, rank, beyond):
    times = list(np.random.default_rng(n).permutation(np.arange(1, n + 1) / 10.0))
    value, percentile, ops_beyond = run.op_tail(times)
    assert value == rank / 10.0
    assert ops_beyond == beyond
    assert percentile == pytest.approx(100.0 * rank / n)


def test_brute_force_reference_on_five_points():
    x = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    y = np.array([[10.0], [20.0], [30.0], [40.0], [50.0]])
    residuals = np.array([5.0, 1.0, 3.0, 2.0, 4.0])
    q = np.array([[1.2], [2.5]])
    # q=1.2: distances 1.2, 0.2, 0.8, 1.8, 2.8 -> nearest two are x=1, x=2
    # q=2.5: x=2 and x=3 tie at 0.5 and come first; for k=2 the 2nd and 3rd
    # distances (0.5, 1.5) differ, so the row is kept
    centres, skip = workloads.reference_centres(x, y, 2, q)
    assert centres[:, 0].tolist() == [25.0, 35.0]
    assert skip.tolist() == [False, False]
    # k=3, alpha=0.5: the ceil(4 * 0.5) = 2nd smallest of the 3 nearest residuals
    # q=1.2 -> x=1,2,0 -> residuals 1, 3, 5 -> 3
    # q=2.5 -> x=2,3 then x=1 and x=4 tie at 1.5 -> skipped
    radii, skip = workloads.reference_radii(x, residuals, 3, 0.5, q)
    assert radii[0] == 3.0
    assert skip.tolist() == [False, True]
    # past the top rank every radius is infinite
    radii, _ = workloads.reference_radii(x, residuals, 3, 0.1, q)
    assert np.isposinf(radii).all()


@pytest.fixture
def small_predict(tmp_path):
    w = workloads.PredictBulk(tmp_path, seed=3, n_train=400, n_queries=80)
    w.setup()
    return w


def test_clean_predict_op_passes(small_predict):
    record = run.run_op(small_predict, 0)
    assert record.ok, record.problems
    assert record.sha256 is not None


def test_corrupted_output_counts_as_failed_op(small_predict, monkeypatch):
    real_main = cli.main

    def main_then_corrupt(argv):
        code = real_main(argv)
        path = small_predict.output_path
        payload = json.loads(path.read_text())
        for row in payload["regions"]:
            row["radius"] = row["radius"] * 1.001
        path.write_text(json.dumps(payload))
        return code

    monkeypatch.setattr(cli, "main", main_then_corrupt)
    monkeypatch.setattr(run, "MIN_OPS", 2)
    records = run.run_ops(small_predict, seconds=0.0)
    assert [r.ok for r in records] == [False, False]
    assert any("radii differ from brute force" in p for p in records[0].problems)


def test_nonzero_exit_counts_as_failed_op(small_predict, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: 3)
    record = run.run_op(small_predict, 0)
    assert not record.ok
    assert record.problems == ["exit code 3"]


def test_tracer_wraps_and_restores_names(small_predict):
    from metricregions import regions, storage

    originals = (cli.main, storage.write_regions_json, regions.HeteroscedasticRegionModel.radii)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main is not originals[0]
        record = run.run_op(small_predict, 0, tracer)
    finally:
        tracer.uninstall()
    assert record.ok, record.problems
    assert (cli.main, storage.write_regions_json, regions.HeteroscedasticRegionModel.radii) == originals
    m = tracer.layer_metrics(n_ops=1, count_ops=[0])
    assert m["regions.HeteroscedasticRegionModel.radii.rows"] == 2 * 80
    assert m["knn_rows_per_query"] == 2.0
    assert m["regions.tie_fallback_share"] == 0.0
    assert m["storage.write_regions_json.bytes"] == small_predict.output_path.stat().st_size


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
