import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import metricregions
from metricregions import rng
from metricregions.cli import main
from metricregions.errors import SchemaError
from metricregions.metrics import MetricKind
from metricregions.regions import (
    HomoscedasticRegionModel,
    fit_conformalized_hetero,
    fit_heteroscedastic_knn,
    fit_homoscedastic,
    tune_k_marginal,
)
from metricregions.regression import (
    LabeledDataset,
    MeanSpec,
    SplitConfig,
    fit_knn_frechet,
    split_dataset,
    split_three,
)
from metricregions.simulate import Setting1, WassersteinExample, generate, predictor_range
from metricregions.storage import (
    FORMAT_VERSION,
    MODELS_FORMAT,
    REGIONS_FORMAT,
    REPORT_FORMAT,
    read_models_json,
    read_queries_csv,
    write_dataset_csv,
    write_models_json,
)

from json_reference import ref_jsonify, reference_dumps


def _write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# simulate


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = _write_config(tmp_path / "c.ini", "[data]\nscenario = setting4\nn = 10\n")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(["simulate", "--config", cfg, "--seed", 7, "--out", out1]) == 0
    assert _run(["simulate", "--config", cfg, "--seed", 7, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().splitlines()[0] == "x_1,y_1"


def test_simulate_gaussian_header(tmp_path):
    cfg = _write_config(
        tmp_path / "c.ini",
        "[data]\nscenario = gaussian\nn = 5\nresponse_dim = 2\npredictor_dim = 1\n",
    )
    out = tmp_path / "g.csv"
    assert _run(["simulate", "--config", cfg, "--seed", 1, "--out", out]) == 0
    assert out.read_text().splitlines()[0] == "x_1,y_1,y_2"


def test_simulate_distributional_column_count(tmp_path):
    cfg = _write_config(tmp_path / "c.ini", "[data]\nscenario = wasserstein\nn = 4\n")
    out = tmp_path / "w.csv"
    assert _run(["simulate", "--config", cfg, "--seed", 2, "--out", out]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert len(header) == 1 + 101
    assert header[0] == "x_1" and header[1].startswith("q_")


# ---------------------------------------------------------------------------
# fit / predict


@pytest.fixture()
def fitted_bundle(tmp_path):
    data_cfg = _write_config(tmp_path / "data.ini", "[data]\nscenario = setting1\nn = 80\n")
    csv_path = tmp_path / "train.csv"
    assert _run(["simulate", "--config", data_cfg, "--seed", 5, "--out", csv_path]) == 0
    fit_cfg = _write_config(
        tmp_path / "fit.ini",
        f"""
[data]
input = {csv_path}

[model]
algorithm = homoscedastic
alpha = 0.2, 0.05
mean = knn
mean_k = 6
""",
    )
    bundle = tmp_path / "models.json"
    assert _run(["fit", "--config", fit_cfg, "--seed", 5, "--out", bundle]) == 0
    return csv_path, bundle


def test_fit_predict_on_training_file(fitted_bundle, tmp_path):
    csv_path, bundle = fitted_bundle
    predict_cfg = _write_config(
        tmp_path / "p.ini", f"[predict]\nmodel = {bundle}\nqueries = {csv_path}\n"
    )
    regions_path = tmp_path / "regions.json"
    assert _run(["predict", "--config", predict_cfg, "--out", regions_path]) == 0
    doc = json.loads(regions_path.read_text())
    entries = doc["regions"]
    assert len(entries) == 80 * 2  # two alpha levels per query
    for entry in entries:
        assert entry["radius"] >= 0.0
        assert all(math.isfinite(v) for v in entry["center"]["values"])


def test_predict_round_trip_is_identical(fitted_bundle, tmp_path):
    csv_path, bundle = fitted_bundle
    reloaded = tmp_path / "reloaded.json"
    write_models_json(reloaded, read_models_json(bundle))
    assert reloaded.read_bytes() == bundle.read_bytes()
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for source, out in ((bundle, out1), (reloaded, out2)):
        cfg = _write_config(
            tmp_path / f"p_{out.stem}.ini",
            f"[predict]\nmodel = {source}\nqueries = {csv_path}\n",
        )
        assert _run(["predict", "--config", cfg, "--out", out]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_tie_heavy_bundle_reloads_bitwise(tmp_path):
    seed = 21
    data = generate(Setting1(), 400, seed)
    lattice = LabeledDataset(np.round(data.predictors, 2), data.response_values)
    train, calib = split_dataset(lattice, SplitConfig(0.5, seed))
    model = fit_heteroscedastic_knn(
        train, calib, 0.2, 9, MeanSpec("knn", k=6), MetricKind.EUCLIDEAN_L2, seed=seed
    )
    queries = np.round(rng.stream(seed, "lattice-queries").uniform(0.0, 5.0, (300, 1)), 2)
    # neighbour ties decide these centres: a mean with other jitter moves them
    other = fit_knn_frechet(train, 6, MetricKind.EUCLIDEAN_L2, seed + 1)
    assert not np.array_equal(other.predict_values(queries), model.center_values(queries))
    path = tmp_path / "m.json"
    write_models_json(path, [model])
    (reloaded,) = read_models_json(path)
    assert np.array_equal(reloaded.center_values(queries), model.center_values(queries))
    assert np.array_equal(reloaded.radii(queries), model.radii(queries))


def _full_row_kernel(tree, queries, k, jitter=None, reduce=None):
    # every row ordered over all n points by (direct squared distance,
    # jitter, index), in one block
    points, n = tree.data, tree.n
    idx = np.empty((queries.shape[0], k), dtype=np.intp)
    for r, q in enumerate(queries):
        d2 = sum((points[:, j] - q[j]) ** 2 for j in range(points.shape[1]))
        keys = (np.arange(n), d2) if jitter is None else (np.arange(n), jitter(q), d2)
        idx[r] = np.lexsort(keys)[:k]
    return idx if reduce is None else reduce(idx, np.arange(queries.shape[0]))


def test_tuned_lattice_fit_matches_full_row_kernel(tmp_path, monkeypatch):
    import metricregions.regions as regions
    import metricregions.regression as regression

    # WassersteinExample rows with predictors rounded to a 0.01 lattice:
    # nearly every neighbour search row takes the kernel's tie fallback
    data = generate(WassersteinExample(), 300, 8)
    lattice = LabeledDataset(np.round(data.predictors, 2), data.response_values, data.quantile_grid)
    write_dataset_csv(tmp_path / "w.csv", lattice)
    cfg = _write_config(
        tmp_path / "f.ini",
        f"[data]\ninput = {tmp_path / 'w.csv'}\n\n[model]\nalgorithm = hetero-tuned\nalpha = 0.1\n",
    )
    assert _run(["fit", "--config", cfg, "--seed", 8, "--out", tmp_path / "kernel.json"]) == 0
    monkeypatch.setattr(regions, "nearest_neighbors", _full_row_kernel)
    monkeypatch.setattr(regression, "nearest_neighbors", _full_row_kernel)
    assert _run(["fit", "--config", cfg, "--seed", 8, "--out", tmp_path / "oracle.json"]) == 0
    assert (tmp_path / "kernel.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()


def test_bundle_with_dropped_fields_predicts_the_same(fitted_bundle, tmp_path):
    csv_path, bundle = fitted_bundle
    doc = json.loads(bundle.read_text())
    for entry in doc["models"]:
        entry["randomized_ties"] = False
        entry["seed"] = 5
    for mean in doc["means"]:
        n_train = len(mean["training"]["predictors"])
        mean["tie_jitter"] = rng.stream(mean["seed"], "knn-ties").random(n_train).tolist()
    doc["calibrations"].append({"predictors": [[0.0]], "residuals": [1.0], "seed": 0, "k": 3})
    legacy = tmp_path / "legacy.json"
    legacy.write_text(json.dumps(doc), encoding="utf-8")
    outs = []
    for source in (bundle, legacy):
        cfg = _write_config(
            tmp_path / f"p_{source.stem}.ini",
            f"[predict]\nmodel = {source}\nqueries = {csv_path}\n",
        )
        out = tmp_path / f"r_{source.stem}.json"
        assert _run(["predict", "--config", cfg, "--out", out]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_predict_radii_nondecreasing_as_alpha_shrinks(fitted_bundle, tmp_path):
    csv_path, bundle = fitted_bundle
    cfg = _write_config(
        tmp_path / "p.ini", f"[predict]\nmodel = {bundle}\nqueries = {csv_path}\n"
    )
    regions_path = tmp_path / "regions.json"
    assert _run(["predict", "--config", cfg, "--out", regions_path]) == 0
    entries = json.loads(regions_path.read_text())["regions"]
    for i in range(0, len(entries), 2):
        loose, tight = entries[i], entries[i + 1]
        assert loose["alpha"] == 0.2 and tight["alpha"] == 0.05
        assert loose["query"] == tight["query"]
        assert tight["radius"] >= loose["radius"]


_FOLD_CONFIG = """
[data]
scenario = setting1
n = 240

[model]
algorithm = {algorithm}
alpha = 0.2, 0.1
{mean}
k = 15
k_grid = 10, 20, 40
"""


def _direct_models(algorithm, seed):
    data = generate(Setting1(), 240, seed)
    metric, mean, alphas = MetricKind.EUCLIDEAN_L2, MeanSpec("knn", k=8), (0.2, 0.1)
    if algorithm == "conformal-hetero":
        train, calib, conformal = split_three(data, 0.5, 0.25, seed)
        return [
            fit_conformalized_hetero(train, calib, conformal, a, 15, mean, metric, seed=seed)
            for a in alphas
        ]
    train, calib = split_dataset(data, SplitConfig(0.5, seed))
    if algorithm == "hetero-tuned":
        # the mean k is picked by leave-one-out, then the radius k per alpha
        mean, grid = MeanSpec("knn", k_grid=(4, 8, 16)), (10, 20, 40)
        return [
            tune_k_marginal(
                fit_heteroscedastic_knn(train, calib, a, grid[0], mean, metric, seed=seed), grid, calib
            ).model
            for a in alphas
        ]
    if algorithm == "hetero-knn":
        return [
            fit_heteroscedastic_knn(train, calib, a, 15, mean, metric, seed=seed) for a in alphas
        ]
    return [fit_homoscedastic(train, calib, a, mean, metric, seed=seed) for a in alphas]


@pytest.mark.parametrize(
    "algorithm", ["homoscedastic", "hetero-knn", "hetero-tuned", "conformal-hetero"]
)
def test_fit_bundle_matches_direct_public_calls(tmp_path, algorithm):
    seed = 13
    mean = "mean_k_grid = 4, 8, 16" if algorithm == "hetero-tuned" else "mean_k = 8"
    cfg = _write_config(
        tmp_path / "f.ini", _FOLD_CONFIG.format(algorithm=algorithm, mean=mean)
    )
    bundle, expected = tmp_path / "cli.json", tmp_path / "direct.json"
    assert _run(["fit", "--config", cfg, "--seed", seed, "--out", bundle]) == 0
    write_models_json(expected, _direct_models(algorithm, seed))
    assert bundle.read_bytes() == expected.read_bytes()


def test_hetero_tuned_selects_the_mean_k_once(tmp_path, monkeypatch):
    import metricregions.regression as regression

    calls = []
    real = regression.loo_select_k

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(regression, "loo_select_k", counting)
    cfg = _write_config(
        tmp_path / "f.ini",
        "[data]\nscenario = setting1\nn = 400\n\n"
        "[model]\nalgorithm = hetero-tuned\nalpha = 0.2, 0.1, 0.05\n",
    )
    assert _run(["fit", "--config", cfg, "--seed", 3, "--out", tmp_path / "m.json"]) == 0
    assert len(calls) == 1
    models = read_models_json(tmp_path / "m.json")
    assert len(models) == 3 and len({m.mean.k for m in models}) == 1


def test_predict_computes_centres_once_per_distinct_mean(fitted_bundle, tmp_path, monkeypatch):
    from metricregions.regression import KnnFrechetModel

    csv_path, bundle = fitted_bundle
    models = read_models_json(bundle)
    assert len(models) == 2 and models[0].mean is models[1].mean
    rows = []
    real = KnnFrechetModel.predict_values

    def counting(self, queries):
        out = real(self, queries)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(KnnFrechetModel, "predict_values", counting)
    cfg = _write_config(tmp_path / "p.ini", f"[predict]\nmodel = {bundle}\nqueries = {csv_path}\n")
    assert _run(["predict", "--config", cfg, "--out", tmp_path / "r.json"]) == 0
    assert rows == [80]


_THREE_ALPHA_CONFIG = (
    "[data]\nscenario = setting1\nn = 240\n\n"
    "[model]\nalgorithm = hetero-knn\nalpha = 0.2, 0.1, 0.05\nmean_k = 6\nk = 15\n"
)


def test_hetero_knn_fit_computes_calibration_centres_once(tmp_path, monkeypatch):
    from metricregions.regression import KnnFrechetModel

    rows = []
    real = KnnFrechetModel.predict_values

    def counting(self, queries):
        out = real(self, queries)
        rows.append(out.shape[0])
        return out

    monkeypatch.setattr(KnnFrechetModel, "predict_values", counting)
    cfg = _write_config(tmp_path / "f.ini", _THREE_ALPHA_CONFIG)
    assert _run(["fit", "--config", cfg, "--seed", 4, "--out", tmp_path / "m.json"]) == 0
    assert rows == [120]  # the calibration half, once for three alphas
    assert [m.alpha for m in read_models_json(tmp_path / "m.json")] == [0.2, 0.1, 0.05]


@pytest.mark.parametrize("algorithm", ["hetero-knn", "conformal-hetero"])
def test_bundle_holds_each_mean_and_store_once(tmp_path, algorithm):
    cfg = _write_config(tmp_path / "f.ini", _THREE_ALPHA_CONFIG.replace("hetero-knn", algorithm))
    bundle = tmp_path / "m.json"
    assert _run(["fit", "--config", cfg, "--seed", 4, "--out", bundle]) == 0
    doc = json.loads(bundle.read_text())
    assert len(doc["models"]) == 3
    assert len(doc["means"]) == 1 and len(doc["calibrations"]) == 1
    models = read_models_json(bundle)
    for model in models[1:]:
        assert model.mean is models[0].mean
        assert model.calibration_predictors is models[0].calibration_predictors
        assert model.calibration_residuals is models[0].calibration_residuals


def _count_searches(monkeypatch) -> list:
    """A list that gains one entry per ``nearest_neighbors`` call."""
    import metricregions.regions as regions
    import metricregions.regression as regression

    searches = []
    real = regression.nearest_neighbors

    def counting(*args, **kwargs):
        searches.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(regions, "nearest_neighbors", counting)
    monkeypatch.setattr(regression, "nearest_neighbors", counting)
    return searches


def test_predict_searches_once_per_calibration_store(tmp_path, monkeypatch):
    cfg = _write_config(tmp_path / "f.ini", _THREE_ALPHA_CONFIG)
    bundle, queries = tmp_path / "m.json", tmp_path / "q.csv"
    assert _run(["fit", "--config", cfg, "--seed", 4, "--out", bundle]) == 0
    assert _run(["simulate", "--config", cfg, "--seed", 5, "--out", queries]) == 0
    searches = _count_searches(monkeypatch)
    _predict(tmp_path, bundle, queries)
    # one search for the centres, one for the radii of all three alphas
    assert len(searches) == 2


@pytest.mark.parametrize("algorithm", ["hetero-knn", "conformal-hetero"])
def test_evaluate_searches_once_per_mean_and_store(tmp_path, monkeypatch, algorithm):
    bundle = tmp_path / "m.json"
    cfg = _write_config(
        tmp_path / "f.ini",
        _THREE_ALPHA_CONFIG.replace("hetero-knn", algorithm)
        + f"\n[evaluate]\nmodel = {bundle}\neval_n = 200\nmc_draws = 0\n",
    )
    assert _run(["fit", "--config", cfg, "--seed", 4, "--out", bundle]) == 0
    searches = _count_searches(monkeypatch)
    assert _run(["evaluate", "--config", cfg, "--seed", 5, "--out", tmp_path / "ev.json"]) == 0
    # one search for the centres, one for the radii of all three alphas
    assert len(searches) == 2


def test_conformal_fit_searches_once_per_split(tmp_path, monkeypatch):
    cfg = _write_config(
        tmp_path / "f.ini", _THREE_ALPHA_CONFIG.replace("hetero-knn", "conformal-hetero")
    )
    searches = _count_searches(monkeypatch)
    assert _run(["fit", "--config", cfg, "--seed", 4, "--out", tmp_path / "m.json"]) == 0
    # calibration centres, conformal centres, and the conformal radii of
    # all three alphas
    assert len(searches) == 3


def test_tuned_predict_searches_once_per_store_across_k(tmp_path, monkeypatch):
    cfg = _write_config(
        tmp_path / "f.ini",
        "[data]\nscenario = setting2\nn = 1200\n\n"
        "[model]\nalgorithm = hetero-tuned\nalpha = 0.3, 0.1, 0.02\nk_grid = 10, 40, 160\n",
    )
    bundle, queries = tmp_path / "m.json", tmp_path / "q.csv"
    assert _run(["fit", "--config", cfg, "--seed", 4, "--out", bundle]) == 0
    assert len({m.k for m in read_models_json(bundle)}) >= 2
    assert _run(["simulate", "--config", cfg, "--seed", 5, "--out", queries]) == 0
    searches = _count_searches(monkeypatch)
    _predict(tmp_path, bundle, queries)
    # one search for the centres, one for the radii of every alpha and k
    assert len(searches) == 2


def test_out_of_range_alpha_is_config_error(tmp_path, capsys):
    # alphas past the first are copies of the first fit, so each is checked
    cfg = _write_config(
        tmp_path / "f.ini",
        "[data]\nscenario = setting1\nn = 240\n\n"
        "[model]\nalgorithm = hetero-knn\nalpha = 0.2, 1.5\nmean_k = 6\nk = 15\n",
    )
    assert _run(["fit", "--config", cfg, "--out", tmp_path / "m.json"]) == 2
    assert "alpha=1.5 outside (0, 1)" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


# ---------------------------------------------------------------------------
# byte contract: every JSON file equals the stdlib reference encoding


def _reference_regions(bundle, queries_csv) -> bytes:
    """The regions file as the per-row writer built it: one dict per
    (query, model), then the stdlib encoder."""
    models = sorted(read_models_json(bundle), key=lambda m: -m.alpha)
    queries = read_queries_csv(queries_csv)
    columns = [(m, m.center_values(queries), m.radii(queries)) for m in models]
    rows = [
        {
            "query": queries[i],
            "alpha": float(m.alpha),
            "region_metric": m.region_metric.value,
            "center": {"quantile_grid": m.mean.quantile_grid, "values": centers[i]},
            "radius": float(radii[i]),
        }
        for i in range(queries.shape[0])
        for m, centers, radii in columns
    ]
    return reference_dumps({"format": REGIONS_FORMAT, "version": FORMAT_VERSION, "regions": rows})


def _predict(tmp_path, bundle, queries_csv):
    cfg = _write_config(
        tmp_path / "p.ini", f"[predict]\nmodel = {bundle}\nqueries = {queries_csv}\n"
    )
    out = tmp_path / "regions.json"
    assert _run(["predict", "--config", cfg, "--out", out]) == 0
    return out.read_bytes()


_BYTE_BUNDLES = {
    # quantile-grid centres under the sup distance between quantile functions
    "wasserstein-quantile-sup": (
        "wasserstein", "algorithm = hetero-knn\nalpha = 0.2, 0.1\nmean_k = 6\nk = 15\n"
        "region_metric = quantile-sup\n",
    ),
    # alpha = 0.01 at k = 10 asks for a rank past k: every local radius is infinite
    "infinite-radii": (
        "setting2", "algorithm = hetero-knn\nalpha = 0.2, 0.01\nmean_k = 6\nk = 10\n",
    ),
    "conformal-hetero": (
        "setting1", "algorithm = conformal-hetero\nalpha = 0.2, 0.05\nmean_k = 6\nk = 20\n",
    ),
    "homoscedastic-global": (
        "setting3", "algorithm = homoscedastic\nalpha = 0.2, 0.1\nmean = global\n",
    ),
    # three alphas share one radius search; ceil(11 * 0.99) passes k = 10
    "hetero-knn-three-alphas": (
        "setting2", "algorithm = hetero-knn\nalpha = 0.2, 0.1, 0.01\nmean_k = 6\nk = 10\n",
    ),
    "conformal-hetero-three-alphas": (
        "setting1", "algorithm = conformal-hetero\nalpha = 0.2, 0.1, 0.05\nmean_k = 6\nk = 20\n",
    ),
}


@pytest.mark.parametrize("case", sorted(_BYTE_BUNDLES))
def test_predict_bytes_match_per_row_reference(tmp_path, case):
    scenario, model = _BYTE_BUNDLES[case]
    cfg = _write_config(
        tmp_path / "f.ini", f"[data]\nscenario = {scenario}\nn = 160\n\n[model]\n{model}"
    )
    bundle, queries = tmp_path / "m.json", tmp_path / "q.csv"
    assert _run(["fit", "--config", cfg, "--seed", 8, "--out", bundle]) == 0
    assert _run(["simulate", "--config", cfg, "--seed", 9, "--out", queries]) == 0
    got = _predict(tmp_path, bundle, queries)
    assert got == _reference_regions(bundle, queries)
    if case in ("infinite-radii", "hetero-knn-three-alphas"):
        assert b'"radius": "inf"' in got


def test_predict_bytes_match_reference_on_one_query(fitted_bundle, tmp_path):
    csv_path, bundle = fitted_bundle
    one = tmp_path / "one.csv"
    one.write_text("x_1\n2.5\n", encoding="utf-8")
    assert _predict(tmp_path, bundle, one) == _reference_regions(bundle, one)


def test_predict_bytes_do_not_depend_on_the_row_block(fitted_bundle, tmp_path, monkeypatch):
    import metricregions.storage as storage

    csv_path, bundle = fitted_bundle
    assert 80 % 7 != 0
    monkeypatch.setattr(storage, "_ROW_BLOCK", 7)
    assert _predict(tmp_path, bundle, csv_path) == _reference_regions(bundle, csv_path)


@pytest.mark.parametrize(
    "algorithm", ["homoscedastic", "hetero-knn", "hetero-tuned", "conformal-hetero"]
)
def test_models_json_matches_stdlib_reference(tmp_path, algorithm):
    models = _direct_models(algorithm, 17)
    path = tmp_path / "m.json"
    write_models_json(path, models)
    assert path.read_bytes() == reference_dumps(_reference_bundle(models))


def _reference_bundle(models) -> dict:
    """The version 3 payload of kNN-mean models, built by hand: each
    distinct mean and calibration store once, compared by value, in
    order of first use, and an offset on every local-radius entry."""
    means, calibrations = [], []

    def index(table, block):
        block = ref_jsonify(block)
        if block not in table:
            table.append(block)
        return table.index(block)

    def entry(m):
        training = m.mean.training
        mean = {
            "kind": "knn",
            "k": m.mean.k,
            "fit_metric": m.mean.fit_metric.value,
            "seed": m.mean.seed,
            "training": {
                "predictors": training.predictors,
                "response_values": training.response_values,
                "quantile_grid": None,
            },
        }
        fields = {"alpha": m.alpha, "region_metric": m.region_metric.value, "mean": index(means, mean)}
        if isinstance(m, HomoscedasticRegionModel):
            return {"algorithm": "homoscedastic", "calibrated_radius": m.calibrated_radius, **fields}
        store = {
            "predictors": m.calibration_predictors,
            "residuals": m.calibration_residuals,
            "seed": m.seed,
        }
        calibration = index(calibrations, store)
        return {
            "algorithm": "heteroscedastic-knn",
            "k": m.k,
            "calibration": calibration,
            "offset": m.offset,
            **fields,
        }

    entries = [entry(m) for m in models]
    return {
        "format": MODELS_FORMAT,
        "version": 3,
        "means": means,
        "calibrations": calibrations,
        "models": entries,
    }


def _capture_reports(monkeypatch) -> list:
    import metricregions.cli as cli_module

    seen = []
    real = cli_module.write_report_json

    def capturing(path, report):
        real(path, report)
        seen.append((path, report))

    monkeypatch.setattr(cli_module, "write_report_json", capturing)
    return seen


def _assert_reports_match_reference(seen):
    assert seen
    for path, report in seen:
        expected = {"format": REPORT_FORMAT, "version": FORMAT_VERSION, **report}
        assert open(path, "rb").read() == reference_dumps(expected)


def test_evaluate_report_matches_stdlib_reference(fitted_bundle, tmp_path, monkeypatch):
    csv_path, bundle = fitted_bundle
    seen = _capture_reports(monkeypatch)
    cfg = _write_config(
        tmp_path / "e.ini",
        f"[evaluate]\nmodel = {bundle}\neval_input = {csv_path}\ncurves = {tmp_path / 'c.tsv'}\n",
    )
    assert _run(["evaluate", "--config", cfg, "--out", tmp_path / "report.json"]) == 0
    assert all(row["region_error"] is None for row in seen[0][1]["reports"])
    _assert_reports_match_reference(seen)


def test_replicate_report_matches_stdlib_reference(tmp_path, monkeypatch):
    seen = _capture_reports(monkeypatch)
    cfg = _write_config(
        tmp_path / "c.ini",
        _REPLICATE_CONFIG.format(
            bundle=tmp_path / "unused.json",
            curves=tmp_path / "e.tsv",
            b=2,
            rep_curves=tmp_path / "curves.tsv",
        ),
    )
    assert _run(["replicate", "--config", cfg, "--seed", 12, "--out", tmp_path / "rep.json"]) == 0
    assert (tmp_path / "curves.tsv").exists()
    _assert_reports_match_reference(seen)


# ---------------------------------------------------------------------------
# error channels


def test_malformed_csv_names_row_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    cfg = _write_config(
        tmp_path / "f.ini", f"[data]\ninput = {bad}\n\n[model]\nalgorithm = homoscedastic\nmean_k = 2\n"
    )
    for text, message in (
        ("x_1,y_1\n0.0,1.0\n1.0,2.0\n2.0,oops\n", "row 4, column 'y_1': 'oops' is not a number"),
        ("x_1,y_1\n0.0,1.0\n1.0\n", "row 3: expected 2 columns, found 1"),
        ("x_1,y_1\n", "no data rows after the header"),
    ):
        bad.write_text(text, encoding="utf-8")
        code = _run(["fit", "--config", cfg, "--out", tmp_path / "m.json"])
        err = capsys.readouterr().err
        assert code == 3
        assert message in err


def test_malformed_query_file_names_row_and_column(fitted_bundle, tmp_path, capsys):
    _, bundle = fitted_bundle
    bad = tmp_path / "q.csv"
    cfg = _write_config(tmp_path / "p.ini", f"[predict]\nmodel = {bundle}\nqueries = {bad}\n")
    for text, message in (
        ("x_1\n0.5\n1.5\nnope\n", "row 4, column 'x_1': 'nope' is not a number"),
        ("x_1,y_1\n0.5,1.0\n1.5\n", "row 3: expected 2 columns, found 1"),
        ("x_1\n", "no data rows after the header"),
    ):
        bad.write_text(text, encoding="utf-8")
        assert _run(["predict", "--config", cfg, "--out", tmp_path / "r.json"]) == 3
        err = capsys.readouterr().err
        assert message in err


def test_non_finite_query_file_is_data_error(fitted_bundle, tmp_path, capsys):
    _, bundle = fitted_bundle
    bad = tmp_path / "q.csv"
    cfg = _write_config(tmp_path / "p.ini", f"[predict]\nmodel = {bundle}\nqueries = {bad}\n")
    for text, message in (
        ("x_1\n0.5\nnan\n", "row 3, column 'x_1': nan is not finite"),
        ("x_1,x_2\n0.5,1.0\n1.5,-inf\n", "row 3, column 'x_2': -inf is not finite"),
        ("x_1,y_1\ninf,nan\n", "row 2, column 'x_1': inf is not finite"),
    ):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match=message):
            read_queries_csv(bad)
        assert _run(["predict", "--config", cfg, "--out", tmp_path / "r.json"]) == 3
        assert message in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def _with_two_rows(store):
    return {**store, "predictors": store["predictors"][:2], "residuals": store["residuals"][:2]}


_HOMOSCEDASTIC_ENTRY = {
    "algorithm": "homoscedastic",
    "alpha": 0.2,
    "calibrated_radius": 1.0,
    "mean": 0,
    "region_metric": "euclidean-l2",
}


def test_malformed_bundle_entry_is_data_error_naming_it(tmp_path, capsys):
    cfg = _write_config(tmp_path / "f.ini", _THREE_ALPHA_CONFIG)
    bundle, queries, bad = tmp_path / "m.json", tmp_path / "q.csv", tmp_path / "bad.json"
    assert _run(["fit", "--config", cfg, "--seed", 4, "--out", bundle]) == 0
    assert _run(["simulate", "--config", cfg, "--seed", 5, "--out", queries]) == 0
    # (table, index, new entry from the old one, the entry the error names)
    cases = (
        ("models", 0, lambda e: 5, "model 0"),
        ("models", 1, lambda e: {**e, "alpha": "x"}, "model 1"),
        ("models", 2, lambda e: {**e, "region_metric": "nope"}, "model 2"),
        ("means", 0, lambda e: {**e, "training": {**e["training"], "predictors": "abc"}}, "mean 0"),
        ("calibrations", 0, _with_two_rows, "model 0"),  # k = 15 past 2 rows
        ("means", 0, lambda e: {**e, "k": 121}, "mean 0"),  # 120 training rows
        ("models", 1, lambda e: {**e, "alpha": 1.5}, "model 1"),
        ("calibrations", 0, lambda e: {**e, "residuals": e["residuals"][:-1]}, "model 0"),
        # integer fields take JSON integers only: no float, no bool
        ("models", 2, lambda e: {**e, "k": 7.9}, "model 2"),
        ("models", 2, lambda e: {**e, "k": True}, "model 2"),
        ("calibrations", 0, lambda e: {**e, "seed": 2.5}, "calibration 0"),
        ("means", 0, lambda e: {**e, "k": 6.0}, "mean 0"),
        ("means", 0, lambda e: {**e, "seed": True}, "mean 0"),
        # an index names an entry of its table, and does not wrap around
        ("models", 1, lambda e: {**e, "mean": 1}, "model 1"),
        ("models", 1, lambda e: {**e, "mean": -1}, "model 1"),
        ("models", 1, lambda e: {**e, "mean": False}, "model 1"),
        ("models", 2, lambda e: {**e, "calibration": 0.0}, "model 2"),
        ("models", 2, lambda e: {**e, "calibration": -1}, "model 2"),
        # number fields take no bool
        ("models", 0, lambda e: {**e, "alpha": True}, "model 0"),
        ("models", 1, lambda e: {**_HOMOSCEDASTIC_ENTRY, "calibrated_radius": True}, "model 1"),
        ("models", 2, lambda e: {**e, "offset": False}, "model 2"),
        # every local-radius entry carries an offset, which may be infinite but not NaN
        ("models", 2, lambda e: {k: v for k, v in e.items() if k != "offset"}, "model 2"),
        ("models", 2, lambda e: {**e, "offset": "nan"}, "model 2"),
        # a homoscedastic entry checks its own alpha and radius
        ("models", 1, lambda e: {**_HOMOSCEDASTIC_ENTRY, "alpha": 1.5}, "model 1"),
        ("models", 1, lambda e: {**_HOMOSCEDASTIC_ENTRY, "calibrated_radius": "nan"}, "model 1"),
        ("models", 1, lambda e: {**_HOMOSCEDASTIC_ENTRY, "calibrated_radius": -1}, "model 1"),
        # calibration predictors are one row per point, even at p = 1
        ("calibrations", 0, lambda e: {**e, "predictors": [row[0] for row in e["predictors"]]}, "model 0"),
    )
    cfg = _write_config(tmp_path / "p.ini", f"[predict]\nmodel = {bad}\nqueries = {queries}\n")
    for table, index, mutate, named in cases:
        doc = json.loads(bundle.read_text())
        doc[table][index] = mutate(doc[table][index])
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert _run(["predict", "--config", cfg, "--out", tmp_path / "r.json"]) == 3, (table, index)
        assert f"data error: {named}: " in capsys.readouterr().err, (table, index)
    assert not (tmp_path / "r.json").exists()
    # the homoscedastic entry and the offsets above are well formed otherwise
    doc = json.loads(bundle.read_text())
    offsets = [{**doc["models"][0], "offset": v} for v in (0.5, "inf", "-inf")]
    doc["models"] += [_HOMOSCEDASTIC_ENTRY, *offsets]
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert _run(["predict", "--config", cfg, "--out", tmp_path / "r.json"]) == 0


def test_unknown_algorithm_is_config_error(tmp_path, capsys):
    cfg = _write_config(
        tmp_path / "f.ini",
        "[data]\nscenario = setting4\nn = 40\n\n[model]\nalgorithm = wizardry\n",
    )
    assert _run(["fit", "--config", cfg, "--out", tmp_path / "m.json"]) == 2
    assert "wizardry" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("mean", "global"), ("mean_k", "8")])
def test_hetero_tuned_rejects_mean_settings_it_cannot_use(tmp_path, capsys, key, value):
    cfg = _write_config(
        tmp_path / "f.ini",
        f"[data]\nscenario = setting4\nn = 40\n\n[model]\nalgorithm = hetero-tuned\n{key} = {value}\n",
    )
    assert _run(["fit", "--config", cfg, "--out", tmp_path / "m.json"]) == 2
    assert f"[model] {key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, named",
    [
        ("[model]\nmean_kk = 8\n", "[model] mean_kk"),
        ("[model]\nrandomized_ties = true\n", "[model] randomized_ties"),
        ("[modle]\nalpha = 0.1\n", "[modle]"),
        ("[model]\nfit_metric = euclidean-l2\n", "[model] fit_metric"),
    ],
)
def test_unknown_config_key_is_config_error(tmp_path, capsys, extra, named):
    cfg = _write_config(tmp_path / "f.ini", "[data]\nscenario = setting1\nn = 40\n\n" + extra)
    assert _run(["fit", "--config", cfg, "--out", tmp_path / "m.json"]) == 2
    err = capsys.readouterr().err
    assert named in err and "unknown" in err
    assert not (tmp_path / "m.json").exists()


def test_missing_required_key_is_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path / "c.ini", "[data]\nscenario = setting4\n")
    assert _run(["simulate", "--config", cfg, "--out", tmp_path / "d.csv"]) == 2
    assert "[data] n" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["alpha", "k_grid", "mean_k_grid"])
def test_list_key_without_items_is_config_error(tmp_path, capsys, key):
    cfg = _write_config(
        tmp_path / "f.ini",
        f"[data]\nscenario = setting4\nn = 40\n\n[model]\nalgorithm = hetero-tuned\n{key} = ,\n",
    )
    assert _run(["fit", "--config", cfg, "--out", tmp_path / "m.json"]) == 2
    assert f"[model] {key}: ',' is not a non-empty" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command", ["evaluate", "replicate"])
@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("grid_points", -1, "at least 2"),
        ("grid_points", 0, "at least 2"),
        ("grid_points", 1, "at least 2"),
        ("mc_draws", -3, "negative"),
    ],
)
def test_out_of_range_curve_settings_are_config_errors(tmp_path, capsys, command, key, value, reason):
    # checked before the (absent) bundle is read or any replicate runs
    sections = {"evaluate": f"model = {tmp_path / 'absent.json'}\neval_n = 40\n", "replicate": "replicates = 1\n"}
    sections[command] += f"{key} = {value}\n"
    text = "[data]\nscenario = setting4\nn = 40\n" + "".join(
        f"\n[{name}]\n{body}" for name, body in sections.items()
    )
    cfg = _write_config(tmp_path / "c.ini", text)
    assert _run([command, "--config", cfg, "--out", tmp_path / "r.json"]) == 2
    err = capsys.readouterr().err
    assert f"[{command}] {key}: must" in err and reason in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command, flag", [("fit", "--threads 2"), ("predict", "--seed 1")])
def test_flag_outside_its_subcommand_is_usage_error(tmp_path, capsys, command, flag):
    cfg = _write_config(tmp_path / "c.ini", "[data]\nscenario = setting4\nn = 40\n")
    with pytest.raises(SystemExit) as info:
        _run([command, "--config", cfg, *flag.split(), "--out", tmp_path / "o.json"])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_absent_config_file_is_config_error(tmp_path):
    assert _run(["simulate", "--config", tmp_path / "nope.ini", "--out", tmp_path / "d.csv"]) == 2


def test_stale_model_version_is_data_error(fitted_bundle, tmp_path, capsys):
    # version 1 held one copy of the mean and store per model, and version
    # 2 a nested entry per conformalized model: refit them
    _, bundle = fitted_bundle
    stale = tmp_path / "stale.json"
    cfg = _write_config(
        tmp_path / "p.ini", f"[predict]\nmodel = {stale}\nqueries = {stale}\n"
    )
    for version in (1, 2, 999):
        doc = json.loads(bundle.read_text())
        doc["version"] = version
        stale.write_text(json.dumps(doc), encoding="utf-8")
        assert _run(["predict", "--config", cfg, "--out", tmp_path / "r.json"]) == 3
        assert f"version {version} not supported (expected 3)" in capsys.readouterr().err


def _non_utf8_inputs(tmp_path):
    """A config, a bundle and a dataset CSV, each with a 0xff byte."""
    paths = {name: tmp_path / name for name in ("c.ini", "m.json", "d.csv")}
    paths["c.ini"].write_bytes(b"[data]\nscenario = setting1\nn = 40\n# \xff\n")
    paths["m.json"].write_bytes(b'{"format": "\xff"}\n')
    paths["d.csv"].write_bytes(b"x_1,y_1\n0.5,\xff\n")
    return paths


@pytest.mark.parametrize(
    "bad, command, code",
    [("c.ini", "simulate", 2), ("m.json", "predict", 3), ("d.csv", "fit", 3)],
)
def test_non_utf8_input_file_is_named_error(tmp_path, capsys, bad, command, code):
    paths = _non_utf8_inputs(tmp_path)
    cfg = paths["c.ini"] if bad == "c.ini" else _write_config(
        tmp_path / "ok.ini",
        f"[data]\ninput = {paths['d.csv']}\n\n[model]\nmean_k = 2\n\n"
        f"[predict]\nmodel = {paths['m.json']}\nqueries = {paths['d.csv']}\n",
    )
    assert _run([command, "--config", cfg, "--out", tmp_path / "out"]) == code
    err = capsys.readouterr().err
    assert str(paths[bad]) in err and "not UTF-8 text" in err
    assert not (tmp_path / "out").exists()


def test_numeric_failure_maps_to_exit_4(tmp_path, monkeypatch, capsys):
    import metricregions.cli as cli_module

    def boom(cfg, args):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setitem(cli_module._HANDLERS, "simulate", boom)
    cfg = _write_config(tmp_path / "c.ini", "[data]\nscenario = setting4\nn = 5\n")
    assert _run(["simulate", "--config", cfg, "--out", tmp_path / "d.csv"]) == 4
    assert "numeric failure" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate / replicate


_REPLICATE_CONFIG = """
[data]
scenario = setting4
n = 400

[model]
algorithm = homoscedastic
alpha = 0.2
mean = knn
mean_k = 10

[evaluate]
model = {bundle}
eval_n = 500
mc_draws = 300
curves = {curves}

[replicate]
replicates = {b}
eval_n = 500
mc_draws = 300
curves = {rep_curves}
"""


def test_replicate_of_one_matches_evaluate(tmp_path):
    base_seed = 99
    rep_seed = rng.derive_seed(base_seed, "replicate", 0)
    bundle = tmp_path / "m.json"
    cfg = _write_config(
        tmp_path / "c.ini",
        _REPLICATE_CONFIG.format(
            bundle=bundle, curves=tmp_path / "e.tsv", b=1, rep_curves=tmp_path / "r.tsv"
        ),
    )
    assert _run(["replicate", "--config", cfg, "--seed", base_seed, "--out", tmp_path / "rep.json"]) == 0
    assert _run(["fit", "--config", cfg, "--seed", rep_seed, "--out", bundle]) == 0
    assert _run(["evaluate", "--config", cfg, "--seed", rep_seed, "--out", tmp_path / "ev.json"]) == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    ev = json.loads((tmp_path / "ev.json").read_text())
    agg = rep["per_alpha"][0]
    single = ev["reports"][0]
    assert agg["marginal_coverage"]["mean"] == single["marginal_coverage"]
    assert agg["l2_error"]["mean"] == single["l2_error"]
    assert agg["region_error"]["mean"] == single["region_error"]
    assert agg["marginal_coverage"]["sd"] == 0.0


def test_replicate_reruns_are_byte_identical(tmp_path):
    cfg = _write_config(
        tmp_path / "c.ini",
        _REPLICATE_CONFIG.format(
            bundle=tmp_path / "unused.json",
            curves=tmp_path / "e.tsv",
            b=3,
            rep_curves=tmp_path / "curves.tsv",
        ),
    )
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert _run(["replicate", "--config", cfg, "--seed", 4, "--out", out]) == 0
        outs.append(out.read_bytes())
        outs.append((tmp_path / "curves.tsv").read_bytes())
    assert outs[0] == outs[2] and outs[1] == outs[3]


def test_replicate_threads_match_serial(tmp_path):
    cfg = _write_config(
        tmp_path / "c.ini",
        _REPLICATE_CONFIG.format(
            bundle=tmp_path / "unused.json",
            curves=tmp_path / "e.tsv",
            b=4,
            rep_curves=tmp_path / "curves.tsv",
        ),
    )
    serial, threaded = tmp_path / "s.json", tmp_path / "t.json"
    assert _run(["replicate", "--config", cfg, "--seed", 6, "--out", serial]) == 0
    assert _run(["replicate", "--config", cfg, "--seed", 6, "--threads", 4, "--out", threaded]) == 0
    assert serial.read_bytes() == threaded.read_bytes()


def test_replicate_output_depends_on_its_inputs_alone(tmp_path):
    # three alphas share one evaluation pass; repeats in one process and a
    # threaded run must not see anything a previous pass left behind
    cfg = _write_config(
        tmp_path / "c.ini",
        "[data]\nscenario = setting1\nn = 240\n\n"
        "[model]\nalgorithm = conformal-hetero\nalpha = 0.2, 0.1, 0.05\nmean_k = 6\nk = 10\n\n"
        "[replicate]\nreplicates = 3\neval_n = 300\nmc_draws = 300\n",
    )
    outs = []
    for i, threads in enumerate((1, 1, 2)):
        out = tmp_path / f"r{i}.json"
        assert _run(["replicate", "--config", cfg, "--seed", 8, "--threads", threads, "--out", out]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_replicate_report_is_fully_populated(tmp_path):
    cfg = _write_config(
        tmp_path / "c.ini",
        _REPLICATE_CONFIG.format(
            bundle=tmp_path / "unused.json",
            curves=tmp_path / "e.tsv",
            b=3,
            rep_curves=tmp_path / "curves.tsv",
        ).replace("setting4", "setting1"),
    )
    out = tmp_path / "rep.json"
    assert _run(["replicate", "--config", cfg, "--seed", 11, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert report["scenario"] == "setting1" and report["replicates"] == 3

    def walk(node):
        if isinstance(node, dict):
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)
        elif isinstance(node, float):
            assert not math.isnan(node)
        elif isinstance(node, str):
            assert node != "nan"

    for row in report["per_alpha"]:
        assert row["marginal_coverage"] is not None
        assert row["l2_error"] is not None
        assert row["region_error"] is not None
        walk(row)
    curves = (tmp_path / "curves.tsv").read_text().splitlines()
    assert curves[0].split("\t")[0] == "x"
    assert len(curves) == 1 + 101


def test_evaluate_accepts_dataset_file(fitted_bundle, tmp_path):
    csv_path, bundle = fitted_bundle
    cfg = _write_config(
        tmp_path / "e.ini",
        f"[evaluate]\nmodel = {bundle}\neval_input = {csv_path}\ncurves = {tmp_path / 'c.tsv'}\n",
    )
    out = tmp_path / "report.json"
    assert _run(["evaluate", "--config", cfg, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert len(report["reports"]) == 2
    for row in report["reports"]:
        assert 0.0 <= row["marginal_coverage"] <= 1.0
        assert row["region_error"] is None  # no scenario, no Monte Carlo
    header = (tmp_path / "c.tsv").read_text().splitlines()[0]
    assert header.split("\t") == ["x", "alpha_0.2", "alpha_0.05"]


def test_curves_grid_spans_the_scenario_or_the_eval_data(fitted_bundle, tmp_path):
    csv_path, bundle = fitted_bundle
    xs = read_queries_csv(csv_path)[:, 0]
    for scenario, (lo, hi) in (
        ("[data]\nscenario = setting1\n", predictor_range(Setting1())),
        ("", (xs.min(), xs.max())),
    ):
        curves = tmp_path / "c.tsv"
        cfg = _write_config(
            tmp_path / "e.ini",
            f"{scenario}[evaluate]\nmodel = {bundle}\neval_input = {csv_path}\n"
            f"grid_points = 17\ncurves = {curves}\n",
        )
        assert _run(["evaluate", "--config", cfg, "--out", tmp_path / "report.json"]) == 0
        x = [float(line.split("\t")[0]) for line in curves.read_text().splitlines()[1:]]
        assert x == np.linspace(lo, hi, 17).tolist()


# ---------------------------------------------------------------------------
# packaging and performance


def test_console_entry_point_help():
    exe = shutil.which("metricregions")
    if exe is None:
        cmd = [sys.executable, "-m", "metricregions", "--help"]
    else:
        cmd = [exe, "--help"]
    # ``-m`` searches the working directory: start where the imported package lives
    src = Path(metricregions.__file__).parents[1]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=src)
    assert proc.returncode == 0
    for name in ("simulate", "fit", "predict", "evaluate", "replicate"):
        assert name in proc.stdout


def test_bulk_prediction_throughput():
    # contract: a million scalar queries against a thousand-point
    # calibration store finish within a minute
    seed = 1234
    data = generate(Setting1(), 2000, seed)
    train, calib = split_dataset(data, SplitConfig(0.5, seed))
    assert calib.n == 1000
    hetero = fit_heteroscedastic_knn(
        train, calib, 0.2, 50, MeanSpec("knn", k=25), MetricKind.EUCLIDEAN_L2, seed=seed
    )
    homo = fit_homoscedastic(
        train, calib, 0.2, MeanSpec("knn", k=25), MetricKind.EUCLIDEAN_L2, seed=seed
    )
    queries = rng.stream(seed, "throughput").uniform(0.0, 5.0, (1_000_000, 1))
    start = time.perf_counter()
    radii = hetero.radii(queries)
    centers = homo.center_values(queries)
    flat = homo.radii(queries)
    elapsed = time.perf_counter() - start
    assert radii.shape == (1_000_000,) and centers.shape == (1_000_000, 1)
    assert np.all(flat == homo.calibrated_radius)
    assert elapsed < 60.0, f"bulk prediction took {elapsed:.1f}s"
