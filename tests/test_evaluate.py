import gc
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest

from metricregions import rng
from metricregions.errors import EmptyEvalSet, InvalidConfig, MultivariateUnsupported
from metricregions.evaluate import (
    CoverageCurve,
    conditional_coverage_curve,
    coverage_indicators,
    evaluate_model,
    evaluate_models,
    l2_integrated_error,
    marginal_coverage,
    silverman_bandwidth,
    smooth_indicators,
    symmetric_difference_error,
)
from metricregions.metrics import EuclideanVector, MetricKind, rowwise_distance
from metricregions.regions import (
    fit_conformalized_hetero,
    fit_heteroscedastic_knn,
    fit_homoscedastic,
    tune_k_marginal,
)
from metricregions.regression import (
    ConstantMean,
    LabeledDataset,
    MeanSpec,
    SplitConfig,
    fit_mean,
    split_dataset,
    split_three,
)
from metricregions.simulate import (
    GaussianMulti,
    Setting1,
    Setting4,
    WassersteinExample,
    generate,
    oracle_contains,
    predictor_range,
)
from metricregions.storage import read_models_json, write_models_json


@dataclass(frozen=True)
class _FixedRadiusModel:
    """Callable stand-in: fixed center rule and constant radius."""

    radius: float
    alpha: float = 0.2
    region_metric: MetricKind = MetricKind.EUCLIDEAN_L2

    def center_values(self, queries):
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        return (q[:, 0] + 2.5)[:, None]  # the shift scenario's true center

    def radii(self, queries):
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        return np.full(q.shape[0], self.radius)


# ---------------------------------------------------------------------------
# marginal coverage


def test_infinite_radius_covers_everything():
    data = generate(Setting4(), 200, seed=1)
    assert marginal_coverage(_FixedRadiusModel(math.inf), data) == 1.0


def test_zero_radius_covers_nothing():
    data = generate(Setting4(), 200, seed=2)
    assert marginal_coverage(_FixedRadiusModel(0.0), data) == 0.0


def test_empty_eval_set_rejected():
    from types import SimpleNamespace

    empty = SimpleNamespace(
        n=0,
        predictors=np.empty((0, 1)),
        response_values=np.empty((0, 1)),
        quantile_grid=None,
    )
    with pytest.raises(EmptyEvalSet):
        marginal_coverage(_FixedRadiusModel(1.0), empty)


def test_split_conformal_mean_coverage_matches_exact_law():
    # with 999 calibration points the calibrated rank is 800/1000, so
    # expected coverage is exactly 0.800; averaging B replicates of
    # empirical coverage concentrates tightly around it
    alpha, B, n_eval = 0.2, 200, 2000
    coverages = np.empty(B)
    for b in range(B):
        seed = rng.derive_seed(606, "beta-binomial", b)
        data = generate(Setting4(), 1998, seed)
        train, calib = split_dataset(data, SplitConfig(0.5, seed))
        assert calib.n == 999
        model = fit_homoscedastic(
            train, calib, alpha, MeanSpec("knn", k=25), MetricKind.EUCLIDEAN_L2, seed=seed
        )
        eval_set = generate(Setting4(), n_eval, rng.derive_seed(seed, "eval"))
        coverages[b] = marginal_coverage(model, eval_set)
    per_rep_var = 0.8 * 0.2 / 1001 + 0.8 * 0.2 / n_eval
    band = 3.0 * math.sqrt(per_rep_var / B)
    mean = float(coverages.mean())
    assert 0.800 - band <= mean <= 0.801 + band


# ---------------------------------------------------------------------------
# smoothed conditional coverage


def test_constant_indicators_give_flat_curve(rng_np):
    x = rng_np.uniform(0, 5, 300)
    curve = smooth_indicators(x, np.ones(300), np.linspace(0, 5, 101))
    assert np.array_equal(curve.values, np.ones(101))


def test_bernoulli_indicators_concentrate(rng_np):
    n = 10_000
    x = rng_np.uniform(0, 5, n)
    ind = rng_np.random(n) < 0.8
    curve = smooth_indicators(x, ind, np.linspace(0, 5, 101))
    assert float(np.abs(curve.values - 0.8).max()) <= 0.05


def test_misspecified_global_radius_curve_slopes_down():
    # a constant radius over-covers where the true noise scale is small
    # (x near 0) and under-covers where it is large (x near 5)
    seed = 451
    data = generate(Setting1(), 4000, seed)
    train, calib = split_dataset(data, SplitConfig(0.5, seed))
    model = fit_homoscedastic(
        train, calib, 0.2, MeanSpec("knn", k=25), MetricKind.EUCLIDEAN_L2, seed=seed
    )
    eval_set = generate(Setting1(), 4000, rng.derive_seed(seed, "eval"))
    curve = conditional_coverage_curve(model, eval_set, np.array([0.5, 4.5]))
    assert curve.values[0] - curve.values[1] >= 0.05


def test_curve_rejects_multivariate_predictors():
    spec = GaussianMulti(response_dim=1, predictor_dim=2)
    data = generate(spec, 400, seed=4)
    train, calib = split_dataset(data, SplitConfig(0.5, seed=4))
    model = fit_homoscedastic(
        train, calib, 0.2, MeanSpec("knn", k=10), MetricKind.EUCLIDEAN_SUP
    )
    eval_set = generate(spec, 300, seed=5)
    with pytest.raises(MultivariateUnsupported):
        conditional_coverage_curve(model, eval_set)
    report = evaluate_model(model, eval_set)
    assert report.curve is None and report.l2_error is None
    assert 0.0 <= report.marginal_coverage <= 1.0


# ---------------------------------------------------------------------------
# integrated squared coverage error


def test_l2_error_zero_at_nominal():
    grid = np.linspace(0, 5, 101)
    assert l2_integrated_error(CoverageCurve(grid, np.full(101, 0.8)), 0.2) == 0.0


def test_l2_error_constant_one():
    grid = np.linspace(0, 5, 101)
    err = l2_integrated_error(CoverageCurve(grid, np.ones(101)), 0.2)
    assert abs(err - 0.2) <= 1e-12


def test_l2_error_sine_curve_analytic():
    # 0.01 * integral of sin^2 over [0,5] = 0.01 * (2.5 - sin(10)/4)
    expected = 0.01 * (2.5 - math.sin(10.0) / 4.0)
    grid = np.linspace(0, 5, 2001)
    err = l2_integrated_error(CoverageCurve(grid, 0.8 + 0.1 * np.sin(grid)), 0.2)
    assert abs(err - expected) <= 1e-3
    assert abs(expected - 0.0263601) <= 1e-6


def test_l2_error_stable_under_grid_refinement():
    vals = []
    for points in (101, 1001):
        grid = np.linspace(0, 5, points)
        vals.append(l2_integrated_error(CoverageCurve(grid, 0.8 + 0.1 * np.sin(grid)), 0.2))
    assert abs(vals[0] - vals[1]) < 1e-3


@pytest.mark.parametrize("grid_points", [-1, 0, 1])
def test_report_rejects_a_curve_of_fewer_than_two_points(grid_points):
    # a one-point curve integrates to 0 whatever its coverage
    data = generate(Setting4(), 200, seed=3)
    with pytest.raises(InvalidConfig, match="at least 2"):
        evaluate_model(_FixedRadiusModel(0.0), data, grid_points=grid_points)
    report = evaluate_model(_FixedRadiusModel(0.0), data, grid_points=2)
    assert report.marginal_coverage == 0.0 and report.l2_error > 0.0


# ---------------------------------------------------------------------------
# symmetric-difference region error


def test_region_error_zero_when_matching_oracle():
    # center x + 2.5 with radius 2.5 * 0.8 is exactly the oracle region
    model = _FixedRadiusModel(radius=2.0, alpha=0.2)
    err = symmetric_difference_error(model, Setting4(), mc_draws=20_000, seed=6)
    assert err == 0.0


def test_region_error_of_empty_region_is_oracle_mass():
    model = _FixedRadiusModel(radius=0.0, alpha=0.2)
    n = 50_000
    err = symmetric_difference_error(model, Setting4(), mc_draws=n, seed=7)
    assert abs(err - 0.8) <= 3.0 * math.sqrt(0.8 * 0.2 / n)


def test_region_error_of_vacuous_region_is_complement_mass():
    model = _FixedRadiusModel(radius=math.inf, alpha=0.2)
    n = 200_000
    err = symmetric_difference_error(model, Setting4(), mc_draws=n, seed=8)
    assert abs(err - 0.2) <= 3.0 * math.sqrt(0.8 * 0.2 / n)
    assert 0.0 <= err <= 1.0


def test_region_error_seed_determinism():
    model = _FixedRadiusModel(radius=1.0, alpha=0.2)
    a = symmetric_difference_error(model, Setting4(), mc_draws=5000, seed=9)
    b = symmetric_difference_error(model, Setting4(), mc_draws=5000, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# combined report


def test_report_carries_all_fields():
    seed = 88
    data = generate(Setting1(), 2000, seed)
    train, calib = split_dataset(data, SplitConfig(0.5, seed))
    model = fit_homoscedastic(
        train, calib, 0.2, MeanSpec("knn", k=20), MetricKind.EUCLIDEAN_L2, seed=seed
    )
    eval_set = generate(Setting1(), 1500, rng.derive_seed(seed, "eval"))
    report = evaluate_model(model, eval_set, spec=Setting1(), mc_draws=5000, seed=seed)
    assert report.n_eval == 1500
    assert 0.0 <= report.marginal_coverage <= 1.0
    assert report.curve is not None and report.curve.x.shape == (101,)
    assert report.curve.x[0] == 0.0 and report.curve.x[-1] == 5.0
    assert (report.curve.values >= 0.0).all() and (report.curve.values <= 1.0).all()
    assert report.l2_error is not None and report.l2_error >= 0.0
    assert report.region_error is not None and 0.0 <= report.region_error <= 1.0
    assert report.alpha == 0.2


def test_indicator_membership_uses_closed_balls():
    x = np.array([[1.0]])
    y = np.array([[5.5]])  # distance from center 3.5 is exactly the radius
    data = LabeledDataset(x, y)
    assert coverage_indicators(_FixedRadiusModel(2.0), data).all()


# ---------------------------------------------------------------------------
# one evaluation pass over a bundle, against a per-model oracle


def _oracle_indicators(model, data):
    centers = model.center_values(data.predictors)
    resid = rowwise_distance(model.region_metric, data.response_values, centers, data.quantile_grid)
    return resid <= model.radii(data.predictors)


def _oracle_report(model, eval_set, grid_points, spec, mc_draws, seed) -> dict:
    """Each model on its own: its indicators, then a kernel built for it
    alone, as evaluation ran before models shared one pass."""
    ind = _oracle_indicators(model, eval_set)
    out = {"alpha": float(model.alpha), "n_eval": eval_set.n, "marginal": float(ind.mean())}
    if eval_set.p == 1:
        xs = eval_set.predictors[:, 0]
        lo, hi = predictor_range(spec) if spec is not None else (float(xs.min()), float(xs.max()))
        x_grid = np.linspace(lo, hi, grid_points)
        u = (x_grid[:, None] - xs[None, :]) / silverman_bandwidth(xs)
        weights = np.exp(-0.5 * np.square(u))
        indf = ind.astype(np.float64)
        denom = weights @ np.ones_like(indf)
        numer = weights @ indf
        values = np.full(x_grid.size, indf.mean())
        ok = denom > 0.0
        values[ok] = numer[ok] / denom[ok]
        values = np.clip(values, 0.0, 1.0)
        out["curve_x"], out["curve_values"] = x_grid, values
        out["l2"] = float(np.trapezoid(np.square(values - (1.0 - model.alpha)), x_grid))
    if spec is not None and mc_draws > 0:
        data = generate(spec, mc_draws, rng.derive_seed(seed, "region-error"))
        truth = oracle_contains(spec, data.predictors, data.response_values, float(model.alpha))
        out["region_error"] = float(np.mean(_oracle_indicators(model, data) != truth))
    return out


def _bits(value):
    return None if value is None else np.asarray(value, dtype=np.float64).tobytes()


def _assert_bitwise(report, expected: dict) -> None:
    assert _bits(report.alpha) == _bits(expected["alpha"])
    assert report.n_eval == expected["n_eval"]
    assert _bits(report.marginal_coverage) == _bits(expected["marginal"])
    if "curve_x" in expected:
        assert _bits(report.curve.x) == _bits(expected["curve_x"])
        assert _bits(report.curve.values) == _bits(expected["curve_values"])
    else:
        assert report.curve is None
    assert _bits(report.l2_error) == _bits(expected.get("l2"))
    assert _bits(report.region_error) == _bits(expected.get("region_error"))


_ALPHAS = (0.2, 0.1, 0.05)


def _fit_bundle(algorithm, data, seed, mean_kind="knn"):
    """Three alphas over one mean, composed as the ``fit`` command does."""
    metric = MetricKind.WASSERSTEIN2 if data.quantile_grid is not None else MetricKind.EUCLIDEAN_L2
    if algorithm == "conformal-hetero":
        train, calib, conformal = split_three(data, 0.5, 0.25, seed)
    else:
        train, calib = split_dataset(data, SplitConfig(0.5, seed))
    spec = MeanSpec(mean_kind, metric, k=8 if mean_kind == "knn" else None)
    mean = fit_mean(train, spec, rng.derive_seed(seed, "mean"))
    if algorithm == "homoscedastic":
        return [fit_homoscedastic(train, calib, a, mean, metric, seed=seed) for a in _ALPHAS]
    if algorithm == "conformal-hetero":
        return [
            fit_conformalized_hetero(train, calib, conformal, a, 12, mean, metric, seed=seed)
            for a in _ALPHAS
        ]
    store = fit_heteroscedastic_knn(train, calib, _ALPHAS[0], 12, mean, metric, seed=seed)
    models = [replace(store, alpha=a) for a in _ALPHAS]
    if algorithm == "hetero-tuned":
        models = [tune_k_marginal(m, (4, 8, 12, 16), calib).model for m in models]
    return models


_BUNDLES = [
    ("homoscedastic", "knn"),
    ("homoscedastic", "global"),
    ("hetero-knn", "knn"),
    ("hetero-tuned", "knn"),
    ("conformal-hetero", "knn"),
]


def _check_against_oracle(models, eval_set, spec, mc_draws, grid_points=41):
    seeds = [rng.derive_seed(5, "mc", i) for i in range(len(models))]
    reports = evaluate_models(models, eval_set, grid_points, spec, mc_draws, seeds)
    assert len(reports) == len(models)
    for report, model, seed in zip(reports, models, seeds):
        _assert_bitwise(report, _oracle_report(model, eval_set, grid_points, spec, mc_draws, seed))


@pytest.mark.parametrize("algorithm,mean_kind", _BUNDLES)
@pytest.mark.parametrize("with_spec", [True, False])
def test_bundle_pass_matches_per_model_oracle(algorithm, mean_kind, with_spec):
    data = generate(Setting1(), 320, seed=21)
    eval_set = generate(Setting1(), 300, seed=22)
    models = _fit_bundle(algorithm, data, 23, mean_kind)
    spec, mc_draws = (Setting1(), 400) if with_spec else (None, 0)
    _check_against_oracle(models, eval_set, spec, mc_draws)
    _check_against_oracle(models[::-1], eval_set, spec, mc_draws)
    _check_against_oracle(models[1:2], eval_set, spec, mc_draws)


@pytest.mark.parametrize("algorithm,mean_kind", _BUNDLES)
def test_bundle_pass_without_curves_matches_oracle(algorithm, mean_kind):
    spec = GaussianMulti(response_dim=2, predictor_dim=2)
    models = _fit_bundle(algorithm, generate(spec, 320, seed=31), 32, mean_kind)
    eval_set = generate(spec, 300, seed=33)
    _check_against_oracle(models, eval_set, spec, 300)
    assert all(r.curve is None and r.l2_error is None for r in evaluate_models(models, eval_set))


def test_bundle_pass_on_quantile_responses_matches_oracle():
    spec = WassersteinExample(n_obs_per_curve=20)
    models = _fit_bundle("hetero-knn", generate(spec, 240, seed=41), 42)
    # no closed-form oracle region, so no region error
    _check_against_oracle(models, generate(spec, 200, seed=43), spec, 0)


@pytest.mark.parametrize("algorithm", ["hetero-knn", "conformal-hetero"])
def test_bundle_pass_on_a_loaded_bundle_matches_oracle(tmp_path, algorithm):
    write_models_json(tmp_path / "m.json", _fit_bundle(algorithm, generate(Setting1(), 320, seed=51), 52))
    models = read_models_json(tmp_path / "m.json")
    eval_set = generate(Setting1(), 300, seed=53)
    _check_against_oracle(models, eval_set, Setting1(), 300)
    _check_against_oracle(models[::-1], eval_set, None, 0)


def test_evaluate_models_needs_one_seed_per_model():
    data = generate(Setting4(), 50, seed=3)
    with pytest.raises(InvalidConfig):
        evaluate_models([_FixedRadiusModel(1.0)] * 2, data, seeds=[1])
    assert evaluate_models([], data) == []


def test_reports_own_their_curve_grids():
    models = _fit_bundle("hetero-knn", generate(Setting1(), 200, seed=61), 62)
    reports = evaluate_models(models, generate(Setting1(), 150, seed=63))
    assert not any(
        np.shares_memory(a.curve.x, b.curve.x) for a, b in zip(reports, reports[1:])
    )


def test_evaluation_keeps_no_state_between_sets():
    # each set is freed before the next is drawn, so later sets' arrays
    # may take earlier sets' addresses; each must still equal its own
    # evaluation from scratch
    models = _fit_bundle("conformal-hetero", generate(Setting1(), 320, seed=71), 72)
    for seed in range(73, 79):
        eval_set = generate(Setting1(), 300, seed=seed)
        for report, model in zip(evaluate_models(models, eval_set, spec=Setting1()), models):
            _assert_bitwise(report, _oracle_report(model, eval_set, 101, Setting1(), 0, 0))
        del eval_set
        gc.collect()
