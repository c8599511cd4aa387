import math
from dataclasses import dataclass

import numpy as np
import pytest

from metricregions import rng
from metricregions.errors import EmptyEvalSet, InvalidConfig, MultivariateUnsupported
from metricregions.evaluate import (
    CoverageCurve,
    conditional_coverage_curve,
    coverage_indicators,
    evaluate_model,
    l2_integrated_error,
    marginal_coverage,
    smooth_indicators,
    symmetric_difference_error,
)
from metricregions.metrics import EuclideanVector, MetricKind
from metricregions.regions import fit_homoscedastic
from metricregions.regression import ConstantMean, LabeledDataset, MeanSpec, SplitConfig, split_dataset
from metricregions.simulate import GaussianMulti, Setting1, Setting4, generate


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
