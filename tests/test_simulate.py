import math

import numpy as np
import pytest
import scipy.stats

from metricregions import rng
from metricregions.errors import InvalidConfig, UnsupportedScenario
from metricregions.metrics import (
    STANDARD_GRID,
    MetricKind,
    rowwise_distance,
)
from metricregions.simulate import (
    GaussianMulti,
    Setting1,
    Setting2,
    Setting3,
    Setting4,
    WassersteinExample,
    chi_square_quantile,
    conditional_mean_quantiles,
    generate,
    noise_quantile_profile,
    normal_quantile,
    oracle_contains,
    oracle_region,
    predictor_range,
    sample_responses,
    scenario_from_tag,
    scenario_tag,
)

THREE_SE = lambda p, n: 3.0 * math.sqrt(p * (1.0 - p) / n)  # noqa: E731


# ---------------------------------------------------------------------------
# generators


def test_shift_scenario_matches_analytic_mean():
    data = generate(Setting4(), 1_000_000, seed=1)
    assert abs(float(data.response_values.mean()) - 5.0) <= 0.01


def test_scale_noise_vanishes_at_origin():
    draws = sample_responses(Setting1(), 0.0, 100, seed=3)
    assert np.array_equal(draws, np.full((100, 1), 3.0))


def test_gaussian_homoscedastic_unit_variance():
    spec = GaussianMulti(response_dim=3, predictor_dim=1, heteroscedastic=False)
    data = generate(spec, 100_000, seed=5)
    centered = data.response_values - (5.0 + data.predictors.sum(axis=1))[:, None]
    for j in range(3):
        assert abs(float(centered[:, j].var()) - 1.0) <= 0.02


def test_generated_shapes_and_supports():
    data = generate(Setting2(), 500, seed=9)
    assert data.predictors.shape == (500, 1)
    assert data.predictors.min() >= 0.0 and data.predictors.max() <= 5.0
    g = generate(GaussianMulti(response_dim=4, predictor_dim=2), 50, seed=9)
    assert g.predictors.shape == (50, 2)
    assert g.response_values.shape == (50, 4)
    assert g.predictors.max() <= 1.0


def test_distributional_rows_are_quantile_curves():
    spec = WassersteinExample(coefficients=(1.0, -0.5), n_obs_per_curve=60)
    data = generate(spec, 40, seed=2)
    assert np.array_equal(data.quantile_grid, np.asarray(STANDARD_GRID))
    assert data.response_values.shape == (40, 101)
    assert (np.diff(data.response_values, axis=1) >= 0.0).all()


def test_generation_is_deterministic():
    a = generate(Setting1(), 3, 42)
    b = generate(Setting1(), 3, 42)
    assert np.array_equal(a.predictors, b.predictors)
    assert np.array_equal(a.response_values, b.response_values)
    assert not np.array_equal(a.predictors, generate(Setting1(), 3, 43).predictors)
    # frozen draws guard the stream layout across releases
    np.testing.assert_array_equal(
        a.predictors[:, 0],
        [2.7479712777908882, 3.427204551881765, 0.21104307082454976],
    )
    np.testing.assert_array_equal(
        a.response_values[:, 0],
        [3.454602055454216, 8.32382639889813, 3.3626910621419657],
    )
    g = generate(GaussianMulti(response_dim=2), 2, 7)
    np.testing.assert_array_equal(g.response_values[0], [5.893183976828477, 4.85776081072361])
    w = generate(WassersteinExample(), 1, 11)
    assert w.response_values[0, 50] == 0.3234804083241738


def test_generate_rejects_empty_request():
    with pytest.raises(InvalidConfig):
        generate(Setting1(), 0, seed=1)


# ---------------------------------------------------------------------------
# scenario metadata


def test_tags_round_trip():
    specs = [
        Setting1(), Setting2(), Setting3(), Setting4(),
        GaussianMulti(response_dim=2, predictor_dim=3, heteroscedastic=True),
        WassersteinExample(coefficients=(2.0,)),
    ]
    for spec in specs:
        rebuilt = scenario_from_tag(scenario_tag(spec))
        assert type(rebuilt) is type(spec)
    assert scenario_from_tag(
        "gaussian", response_dim=2, predictor_dim=3, heteroscedastic=True
    ) == specs[4]
    with pytest.raises(InvalidConfig):
        scenario_from_tag("nope")


def test_ranges_and_default_metrics():
    assert predictor_range(Setting3()) == (0.0, 5.0)
    assert predictor_range(GaussianMulti()) == (0.0, 1.0)


# ---------------------------------------------------------------------------
# chi-square and normal quantiles


def test_chi_square_exponential_closed_form():
    # with 2 degrees of freedom the law is Exp(1/2), so the quantile at
    # level 1 - e^{-1} is exactly 2
    assert abs(chi_square_quantile(2, 1.0 - math.exp(-1.0)) - 2.0) <= 1e-9


def test_chi_square_one_df_is_squared_normal():
    assert abs(chi_square_quantile(1, 0.95) - 3.8415) <= 1e-3


def test_chi_square_vanishes_at_low_levels():
    values = [chi_square_quantile(3, lv) for lv in (1e-2, 1e-4, 1e-6)]
    assert values[0] > values[1] > values[2] >= 0.0
    assert values[2] < 1e-3


def test_chi_square_matches_reference_implementation():
    for df in (1, 2, 5, 50, 100):
        for level in (0.05, 0.5, 0.8, 0.95, 0.999):
            mine = chi_square_quantile(df, level)
            ref = float(scipy.stats.chi2.ppf(level, df))
            assert abs(mine - ref) <= 1e-7, (df, level)


def test_chi_square_rejects_bad_inputs():
    with pytest.raises(InvalidConfig):
        chi_square_quantile(0, 0.5)
    with pytest.raises(InvalidConfig):
        chi_square_quantile(3, 1.0)


def test_normal_quantile_matches_reference():
    for level in (0.025, 0.5, 0.9, 0.975):
        assert abs(normal_quantile(level) - float(scipy.stats.norm.ppf(level))) <= 1e-12


# ---------------------------------------------------------------------------
# oracle regions


def test_oracle_radius_zero_at_origin():
    for alpha in (0.01, 0.2, 0.9):
        centers, radii = oracle_region(Setting1(), np.array([0.0]), alpha)
        assert radii[0] == 0.0
        assert centers[0, 0] == 3.0
        assert oracle_contains(Setting1(), np.array([0.0]), np.array([[3.0]]), alpha)[0]


def test_oracle_uniform_noise_radius():
    centers, radii = oracle_region(Setting1(), np.array([5.0]), 0.2)
    assert radii[0] == 4.0
    assert centers[0, 0] == 8.0
    # Monte-Carlo quantile of 5|eps| with eps ~ U(-1,1) agrees
    eps = rng.stream(77, "oracle-mc").uniform(-1.0, 1.0, 10_000_000)
    assert abs(float(np.quantile(5.0 * np.abs(eps), 0.8)) - 4.0) <= 0.005


def test_oracle_half_normal_radius():
    centers, radii = oracle_region(Setting3(), np.array([2.0]), 0.2)
    expected = 2.0 * 2.0 * float(scipy.stats.norm.ppf(0.9))
    assert abs(radii[0] - expected) <= 1e-12
    assert centers[0, 0] == 3.0 + math.exp(2.0)


def test_oracle_gaussian_half_width():
    centers, radii = oracle_region(GaussianMulti(), np.array([0.3]), 0.05)
    assert centers[0, 0] == 5.0 + 0.3
    assert abs(radii[0] - 1.95996) <= 1e-4
    _, hetero = oracle_region(
        GaussianMulti(heteroscedastic=True), np.array([0.5]), 0.05
    )
    assert abs(hetero[0] - 4.5 * radii[0]) <= 1e-9


def test_oracle_shift_scenario():
    centers, radii = oracle_region(Setting4(), np.array([1.0]), 0.2)
    assert centers[0, 0] == 3.5
    assert radii[0] == 2.0


@pytest.mark.parametrize(
    "spec, m",
    [(Setting1(), 1), (Setting2(), 1), (Setting3(), 1), (Setting4(), 1),
     (GaussianMulti(response_dim=3, predictor_dim=2), 3)],
    ids=["setting1", "setting2", "setting3", "setting4", "gaussian"],
)
def test_oracle_region_arrays_have_a_row_per_query(spec, m):
    x = generate(spec, 4, seed=5).predictors
    centers, radii = oracle_region(spec, x, 0.2)
    assert centers.shape == (4, m) and radii.shape == (4,)
    # half the radius from the centre is inside, twice the radius is not
    y = centers + np.array([[0.5], [2.0], [0.5], [2.0]]) * (radii[:, None] + 1e-6)
    assert oracle_contains(spec, x, y, 0.2).tolist() == [True, False, True, False]
    if m == 1:  # a 1-d array holds one scalar response per row
        assert oracle_contains(spec, x, y[:, 0], 0.2).tolist() == [True, False, True, False]


def test_oracle_unavailable_for_distributional_scenario():
    with pytest.raises(UnsupportedScenario):
        oracle_region(WassersteinExample(), np.array([0.5]), 0.2)


@pytest.mark.parametrize(
    "spec",
    [Setting1(), Setting2(), Setting3(), Setting4()],
    ids=["setting1", "setting2", "setting3", "setting4"],
)
def test_oracle_coverage_scalar_settings(spec):
    n = 100_000
    for x0, alpha in ((2.0, 0.2), (3.7, 0.1)):
        draws = sample_responses(spec, x0, n, seed=rng.derive_seed(13, scenario_tag(spec)))
        x_rows = np.full((n, 1), x0)
        hit = float(oracle_contains(spec, x_rows, draws, alpha).mean())
        assert abs(hit - (1.0 - alpha)) <= THREE_SE(1.0 - alpha, n), (x0, alpha)


def test_oracle_coverage_gaussian_scalar_response():
    n = 100_000
    for spec in (GaussianMulti(), GaussianMulti(heteroscedastic=True)):
        draws = sample_responses(spec, np.array([0.4]), n, seed=21)
        x_rows = np.full((n, 1), 0.4)
        hit = float(oracle_contains(spec, x_rows, draws, 0.2).mean())
        assert abs(hit - 0.8) <= THREE_SE(0.8, n)


def test_oracle_coverage_gaussian_hypercube_as_printed():
    # per-coordinate half-width sqrt of the chi-square quantile: for p > 1
    # the hypercube over-covers; its true content is (2 Phi(r) - 1)^p
    spec = GaussianMulti(response_dim=3)
    n = 100_000
    draws = sample_responses(spec, np.array([0.4]), n, seed=22)
    x_rows = np.full((n, 1), 0.4)
    hit = float(oracle_contains(spec, x_rows, draws, 0.2).mean())
    r = math.sqrt(chi_square_quantile(3, 0.8))
    analytic = (2.0 * float(scipy.stats.norm.cdf(r)) - 1.0) ** 3
    assert analytic > 0.9  # strictly conservative at p=3
    assert abs(hit - analytic) <= THREE_SE(analytic, n)


# ---------------------------------------------------------------------------
# distributional scenario conditional means


def test_distributional_distance_independent_of_predictor():
    spec = WassersteinExample(coefficients=(1.0,))
    data = generate(spec, 5000, seed=31)
    profile = noise_quantile_profile(spec, draws=10_000, seed=32)
    cond_mean = conditional_mean_quantiles(spec, data.predictors, profile)
    d = rowwise_distance(
        MetricKind.WASSERSTEIN2, data.response_values, cond_mean, data.quantile_grid
    )
    signal = data.predictors[:, 0]
    corr = float(np.corrcoef(d, signal)[0, 1])
    assert abs(corr) <= 0.05


def test_noise_profile_is_centered_and_monotone():
    spec = WassersteinExample()
    profile = noise_quantile_profile(spec, draws=4000, seed=8)
    assert profile.shape == (101,)
    assert (np.diff(profile) >= 0.0).all()
    assert abs(float(profile[50])) <= 0.05  # median of centered noise
