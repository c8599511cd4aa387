import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricregions.errors import DimensionMismatch
from metricregions.metrics import (
    MetricKind,
    STANDARD_GRID,
    rowwise_distance,
    trapezoid_weights,
)

EQUISPACED_101 = np.linspace(0.005, 0.995, 101)
EQUISPACED_1001 = np.linspace(0.0005, 0.9995, 1001)


# ---------------------------------------------------------------------------
# pinned distance values


def _d(kind, a, b, grid=None):
    return float(rowwise_distance(kind, a, b, grid)[0])


def test_wasserstein_self_distance_is_zero():
    f = np.sin(EQUISPACED_101) + 2.0 * EQUISPACED_101
    assert _d(MetricKind.WASSERSTEIN2, f, f, EQUISPACED_101) == 0.0


def test_wasserstein_unit_offset_has_unit_distance():
    # constant integrand 1 over [0,1]; quadrature weights sum to one
    d = _d(MetricKind.WASSERSTEIN2, np.zeros(101), np.ones(101), EQUISPACED_101)
    assert d == pytest.approx(1.0, abs=1e-12)


def test_wasserstein_identity_quantile_vs_zero():
    # analytic integral of t^2 over [0,1] is 1/3
    d = _d(MetricKind.WASSERSTEIN2, EQUISPACED_1001, np.zeros(1001), EQUISPACED_1001)
    assert d == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-3)


def test_euclidean_sup_takes_largest_coordinate_gap():
    assert _d(MetricKind.EUCLIDEAN_SUP, [1.0, 5.0], [4.0, 3.0]) == 3.0


def test_euclidean_l2_matches_hypot():
    assert _d(MetricKind.EUCLIDEAN_L2, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)


def test_wasserstein_without_grid_is_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        rowwise_distance(MetricKind.WASSERSTEIN2, np.zeros((2, 3)), np.ones((2, 3)))


# ---------------------------------------------------------------------------
# quadrature weights


def test_trapezoid_weights_sum_to_one():
    for grid in (STANDARD_GRID, np.array([0.1, 0.2, 0.7]), np.array([0.5])):
        assert trapezoid_weights(grid).sum() == pytest.approx(1.0, abs=1e-12)


def test_standard_grid_shape_and_bounds():
    assert STANDARD_GRID.shape == (101,)
    assert STANDARD_GRID[0] == 0.005
    assert STANDARD_GRID[-1] == 0.995
    steps = np.diff(STANDARD_GRID)
    assert np.allclose(steps, 0.0099, atol=1e-15)
    with pytest.raises(ValueError):
        STANDARD_GRID[0] = 0.1  # the shared grid must stay immutable


def test_standard_grid_levels_round_trip_through_repr():
    for v in STANDARD_GRID:
        assert float(repr(float(v))) == v


# ---------------------------------------------------------------------------
# metric axioms on random inputs

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)


@st.composite
def vector_triples(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    rows = draw(
        st.lists(st.lists(finite, min_size=m, max_size=m), min_size=3, max_size=3)
    )
    return np.asarray(rows, dtype=np.float64), None


@st.composite
def quantile_triples(draw):
    g = draw(st.integers(min_value=2, max_value=8))
    levels = np.sort(
        np.asarray(
            draw(
                st.lists(
                    st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
                    min_size=g,
                    max_size=g,
                    unique=True,
                )
            )
        )
    )
    starts = draw(st.lists(finite, min_size=3, max_size=3))
    steps = draw(
        st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                min_size=g - 1,
                max_size=g - 1,
            ),
            min_size=3,
            max_size=3,
        )
    )
    rows = [s + np.concatenate([[0.0], np.cumsum(inc)]) for s, inc in zip(starts, steps)]
    return np.asarray(rows), levels


def _axiom_check(kind, points, grid):
    a, b, c = points
    dab = _d(kind, a, b, grid)
    dba = _d(kind, b, a, grid)
    dac = _d(kind, a, c, grid)
    dcb = _d(kind, c, b, grid)
    assert dab >= 0.0
    assert dab == dba  # symmetric evaluation order is bitwise identical
    assert _d(kind, a, a, grid) == 0.0
    if np.array_equal(a, b):
        assert dab <= 1e-12
    assert dab <= dac + dcb + 1e-9 * (1.0 + dab)


@settings(max_examples=200, deadline=None)
@given(vector_triples())
def test_euclidean_metric_axioms(triple):
    _axiom_check(MetricKind.EUCLIDEAN_L2, *triple)
    _axiom_check(MetricKind.EUCLIDEAN_SUP, *triple)


@settings(max_examples=200, deadline=None)
@given(quantile_triples())
def test_quantile_metric_axioms(triple):
    _axiom_check(MetricKind.WASSERSTEIN2, *triple)
    _axiom_check(MetricKind.QUANTILE_SUP, *triple)


@settings(max_examples=100, deadline=None)
@given(quantile_triples())
def test_wasserstein_never_exceeds_sup(triple):
    (a, b, _), grid = triple
    dw = _d(MetricKind.WASSERSTEIN2, a, b, grid)
    ds = _d(MetricKind.QUANTILE_SUP, a, b, grid)
    assert dw <= ds + 1e-9


def test_wasserstein_stable_under_grid_refinement():
    # Lipschitz quantile functions on a grid and its midpoint refinement
    def qf(t):
        return 2.0 * t + 0.1 * np.sin(3.0 * t)

    def qg(t):
        return 1.5 * t + 0.2

    for G in (26, 101):
        coarse = np.linspace(0.01, 0.99, G)
        fine = np.sort(np.concatenate([coarse, (coarse[:-1] + coarse[1:]) / 2.0]))
        d_coarse = _d(MetricKind.WASSERSTEIN2, qf(coarse), qg(coarse), coarse)
        d_fine = _d(MetricKind.WASSERSTEIN2, qf(fine), qg(fine), fine)
        assert abs(d_coarse - d_fine) < 5.0 / G

