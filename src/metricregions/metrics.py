"""Response values and the metrics used to compare them.

Two response variants are supported: plain Euclidean vectors and
one-dimensional distributions represented by their quantile function
sampled on a fixed grid of levels in (0, 1).  Distributions are compared
with the 2-Wasserstein distance, which for quantile functions is the L2
distance ``sqrt(integral (Q_F - Q_G)^2 dt)``; the integral is evaluated
by the trapezoid rule on the shared grid, extending the integrand as a
constant to the endpoints 0 and 1.  Sup-norm variants of both metrics
are provided for defining regions, but are not usable as fitting metrics
(no mean formula is attached to them).

Every distance in the package is :func:`rowwise_distance` on stacked
value arrays; ``LabeledDataset`` is where responses are validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, IncompatibleMetric

__all__ = [
    "EuclideanVector",
    "QuantileFunction",
    "MetricKind",
    "STANDARD_GRID",
    "rowwise_distance",
    "trapezoid_weights",
]


class MetricKind(Enum):
    """Metric used to compare two response points."""

    EUCLIDEAN_L2 = "euclidean-l2"
    EUCLIDEAN_SUP = "euclidean-sup"
    WASSERSTEIN2 = "wasserstein2"
    QUANTILE_SUP = "quantile-sup"

    @property
    def is_quantile(self) -> bool:
        return self in (MetricKind.WASSERSTEIN2, MetricKind.QUANTILE_SUP)


@dataclass(frozen=True, eq=False)
class EuclideanVector:
    """A response living in R^m."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        )


@dataclass(frozen=True, eq=False)
class QuantileFunction:
    """A distribution response: quantile values on a grid of levels
    (strictly increasing inside (0, 1)); ``values`` are nondecreasing."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "grid", np.atleast_1d(np.asarray(self.grid, dtype=np.float64))
        )
        object.__setattr__(
            self, "values", np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        )


# Canonical 101-level grid, 0.005 to 0.995.  The levels are exact short
# decimals so CSV headers built from repr() round-trip bytewise.
STANDARD_GRID = np.array([(50 + 99 * i) / 10000 for i in range(101)])
STANDARD_GRID.setflags(write=False)


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Trapezoid quadrature weights on [0, 1] for integrands sampled at
    ``grid``, treating the integrand as constant beyond the first and
    last level.  The weights sum to exactly the measure of [0, 1]."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 1:
        return np.ones(1)
    w = np.empty_like(grid)
    w[1:-1] = (grid[2:] - grid[:-2]) / 2.0
    w[0] = grid[0] + (grid[1] - grid[0]) / 2.0
    w[-1] = (1.0 - grid[-1]) + (grid[-1] - grid[-2]) / 2.0
    return w


def rowwise_distance(
    kind: MetricKind,
    a: np.ndarray,
    b: np.ndarray,
    grid: np.ndarray | None = None,
) -> np.ndarray:
    """Distances between corresponding rows of two stacked value arrays.

    ``a`` and ``b`` broadcast against each other ((n, m) vs (m,) is
    fine).  For the quantile metrics ``grid`` carries the shared levels;
    Wasserstein without it raises ``DimensionMismatch``.  The values are
    not validated here: ``LabeledDataset`` checks every response.
    """
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    diff = np.atleast_2d(diff)
    if kind is MetricKind.EUCLIDEAN_L2:
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if kind in (MetricKind.EUCLIDEAN_SUP, MetricKind.QUANTILE_SUP):
        return np.abs(diff).max(axis=1)
    if kind is MetricKind.WASSERSTEIN2:
        if grid is None:
            raise DimensionMismatch("Wasserstein distance needs the level grid")
        w = trapezoid_weights(grid)
        return np.sqrt((diff * diff) @ w)
    raise IncompatibleMetric(f"unknown metric kind {kind!r}")

