"""Datasets, sample splitting, and conditional Fréchet mean estimators.

The Fréchet mean machinery covers the two response geometries for which
a closed-form mean exists: Euclidean vectors (coordinatewise averages)
and distributions under the 2-Wasserstein metric (pointwise averages of
quantile functions, projected onto nondecreasing functions when weights
can be negative).  Sup-norm metrics are deliberately rejected as fitting
metrics.

Two regression estimators are provided:

* k-nearest-neighbor Fréchet means, with neighbor distance ties broken
  by a seeded uniform jitter assigned in a canonical row order so fitted
  models are invariant to permutations of the training rows;
* global Fréchet regression, whose weights sum to n, so the weighted
  average is in closed form the least-squares line: the response mean
  plus the centred query times one (p, m) coefficient.

``loo_select_k`` scores a grid of candidate k values per training point
by a leave-one-out criterion: the mean distance of the LOO neighbor
responses to their own Fréchet mean.  Every neighbor search in the
package goes through ``nearest_neighbors``, a KD-tree kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.optimize import isotonic_regression
from scipy.spatial import cKDTree

from . import rng
from .errors import (
    DimensionMismatch,
    IncompatibleMetric,
    InvalidConfig,
    InvalidDataset,
    KGridEmpty,
    KTooLarge,
    TooFewSamples,
)
from .metrics import (
    EuclideanVector,
    MetricKind,
    QuantileFunction,
    trapezoid_weights,
)

__all__ = [
    "LabeledDataset",
    "SplitConfig",
    "split_dataset",
    "split_three",
    "KnnFrechetModel",
    "GlobalFrechetModel",
    "ConstantMean",
    "MeanSpec",
    "LooKSelection",
    "fit_knn_frechet",
    "fit_global_frechet",
    "loo_select_k",
    "select_global_k",
    "fit_mean",
    "default_k_grid",
    "nearest_neighbors",
]

_FIT_METRICS = (MetricKind.EUCLIDEAN_L2, MetricKind.WASSERSTEIN2)


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Predictors in R^p paired with response points of one shared variant.

    ``response_values`` stacks the responses row by row; a non-None
    ``quantile_grid`` marks them as quantile functions on that grid,
    otherwise they are plain Euclidean vectors.
    """

    predictors: np.ndarray
    response_values: np.ndarray
    quantile_grid: np.ndarray | None = None

    def __post_init__(self):
        X = np.asarray(self.predictors, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        Y = np.asarray(self.response_values, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        object.__setattr__(self, "predictors", X)
        object.__setattr__(self, "response_values", Y)
        if X.ndim != 2 or Y.ndim != 2:
            raise InvalidDataset("predictors and responses must be 2-d arrays")
        if X.shape[0] == 0:
            raise InvalidDataset("a dataset needs at least one row")
        if X.shape[0] != Y.shape[0]:
            raise InvalidDataset(
                f"{X.shape[0]} predictor rows vs {Y.shape[0]} response rows"
            )
        if X.shape[1] == 0 or Y.shape[1] == 0:
            raise InvalidDataset("zero-dimensional predictors or responses")
        if not np.isfinite(X).all():
            raise InvalidDataset("predictors contain non-finite entries")
        if not np.isfinite(Y).all():
            raise InvalidDataset("responses contain non-finite entries")
        if self.quantile_grid is not None:
            g = np.asarray(self.quantile_grid, dtype=np.float64)
            object.__setattr__(self, "quantile_grid", g)
            if g.ndim != 1 or g.size != Y.shape[1]:
                raise InvalidDataset("quantile grid does not match response width")
            if g.size and ((g <= 0.0).any() or (g >= 1.0).any() or (np.diff(g) <= 0).any()):
                raise InvalidDataset("quantile grid must increase strictly inside (0, 1)")
            if (np.diff(Y, axis=1) < 0).any():
                bad = int(np.argmax((np.diff(Y, axis=1) < 0).any(axis=1)))
                raise InvalidDataset(f"response row {bad} is not a nondecreasing quantile function")

    @property
    def n(self) -> int:
        return self.predictors.shape[0]

    @property
    def p(self) -> int:
        return self.predictors.shape[1]

    @property
    def response_dim(self) -> int:
        return self.response_values.shape[1]

    def subset(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(
            self.predictors[indices], self.response_values[indices], self.quantile_grid
        )


# ---------------------------------------------------------------------------
# splitting


@dataclass(frozen=True)
class SplitConfig:
    """How to cut one dataset into fitting and calibration halves."""

    train_fraction: float = 0.5
    seed: int = 0


def split_dataset(data: LabeledDataset, config: SplitConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Randomly split ``data`` into (train, rest); both parts stay nonempty."""
    if data.n < 2:
        raise TooFewSamples("cannot split fewer than two rows")
    if not 0.0 < config.train_fraction < 1.0:
        raise InvalidConfig("train_fraction must lie strictly between 0 and 1")
    order = rng.stream(config.seed, "split").permutation(data.n)
    n1 = min(data.n - 1, max(1, math.floor(config.train_fraction * data.n)))
    return data.subset(order[:n1]), data.subset(order[n1:])


def split_three(
    data: LabeledDataset, first_fraction: float, second_fraction: float, seed: int = 0
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Three-way random split used by the conformalized variant."""
    if first_fraction <= 0 or second_fraction <= 0 or first_fraction + second_fraction >= 1:
        raise InvalidConfig("split fractions must be positive and sum below 1")
    order = rng.stream(seed, "split").permutation(data.n)
    n1 = math.floor(first_fraction * data.n)
    n2 = math.floor(second_fraction * data.n)
    if n1 < 1 or n2 < 1 or data.n - n1 - n2 < 1:
        raise TooFewSamples("three-way split leaves an empty part")
    return (
        data.subset(order[:n1]),
        data.subset(order[n1 : n1 + n2]),
        data.subset(order[n1 + n2 :]),
    )


# ---------------------------------------------------------------------------
# shared neighbor machinery


def canonical_order(data: LabeledDataset) -> np.ndarray:
    """Content-determined row order (lexicographic over predictors, then
    responses) so that seeded tie-breaking cannot depend on input row order."""
    cols = [data.response_values[:, j] for j in range(data.response_dim - 1, -1, -1)]
    cols += [data.predictors[:, j] for j in range(data.p - 1, -1, -1)]
    return np.lexsort(tuple(cols))


def _check_fit_metric(kind: MetricKind, data: LabeledDataset) -> None:
    if kind not in _FIT_METRICS:
        raise IncompatibleMetric(
            f"{kind.value} has no Fréchet mean formula; fit with euclidean-l2 "
            "or wasserstein2"
        )
    if (kind is MetricKind.WASSERSTEIN2) != (data.quantile_grid is not None):
        raise IncompatibleMetric(
            f"fit metric {kind.value} does not match the response variant"
        )


# query-neighbour pairs per block of ``nearest_neighbors``; bounds the
# kernel's temporaries and those of the per-block reductions
_BLOCK_PAIRS = 1 << 20
# relative gap between the tree's k-th and (k+1)-th distances below which
# the neighbour set may hinge on rounding, so the row is ordered exactly
_TIE_SLACK = 1e-9


def _sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the broadcast rows of ``a`` and
    ``b``, from direct coordinate differences summed in coordinate order,
    so a pair gets the same value whatever shape it is computed in."""
    d2 = np.square(a[..., 0] - b[..., 0])
    for j in range(1, a.shape[-1]):
        d2 += np.square(a[..., j] - b[..., j])
    return d2


def _first_k(tree: cKDTree, q: np.ndarray, k: int, jitter) -> np.ndarray:
    """The (rows, k) neighbour indices that ``nearest_neighbors`` gives
    the query rows ``q``; its search temporaries are freed on return,
    before the indices are expanded to a block's rows and reduced."""
    n, points = tree.n, tree.data
    if k < n:
        dist, cand = tree.query(q, k + 1)
        exact = dist[:, k] <= dist[:, k - 1] * (1.0 + _TIE_SLACK)
    else:
        cand = np.broadcast_to(np.arange(n), (q.shape[0], n))
        exact = np.zeros(q.shape[0], dtype=bool)
    d2 = _sq_distances(points[cand], q[:, None, :])
    order = np.lexsort((cand, d2), axis=-1)[:, :k]
    idx = np.take_along_axis(cand, order, axis=-1)
    if jitter is not None:
        d2 = np.take_along_axis(d2, order, axis=-1)
        exact |= (d2[:, 1:] == d2[:, :-1]).any(axis=1)
    for r in np.flatnonzero(exact):
        row_d2 = _sq_distances(points, q[r])
        shell = np.flatnonzero(row_d2 <= np.partition(row_d2, k - 1)[k - 1])
        keys = (row_d2[shell],) if jitter is None else (jitter(q[r])[shell], row_d2[shell])
        idx[r] = shell[np.lexsort(keys)[:k]]
    return idx


def nearest_neighbors(tree: cKDTree, queries: np.ndarray, k: int, jitter=None, reduce=None):
    """Per query row, the first ``k`` tree points in the total order
    (squared distance, ``jitter(query)[point]``, point index), in that
    order; without ``jitter`` the order is (squared distance, point index).

    Distances are ``_sq_distances``.  The tree only proposes k+1
    candidates; a row whose (k+1)-th tree distance lies within
    ``_TIE_SLACK`` of its k-th, or, given ``jitter``, whose first k hold a
    distance tie, is ordered exactly instead: it sorts only its tie shell,
    the points within its exact k-th smallest distance, which ascend by
    index, so a stable lexsort keeps full ties in index order.  Queries
    run in blocks, and each distinct row of a block, keyed on its float64
    bytes, is searched once, since its order depends only on those bytes:
    equal rows share one result, and ``jitter`` is called once per
    distinct row that falls back.  ``reduce(idx, rows)`` maps a block's
    (rows, k) neighbour indices and its query row numbers to per-row
    results, which are concatenated; without it the indices themselves
    are returned.
    """
    n = tree.n
    if not 1 <= k <= n:
        raise KTooLarge(f"k={k} outside 1..{n}")
    step = max(1, _BLOCK_PAIRS // (k + 1))
    parts = []
    # no queries still make one (empty) block, so the result has its shape
    for start in range(0, max(queries.shape[0], 1), step):
        block = np.ascontiguousarray(queries[start : start + step])
        # one void scalar per row: rows are equal keys when their bytes are
        row_bytes = block.view(np.dtype((np.void, block.itemsize * block.shape[1])))
        _, first, inverse = np.unique(row_bytes.ravel(), return_index=True, return_inverse=True)
        idx = _first_k(tree, block[first], k, jitter)[inverse]
        rows = np.arange(start, start + block.shape[0])
        parts.append(idx if reduce is None else reduce(idx, rows))
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# k-nearest-neighbor Fréchet means


@dataclass(frozen=True, eq=False)
class KnnFrechetModel:
    """Local Fréchet mean over the k nearest training predictors.

    Training rows are stored in canonical order; ``tie_jitter`` holds
    the per-row uniforms used to resolve neighbor distance ties, drawn
    from ``seed`` so a saved model need not store them.  The KD-tree over
    the training predictors is built on first use.
    """

    training: LabeledDataset
    k: int
    fit_metric: MetricKind
    seed: int = 0
    tie_jitter: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 1 <= self.k <= self.training.n:
            raise KTooLarge(f"k={self.k} outside 1..{self.training.n}")
        jitter = rng.stream(self.seed, "knn-ties").random(self.training.n)
        object.__setattr__(self, "tie_jitter", jitter)

    @property
    def quantile_grid(self) -> np.ndarray | None:
        return self.training.quantile_grid

    @property
    def p(self) -> int:
        return self.training.p

    @cached_property
    def _tree(self) -> cKDTree:
        return cKDTree(self.training.predictors)

    def predict_values(self, queries: np.ndarray) -> np.ndarray:
        queries = _as_query_matrix(queries, self.training.p)
        Y = self.training.response_values

        def neighbor_means(idx, rows):
            # added rank by rank, the order in which a mean over the
            # neighbor axis adds, so the centre equals that mean bitwise
            total = Y[idx[:, 0]].copy()
            for j in range(1, self.k):
                total += Y[idx[:, j]]
            return total / self.k

        return nearest_neighbors(
            self._tree, queries, self.k, lambda query: self.tie_jitter, neighbor_means
        )


def fit_knn_frechet(
    data: LabeledDataset, k: int, fit_metric: MetricKind, seed: int = 0
) -> KnnFrechetModel:
    """Freeze a kNN Fréchet mean estimator over ``data``."""
    _check_fit_metric(fit_metric, data)
    order = canonical_order(data)
    return KnnFrechetModel(data.subset(order), int(k), fit_metric, int(seed))


def _as_query_matrix(queries: np.ndarray, p: int | None) -> np.ndarray:
    """Queries as a finite (rows, p) matrix; ``p=None`` accepts any width."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim == 0:
        q = q[None, None]
    elif q.ndim == 1:
        # a single p-dimensional query, or a column of scalar queries
        q = q[None, :] if q.size == p and p > 1 else q[:, None]
    if p is not None and q.shape[1] != p:
        raise DimensionMismatch(f"queries have {q.shape[1]} coordinates, expected {p}")
    if not np.isfinite(q).all():
        raise InvalidDataset("queries contain non-finite entries")
    return q


# ---------------------------------------------------------------------------
# global Fréchet regression


@dataclass(frozen=True, eq=False)
class GlobalFrechetModel:
    """Global Fréchet regression (linear in the predictors).

    ``cov_inv`` inverts the sample covariance (1/(n-1) normalization),
    ridged when ill-conditioned.  The weights ``weights(q)`` sum to n, so
    the weighted mean is in closed form ``mean_y + (q - mean_x) @ coef``,
    ordinary least squares for Euclidean responses; ``mean_y`` and
    ``coef`` are derived from the stored fields.
    """

    training: LabeledDataset
    mean_x: np.ndarray
    cov_inv: np.ndarray
    fit_metric: MetricKind
    mean_y: np.ndarray = field(init=False, repr=False)
    coef: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        Y = self.training.response_values
        xc = self.training.predictors - self.mean_x
        object.__setattr__(self, "mean_y", Y.mean(axis=0))
        object.__setattr__(self, "coef", self.cov_inv @ (xc.T @ Y) / (self.training.n - 1))

    @property
    def quantile_grid(self) -> np.ndarray | None:
        return self.training.quantile_grid

    @property
    def p(self) -> int:
        return self.training.p

    def weights(self, queries: np.ndarray) -> np.ndarray:
        queries = _as_query_matrix(queries, self.training.p)
        n = self.training.n
        xc = self.training.predictors - self.mean_x
        qc = queries - self.mean_x
        return 1.0 + (n / (n - 1.0)) * (qc @ self.cov_inv @ xc.T)

    def predict_values(self, queries: np.ndarray) -> np.ndarray:
        qc = _as_query_matrix(queries, self.training.p) - self.mean_x
        # summed in coordinate order, the mean last, so a row's centre does
        # not depend on the batch it is predicted in
        vals = qc[:, 0, None] * self.coef[0]
        for j in range(1, self.p):
            vals += qc[:, j, None] * self.coef[j]
        vals += self.mean_y
        if self.quantile_grid is not None:
            # an extrapolated line can break monotonicity; project back under
            # the same quadrature norm that defines the Wasserstein metric
            qw = trapezoid_weights(self.quantile_grid)
            for i in range(vals.shape[0]):
                if (np.diff(vals[i]) < 0).any():
                    vals[i] = isotonic_regression(vals[i], weights=qw).x
        return vals


def fit_global_frechet(data: LabeledDataset, fit_metric: MetricKind) -> GlobalFrechetModel:
    """Fit global Fréchet regression on ``data``."""
    _check_fit_metric(fit_metric, data)
    if data.n < data.p + 2:
        raise TooFewSamples(f"need at least p+2={data.p + 2} rows, have {data.n}")
    order = canonical_order(data)
    data = data.subset(order)
    mean_x = data.predictors.mean(axis=0)
    # a constant column is centred exactly, so its ridged variance cannot
    # amplify the rounding of its mean into the other coefficients
    constant = (data.predictors == data.predictors[0]).all(axis=0)
    mean_x[constant] = data.predictors[0, constant]
    xc = data.predictors - mean_x
    cov = (xc.T @ xc) / (data.n - 1)
    if np.linalg.cond(cov) > 1e12:
        scale = np.trace(cov) / data.p
        cov = cov + (1e-8 * scale if scale > 0 else 1e-8) * np.eye(data.p)
    return GlobalFrechetModel(data, mean_x, np.linalg.inv(cov), fit_metric)


# ---------------------------------------------------------------------------
# constant (baseline) estimator


@dataclass(frozen=True, eq=False)
class ConstantMean:
    """Predicts the same response everywhere; a deliberately crude baseline
    that takes queries of any width (``p`` is None)."""

    point: EuclideanVector | QuantileFunction
    p = None

    @property
    def quantile_grid(self) -> np.ndarray | None:
        return self.point.grid if isinstance(self.point, QuantileFunction) else None

    def predict_values(self, queries: np.ndarray) -> np.ndarray:
        q = _as_query_matrix(queries, None)
        return np.broadcast_to(self.point.values, (q.shape[0], self.point.values.size)).copy()


# ---------------------------------------------------------------------------
# leave-one-out selection of k


@dataclass(frozen=True, eq=False)
class LooKSelection:
    """Leave-one-out k scores: ``scores[i, j]`` is the criterion for
    ``k_grid[j]`` at training point i; ``k_star[i]`` is the per-point
    argmin (smallest k on ties)."""

    k_grid: tuple[int, ...]
    scores: np.ndarray
    k_star: np.ndarray


def _clean_k_grid(k_grid: Sequence[int], k_max: int) -> tuple[int, ...]:
    grid = sorted({int(k) for k in k_grid})
    if not grid:
        raise KGridEmpty("no candidate k values")
    if grid[0] < 1:
        raise KGridEmpty(f"candidate k={grid[0]} below 1")
    if grid[-1] > k_max:
        raise KTooLarge(f"candidate k={grid[-1]} exceeds the usable maximum {k_max}")
    return tuple(grid)


def loo_select_k(
    data: LabeledDataset, fit_metric: MetricKind, k_grid: Sequence[int]
) -> LooKSelection:
    """Score candidate neighborhood sizes by a leave-one-out criterion.

    For each training point the k nearest other points are found, their
    Fréchet mean is formed from that same leave-one-out set, and the
    criterion is the mean fitting-metric distance of the set members to
    that mean.  Neighbor ties are broken by row index.
    """
    _check_fit_metric(fit_metric, data)
    if data.n < 2:
        raise TooFewSamples("leave-one-out needs at least two rows")
    grid = _clean_k_grid(k_grid, data.n - 1)
    max_k = grid[-1]
    Y = data.response_values
    qw = trapezoid_weights(data.quantile_grid) if data.quantile_grid is not None else None

    def loo_scores(idx, rows):
        own = idx == rows[:, None]
        # more than max_k duplicates of lower index precede the row itself
        own[~own.any(axis=1), -1] = True
        near = idx[~own].reshape(idx.shape[0], max_k)
        out = np.empty((near.shape[0], len(grid)))
        total = np.zeros((near.shape[0], data.response_dim))
        summed = 0
        for j, k in enumerate(grid):
            for r in range(summed, k):
                total += Y[near[:, r]]
            summed = k
            center = total / k
            member = np.empty((near.shape[0], k))
            for r in range(k):
                diff = Y[near[:, r]] - center
                if qw is None:
                    member[:, r] = np.sqrt(np.einsum("cm,cm->c", diff, diff))
                else:
                    member[:, r] = np.sqrt(np.einsum("cm,m,cm->c", diff, qw, diff))
            out[:, j] = member.mean(axis=1)
        return out

    tree = cKDTree(data.predictors)
    scores = nearest_neighbors(tree, data.predictors, max_k + 1, reduce=loo_scores)
    k_star = np.asarray(grid)[np.argmin(scores, axis=1)]
    return LooKSelection(grid, scores, k_star)


def select_global_k(selection: LooKSelection) -> int:
    """Collapse per-point argmins to one k: the lower median."""
    ks = np.sort(selection.k_star)
    return int(ks[(ks.size - 1) // 2])


# ---------------------------------------------------------------------------
# mean-estimator specification


@dataclass(frozen=True)
class MeanSpec:
    """Which conditional-mean estimator to fit.

    ``kind`` is "knn" or "global".  For kNN, ``k=None`` selects k by the
    leave-one-out criterion over ``k_grid`` (median of per-point argmins).
    """

    kind: str = "knn"
    fit_metric: MetricKind = MetricKind.EUCLIDEAN_L2
    k: int | None = None
    k_grid: tuple[int, ...] | None = None


def default_k_grid(n: int) -> tuple[int, ...]:
    """Powers of two from 4 up to half the usable sample."""
    upper = max(1, n - 1)
    grid = sorted({min(upper, 2**j) for j in range(2, 10) if 2**j <= max(4, upper // 2)})
    return tuple(grid) if grid else (1,)


def fit_mean(data: LabeledDataset, spec, seed: int = 0):
    """Fit the estimator described by ``spec`` (pass-through if already fitted)."""
    if hasattr(spec, "predict_values"):
        return spec
    if spec.kind == "global":
        return fit_global_frechet(data, spec.fit_metric)
    if spec.kind != "knn":
        raise InvalidConfig(f"unknown mean estimator kind {spec.kind!r}")
    k = spec.k
    if k is None:
        grid = _clean_k_grid(spec.k_grid or default_k_grid(data.n), data.n - 1)
        # the argmin over a single candidate is that candidate
        if len(grid) > 1:
            grid = (select_global_k(loo_select_k(data, spec.fit_metric, grid)),)
        k = grid[0]
    return fit_knn_frechet(data, k, spec.fit_metric, seed)
