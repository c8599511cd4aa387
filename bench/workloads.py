"""The benchmark's three workloads and their output checks.

Each workload drives the public console entry point
``metricregions.cli.main(argv)`` in-process.  ``setup`` writes the
set-up inputs, runs any set-up fit and makes one untimed warm-up call;
``prepare(op)`` writes the inputs of one op, drawn from an op-indexed
seed, and returns its argv; ``check(op)`` inspects the op's primary
output and returns a list of problems (empty when the output is right).
The program sees only the files written here.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from metricregions import cli
from metricregions.evaluate import marginal_coverage
from metricregions.regression import LabeledDataset
from metricregions.simulate import GaussianMulti, WassersteinExample, generate
from metricregions.storage import read_models_json, write_dataset_csv

# Two-sided width, in standard errors, of the statistical output checks.
# At 4.5 a correct output fails a check about once in 150 000 checks.
BAND_Z = 4.5


def call_cli(argv: list) -> None:
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"metricregions {' '.join(argv)} exited with {code}")


def _write_ini(path: Path, sections: dict) -> None:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in keys.items()]
    path.write_text("\n".join(lines) + "\n")


class Workload:
    name = ""
    output = ""  # primary output file of an op

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = int(seed)

    @property
    def output_path(self) -> Path:
        return self.work / self.output

    def seed_of(self, op) -> int:
        """Seed of one op's inputs; depends only on the run seed, the
        workload and the op index (or a label such as "warmup")."""
        digest = hashlib.blake2b(f"{self.name}/{self.seed}/{op}".encode(), digest_size=8).digest()
        return int.from_bytes(digest, "little") >> 1

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, op) -> list:
        raise NotImplementedError

    def check(self, op) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# brute-force kNN reference for predict_bulk


NEAR_TIE_REL = 1e-9


def knn_reference(points: np.ndarray, queries: np.ndarray, k: int):
    """Indices of the k nearest points per query, from direct coordinate
    differences and a full stable sort, and a mask of the rows whose k-th
    and (k+1)-th distances agree to ``NEAR_TIE_REL`` relative (their
    neighbour set is not determined by the distances alone)."""
    diff = queries[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.einsum("qnp,qnp->qn", diff, diff))
    order = np.argsort(dist, axis=1, kind="stable")
    near_tie = np.zeros(queries.shape[0], dtype=bool)
    if k < points.shape[0]:
        d_k = np.take_along_axis(dist, order[:, k - 1 : k], axis=1)[:, 0]
        d_next = np.take_along_axis(dist, order[:, k : k + 1], axis=1)[:, 0]
        near_tie = (d_next - d_k) <= NEAR_TIE_REL * d_next
    return order[:, :k], near_tie


def reference_centres(train_x, train_y, k: int, queries):
    """kNN Fréchet means of Euclidean responses: neighbour averages."""
    idx, skip = knn_reference(train_x, queries, k)
    return train_y[idx].mean(axis=1), skip


def reference_radii(calib_x, residuals, k: int, alpha: float, queries):
    """The ceil((k+1)(1-alpha))-th smallest residual among the k nearest
    calibration points, or +inf past the top."""
    idx, skip = knn_reference(calib_x, queries, k)
    j = math.ceil((k + 1) * (1.0 - alpha))
    if j > k:
        return np.full(queries.shape[0], np.inf), skip
    return np.sort(residuals[idx], axis=1)[:, j - 1], skip


# ---------------------------------------------------------------------------
# predict_bulk: bulk serving from a saved bundle


class PredictBulk(Workload):
    """Set-up fits a hetero-knn bundle on 10^4 rows of a 3-d heteroscedastic
    Gaussian scenario; each op predicts regions for its own 5000 queries."""

    name = "predict_bulk"
    output = "regions.json"
    scenario = GaussianMulti(response_dim=2, predictor_dim=3, heteroscedastic=True)
    alphas = (0.2, 0.05)
    reference_rows = 64

    def __init__(self, work: Path, seed: int, n_train: int = 10_000, n_queries: int = 5000):
        super().__init__(work, seed)
        self.n_train = n_train
        self.n_queries = n_queries
        self._queries = {}
        self._models = None

    def setup(self) -> None:
        data = generate(self.scenario, self.n_train, self.seed_of("train"))
        write_dataset_csv(self.work / "train.csv", data)
        _write_ini(self.work / "fit.ini", {
            "data": {"input": self.work / "train.csv", "seed": self.seed_of("fit")},
            "model": {
                "algorithm": "hetero-knn",
                "alpha": ", ".join(str(a) for a in self.alphas),
                "mean_k": 25,
                "k": 50,
                "region_metric": "euclidean-sup",
            },
        })
        call_cli(["fit", "--config", str(self.work / "fit.ini"), "--out", str(self.work / "models.json")])
        _write_ini(self.work / "predict.ini", {
            "predict": {"model": self.work / "models.json", "queries": self.work / "queries.csv"},
        })
        call_cli(self.prepare("warmup"))
        self._models = None

    def prepare(self, op) -> list:
        queries = generate(self.scenario, self.n_queries, self.seed_of(op))
        write_dataset_csv(self.work / "queries.csv", queries)
        self._queries = {op: queries.predictors}
        return ["predict", "--config", str(self.work / "predict.ini"), "--out", str(self.output_path)]

    def check(self, op) -> list:
        queries = self._queries[op]
        n = queries.shape[0]
        with open(self.output_path) as fh:
            rows = json.load(fh)["regions"]
        if len(rows) != len(self.alphas) * n:
            return [f"{len(rows)} regions, expected {len(self.alphas) * n}"]
        problems = []
        alphas = np.array([r["alpha"] for r in rows]).reshape(n, -1)
        if not (alphas == np.array(sorted(self.alphas, reverse=True))).all():
            problems.append("regions are not ordered by query, then by decreasing alpha")
        radius = np.array([_number(r["radius"]) for r in rows]).reshape(n, -1)
        centre = np.array([r["center"]["values"] for r in rows]).reshape(n, len(self.alphas), -1)
        echoed = np.array([r["query"] for r in rows]).reshape(n, len(self.alphas), -1)
        if not (echoed == queries[:, None, :]).all():
            problems.append("region queries do not echo the query file")
        if not (np.isfinite(radius).all() and (radius >= 0).all()):
            problems.append("a radius is negative or not finite")
        if (radius[:, -1] < radius[:, 0]).any():
            problems.append(f"alpha={min(self.alphas)} radius below the alpha={max(self.alphas)} radius")
        if problems:
            return problems
        return self._reference_check(queries, centre, radius)

    def _reference_check(self, queries, centre, radius) -> list:
        if self._models is None:
            models = read_models_json(self.work / "models.json")
            self._models = sorted(models, key=lambda m: -m.alpha)
        sample = np.random.default_rng(0).choice(queries.shape[0], self.reference_rows, replace=False)
        q = queries[sample]
        problems = []
        for j, model in enumerate(self._models):
            mean = model.mean
            ref_c, skip_c = reference_centres(
                mean.training.predictors, mean.training.response_values, mean.k, q
            )
            got_c = centre[sample, j]
            bad = ~skip_c & ~np.isclose(got_c, ref_c, rtol=1e-12, atol=0.0).all(axis=1)
            if bad.any():
                problems.append(f"alpha={model.alpha}: {int(bad.sum())} centres differ from brute force")
            ref_r, skip_r = reference_radii(
                model.calibration_predictors, model.calibration_residuals, model.k, model.alpha, q
            )
            bad = ~skip_r & (radius[sample, j] != ref_r)
            if bad.any():
                problems.append(f"alpha={model.alpha}: {int(bad.sum())} radii differ from brute force")
        return problems


def _number(v) -> float:
    return float({"inf": math.inf, "-inf": -math.inf, "nan": math.nan}.get(v, v))


# ---------------------------------------------------------------------------
# fit_tuned_w2: tuned fitting on distributional responses with ties


def lattice_wasserstein(n: int, seed: int) -> LabeledDataset:
    """WassersteinExample rows whose predictors are rounded to a 0.01
    lattice after generation, as coarsely recorded covariates are."""
    data = generate(WassersteinExample(), n, seed)
    return LabeledDataset(np.round(data.predictors, 2), data.response_values, data.quantile_grid)


class FitTunedW2(Workload):
    """Each op fits hetero-tuned (alpha 0.1, default grids) on its own
    2000-row lattice Wasserstein dataset."""

    name = "fit_tuned_w2"
    output = "models.json"
    alpha = 0.1
    n = 2000
    n_check = 2000

    def setup(self) -> None:
        _write_ini(self.work / "fit.ini", {
            "data": {"input": self.work / "data.csv"},
            "model": {"algorithm": "hetero-tuned", "alpha": self.alpha},
        })
        call_cli(self.prepare("warmup"))

    def prepare(self, op) -> list:
        write_dataset_csv(self.work / "data.csv", lattice_wasserstein(self.n, self.seed_of(op)))
        return [
            "fit", "--config", str(self.work / "fit.ini"),
            "--seed", str(self.seed_of(op)), "--out", str(self.output_path),
        ]

    def check(self, op) -> list:
        models = read_models_json(self.output_path)
        if len(models) != 1 or models[0].alpha != self.alpha:
            return [f"bundle holds {len(models)} models, expected one at alpha={self.alpha}"]
        held_out = lattice_wasserstein(self.n_check, self.seed_of(f"{op}/check"))
        cover = marginal_coverage(models[0], held_out)
        # The held-out draw adds binomial noise.  The radius k is the grid
        # value whose coverage on the calibration half is closest to
        # 1-alpha; that draw and the coarse grid together are given twice
        # the binomial variance of the calibration half (over 30 seeds the
        # measured spread needed 1.5 times).
        target = 1.0 - self.alpha
        n_calib = self.n - self.n // 2
        se = math.sqrt(target * self.alpha * (2.0 / n_calib + 1.0 / self.n_check))
        if abs(cover - target) > BAND_Z * se:
            return [f"held-out coverage {cover:.4f} outside {target} +- {BAND_Z * se:.4f}"]
        return []


# ---------------------------------------------------------------------------
# replicate_global: the simulation-study loop with a global Fréchet mean


class ReplicateGlobal(Workload):
    """Each op replicates setting1 twice (n=2000, homoscedastic radius over
    a global Fréchet mean, three alphas, 5000 evaluation rows and 20000
    Monte Carlo draws) under its own seed, on one thread."""

    name = "replicate_global"
    output = "report.json"
    alphas = (0.2, 0.1, 0.05)
    n = 2000
    replicates = 2
    eval_n = 5000
    mc_draws = 20_000

    def setup(self) -> None:
        _write_ini(self.work / "replicate.ini", {
            "data": {"scenario": "setting1", "n": self.n},
            "model": {
                "algorithm": "homoscedastic",
                "mean": "global",
                "alpha": ", ".join(str(a) for a in self.alphas),
            },
            "replicate": {
                "replicates": self.replicates,
                "eval_n": self.eval_n,
                "mc_draws": self.mc_draws,
            },
        })
        call_cli(self.prepare("warmup"))

    def prepare(self, op) -> list:
        return [
            "replicate", "--config", str(self.work / "replicate.ini"),
            "--seed", str(self.seed_of(op)), "--threads", "1", "--out", str(self.output_path),
        ]

    def check(self, op) -> list:
        with open(self.output_path) as fh:
            report = json.load(fh)
        rows = {row["alpha"]: row for row in report["per_alpha"]}
        if report["replicates"] != self.replicates or sorted(rows) != sorted(self.alphas):
            return ["report does not cover the configured replicates and alphas"]
        n2 = self.n - self.n // 2
        problems = []
        for alpha in self.alphas:
            cover = rows[alpha]["marginal_coverage"]["mean"]
            lo = 1.0 - alpha
            hi = lo + 1.0 / (n2 + 1)
            # realized coverage of a split-conformal radius is a Beta order
            # statistic, plus binomial noise over the evaluation rows,
            # averaged over the replicates
            se = math.sqrt(lo * alpha * (1.0 / (n2 + 2) + 1.0 / self.eval_n) / self.replicates)
            if not lo - BAND_Z * se <= cover <= hi + BAND_Z * se:
                problems.append(
                    f"alpha={alpha}: mean coverage {cover:.4f} outside "
                    f"[{lo - BAND_Z * se:.4f}, {hi + BAND_Z * se:.4f}]"
                )
            if not math.isfinite(_number(rows[alpha]["region_error"]["mean"])):
                problems.append(f"alpha={alpha}: region error is not finite")
        return problems


WORKLOADS = {cls.name: cls for cls in (PredictBulk, FitTunedW2, ReplicateGlobal)}
