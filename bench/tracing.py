"""Outside-in layer tracing for the benchmark.

The tracer wraps public names of the ``metricregions`` package in every
module namespace where a caller looks them up, and wraps methods on their
class.  Nothing under ``src/`` changes: the wrappers are installed for the
traced run only and removed afterwards.

A span holds name, start, end, parent span and op id.  Spans stay in
memory and are written out once, when the run ends.  A layer's self time
is its span's duration minus the part of that interval its child spans
cover.  Counts are taken from call arguments and return shapes, at the
same boundaries as the spans.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from collections import defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter
from typing import Callable, Optional

import numpy as np

PACKAGE = "metricregions"

_STORAGE_READS = ("read_queries_csv", "read_models_json", "read_dataset_csv")
_STORAGE_WRITES = ("write_regions_json", "write_models_json", "write_report_json")
_FITS = ("fit_homoscedastic", "fit_heteroscedastic_knn", "fit_hetero_tuned")
_EVALUATE = ("evaluate_model", "coverage_indicators", "smooth_indicators", "symmetric_difference_error")

# (name, unit, better) of every metric ``layer_metrics`` reports
LAYER_METRICS = (
    [("cli.main.self_s", "s", "lower")]
    + [
        (f"storage.{attr}.{kind}", unit, "lower")
        for attr in _STORAGE_READS + _STORAGE_WRITES
        for kind, unit in (("self_s", "s"), ("bytes", "bytes"))
    ]
    + [
        ("simulate.generate.self_s", "s", "lower"),
        ("simulate.generate.rows", "count", "lower"),
        ("simulate.oracle_contains.self_s", "s", "lower"),
        ("regression.loo_select_k.self_s", "s", "lower"),
        ("regression.loo_select_k.pairs", "count", "lower"),
    ]
    + [
        (f"regression.{cls}.predict_values.{kind}", unit, "lower")
        for cls in ("GlobalFrechetModel", "KnnFrechetModel")
        for kind, unit in (("self_s", "s"), ("rows", "count"), ("calls", "count"))
    ]
    + [
        ("knn_rows_per_query", "ratio", "lower"),
        ("regions.HeteroscedasticRegionModel.radii.self_s", "s", "lower"),
        ("regions.HeteroscedasticRegionModel.radii.rows", "count", "lower"),
        ("regions.radii_rows_per_query", "ratio", "lower"),
        ("regions.tune_k_marginal.self_s", "s", "lower"),
        ("regions.tune_k_marginal.rows", "count", "lower"),
        ("regions.tie_fallback_rows", "count", "lower"),
        ("regions.tie_fallback_share", "ratio", "lower"),
    ]
    + [(f"regions.{attr}.self_s", "s", "lower") for attr in _FITS]
    + [
        ("regions.calibration_residuals_s", "s", "lower"),
        ("metrics.rowwise_distance.self_s", "s", "lower"),
        ("metrics.rowwise_distance.rows", "count", "lower"),
    ]
    + [(f"evaluate.{attr}.self_s", "s", "lower") for attr in _EVALUATE]
    + [
        ("evaluate.coverage_indicators.rows", "count", "lower"),
        ("evaluate.indicator_rows_per_distinct_row", "ratio", "lower"),
    ]
)

# spans whose time counts as calibration residuals when a fit_* span is their parent
_FIT_SPANS = {f"regions.{attr}" for attr in _FITS}
_RESIDUAL_SPANS = {
    "regression.KnnFrechetModel.predict_values",
    "regression.GlobalFrechetModel.predict_values",
    "metrics.rowwise_distance",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


def self_times(spans: list) -> list:
    """Per-span self time: duration minus the union of its children's
    intervals, clipped to the span itself."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def _array_digest(a) -> bytes:
    arr = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(arr.shape).encode())
    h.update(arr.tobytes())
    return h.digest()


def _rows(result) -> int:
    return int(np.shape(result)[0]) if np.ndim(result) else 1


class Tracer:
    """Collects spans and per-op counters while ``op`` is set."""

    def __init__(self):
        self.spans: list = []
        self.op: Optional[int] = None
        self._stack: list = []
        self._patches: list = []
        # op -> counter name -> value
        self._counts = defaultdict(lambda: defaultdict(float))
        # op -> group -> key -> (rows, object kept alive so its id is not reused)
        self._seen = defaultdict(lambda: defaultdict(dict))

    # -- recording ----------------------------------------------------------

    def count(self, name: str, value: float) -> None:
        self._counts[self.op][name] += value

    def seen(self, group: str, key, rows: int, keep=None) -> None:
        """Record ``rows`` input rows under ``key``; repeats of a key are
        not distinct work."""
        self._seen[self.op][group].setdefault(key, (rows, keep))

    def _wrap(self, name: str, fn: Callable, counter: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, perf_counter(), 0.0, parent, tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end = perf_counter()
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return wrapper

    def _wrap_counter(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                tracer.count(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch_function(self, module, attr: str, wrapper_for: Callable) -> None:
        """Replace ``module.attr`` in every package namespace that holds it."""
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, counter: Optional[Callable]) -> None:
        original = cls.__dict__[attr]
        name = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}.{attr}"
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, counter))

    def install(self) -> None:
        """Wrap every traced name; ``uninstall`` restores the originals."""
        from metricregions import cli, evaluate, metrics, regions, regression, rng, simulate, storage

        def span(module, attr, counter=None):
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            self._patch_function(module, attr, lambda fn: self._wrap(name, fn, counter))

        span(cli, "main")
        for attr in _STORAGE_READS + _STORAGE_WRITES:
            span(storage, attr, _file_bytes(f"storage.{attr}.bytes"))
        span(simulate, "generate", _generate_rows)
        span(simulate, "oracle_contains")
        span(regression, "loo_select_k", _loo_counts)
        self._patch_method(regression.GlobalFrechetModel, "predict_values", _global_predict_counts)
        self._patch_method(regression.KnnFrechetModel, "predict_values", _knn_predict_counts)
        self._patch_method(regions.HeteroscedasticRegionModel, "radii", _radii_counts)
        span(regions, "tune_k_marginal", _tune_counts)
        for attr in _FITS:
            span(regions, attr)
        span(metrics, "rowwise_distance", _distance_rows)
        for attr in _EVALUATE:
            span(evaluate, attr, _indicator_counts if attr == "coverage_indicators" else None)
        # regions calls rng.point_seed once per query row that falls back to
        # seeded tie-breaking; counted, not timed
        self._patch_function(
            rng, "point_seed", lambda fn: self._wrap_counter("regions.tie_fallback_rows", fn)
        )

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- reporting ----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

    def layer_metrics(self, n_ops: int, count_ops: list) -> dict:
        """Every metric in ``LAYER_METRICS``.

        Times are seconds per op, averaged over the ``n_ops`` traced ops.
        Counts and the ratios built from them are per-op means over the
        ops listed in ``count_ops``, whose inputs depend on the seed
        alone, so two runs of the same code report identical counts.
        An absent layer reads 0, and so does a ratio whose base is 0.
        """
        out = {name: 0.0 for name, _, _ in LAYER_METRICS}
        for s, own in zip(self.spans, self_times(self.spans)):
            out[f"{s.name}.self_s"] += own / n_ops
            if (
                s.name in _RESIDUAL_SPANS
                and s.parent is not None
                and self.spans[s.parent].name in _FIT_SPANS
            ):
                out["regions.calibration_residuals_s"] += (s.end - s.start) / n_ops

        totals = defaultdict(float)
        distinct = defaultdict(float)
        for op in count_ops:
            for name, value in self._counts.get(op, {}).items():
                totals[name] += value
            for group, keys in self._seen.get(op, {}).items():
                distinct[group] += sum(rows for rows, _ in keys.values())
        for name in out:
            if name in totals:
                out[name] = totals[name] / len(count_ops)

        def ratio(num, den):
            return num / den if den else 0.0

        radius_rows = totals["regions.HeteroscedasticRegionModel.radii.rows"]
        out["knn_rows_per_query"] = ratio(
            totals["regression.KnnFrechetModel.predict_values.rows"], distinct["knn"]
        )
        out["regions.radii_rows_per_query"] = ratio(radius_rows, distinct["radii"])
        out["regions.tie_fallback_share"] = ratio(
            totals["regions.tie_fallback_rows"],
            radius_rows + totals["regions.tune_k_marginal.rows"],
        )
        out["evaluate.indicator_rows_per_distinct_row"] = ratio(
            totals["evaluate.coverage_indicators.rows"], distinct["indicators"]
        )
        return out


# ---------------------------------------------------------------------------
# counters: (tracer, args, kwargs, result) -> None


def _file_bytes(name: str) -> Callable:
    def counter(tracer, args, kwargs, result):
        tracer.count(name, os.path.getsize(args[0]))

    return counter


def _generate_rows(tracer, args, kwargs, result):
    tracer.count("simulate.generate.rows", result.n)


def _loo_counts(tracer, args, kwargs, result):
    tracer.count("regression.loo_select_k.pairs", result.scores.size)


def _global_predict_counts(tracer, args, kwargs, result):
    tracer.count("regression.GlobalFrechetModel.predict_values.rows", _rows(result))
    tracer.count("regression.GlobalFrechetModel.predict_values.calls", 1)


def _knn_predict_counts(tracer, args, kwargs, result):
    """kNN mean rows, and the distinct query rows among them."""
    rows = _rows(result)
    tracer.count("regression.KnnFrechetModel.predict_values.rows", rows)
    tracer.count("regression.KnnFrechetModel.predict_values.calls", 1)
    tracer.seen("knn", _array_digest(args[1]), rows)


def _radii_counts(tracer, args, kwargs, result):
    rows = _rows(result)
    tracer.count("regions.HeteroscedasticRegionModel.radii.rows", rows)
    tracer.seen("radii", _array_digest(args[1]), rows)


def _tune_counts(tracer, args, kwargs, result):
    tune_set = args[2] if len(args) > 2 else kwargs["tune_set"]
    tracer.count("regions.tune_k_marginal.rows", tune_set.n * len(result.k_grid))


def _distance_rows(tracer, args, kwargs, result):
    tracer.count("metrics.rowwise_distance.rows", _rows(result))


def _indicator_counts(tracer, args, kwargs, result):
    model, eval_set = args[0], args[1]
    rows = _rows(result)
    tracer.count("evaluate.coverage_indicators.rows", rows)
    key = (id(model), _array_digest(eval_set.predictors), _array_digest(eval_set.response_values))
    tracer.seen("indicators", key, rows, keep=model)
