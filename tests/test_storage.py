"""The JSON emitter against the stdlib reference in json_reference.py."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from json_reference import reference_dumps
from metricregions import storage

_FLOATS = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, -2.5e300]

_PAYLOADS = {
    "floats": {"values": _FLOATS, "one": 1e16, "small": 1e-7},
    "numpy-scalars": {
        "int64": np.int64(-7),
        "uint8": np.uint8(200),
        "bool": np.bool_(True),
        "false": np.bool_(False),
        "float32": np.float32(0.1),
        "float32-inf": np.float32("inf"),
        "float64-nan": np.float64("nan"),
        "python": [True, False, 3, -0.0],
    },
    "empties": {"none": None, "list": [], "dict": {}, "array": np.zeros(0), "tuple": ()},
    "arrays": {
        "0d": np.array(2.5),
        "0d-inf": np.array(-np.inf),
        "1d": np.array(_FLOATS),
        "2d": np.arange(6.0).reshape(2, 3) / 7.0,
        "3d": np.arange(24.0).reshape(2, 3, 4) * 1e-3,
        "2d-nonfinite": np.array([[1.0, np.inf], [np.nan, -np.inf]]),
        "3d-nonfinite": np.array([[[np.nan]], [[-0.0]]]),
        "column": np.array([[0.5], [1.5]]),
        "float32": np.array([0.1, 1e-40, np.inf], dtype=np.float32),
        "ints": np.arange(4).reshape(2, 2),
        "bools": np.array([True, False]),
        "empty-rows": np.zeros((2, 0)),
        "empty-cols": np.zeros((0, 3)),
        "empty-middle": np.zeros((2, 0, 3)),
    },
    "strings": {"quote": 'a"b', "backslash": "c\\d", "control": "e\nf\tg\0", "unicode": "é ∞ 😀"},
    "nested": {"z": {"y": {"b": [1, {"d": 2, "c": None}], "a": 0.5}}, "b": [[[]], [{}]], "a": "x"},
}


def _written(tmp_path, obj) -> bytes:
    path = tmp_path / "out.json"
    storage._dump_json(path, obj)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(_PAYLOADS))
def test_emitter_matches_stdlib_reference(tmp_path, name):
    obj = _PAYLOADS[name]
    assert _written(tmp_path, obj) == reference_dumps(obj)


@pytest.mark.parametrize("obj", [None, True, 3, -0.0, math.inf, "s", [], {}, np.zeros(0), [np.zeros((1, 1))]])
def test_emitter_matches_stdlib_reference_at_top_level(tmp_path, obj):
    assert _written(tmp_path, obj) == reference_dumps(obj)


# json.dump would write the int key as "1"; the emitter takes string keys only
@pytest.mark.parametrize("obj", [{"c": 1j}, {"s": {1, 2}}, {"a": np.array([1j])}, {1: "int key"}])
def test_emitter_rejects_values_it_cannot_write(tmp_path, obj):
    with pytest.raises(TypeError):
        storage._dump_json(tmp_path / "out.json", obj)


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=5)
)
_ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.float32, np.int32, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
)
_TREES = st.recursive(
    _SCALARS | _ARRAYS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(_TREES)
def test_emitter_matches_stdlib_reference_on_random_trees(obj):
    assert (storage._encode(obj) + "\n").encode() == reference_dumps(obj)


def test_bundle_written_through_the_emitter_matches_reference(tmp_path, rng_np):
    arrays = {
        "predictors": rng_np.normal(size=(50, 3)),
        "heavy": rng_np.standard_cauchy(size=(20, 2)) ** 3,
        "residuals": np.where(rng_np.random(40) < 0.2, np.inf, rng_np.exponential(size=40)),
    }
    path = tmp_path / "report.json"
    storage.write_report_json(path, arrays)
    expected = {"format": storage.REPORT_FORMAT, "version": storage.FORMAT_VERSION, **arrays}
    assert path.read_bytes() == reference_dumps(expected)
