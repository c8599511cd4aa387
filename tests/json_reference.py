"""The stdlib JSON path the storage writers must match byte for byte.

``reference_dumps(x)`` maps numpy values and non-finite floats to plain
JSON values, then encodes them with ``json.dumps(..., indent=1,
sort_keys=True)`` plus a final newline: the bytes every JSON file of the
package had before the package got its own emitter.
"""

import json
import math

import numpy as np


def ref_jsonify(obj):
    if isinstance(obj, np.ndarray):
        return ref_jsonify(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [ref_jsonify(v) for v in obj]
    if isinstance(obj, dict):
        return {k: ref_jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isfinite(f):
            return f
        return "nan" if math.isnan(f) else ("inf" if f > 0 else "-inf")
    return obj


def reference_dumps(obj) -> bytes:
    return (json.dumps(ref_jsonify(obj), indent=1, sort_keys=True) + "\n").encode()
