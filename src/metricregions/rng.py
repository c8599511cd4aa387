"""Deterministic random-number streams.

All randomness in the package flows through counter-based Philox
generators keyed by hashing a user seed together with string context
labels.  Streams derived from distinct contexts are statistically
independent, results never depend on call order, and the bit stream is
identical across platforms and runs.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream", "derive_seed", "point_seed"]

_MASK64 = (1 << 64) - 1


def _context_digest(seed: int, parts: tuple) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(int(seed & _MASK64).to_bytes(8, "little"))
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode("utf-8"))
    return h.digest()


def stream(seed: int, *context: object) -> np.random.Generator:
    """Return an isolated Philox generator for (seed, context).

    The same (seed, context) pair always yields the same bit stream;
    different contexts yield unrelated streams.
    """
    key = int.from_bytes(_context_digest(seed, context), "little")
    return np.random.Generator(np.random.Philox(key=key))


def derive_seed(seed: int, *context: object) -> int:
    """Hash (seed, context) down to a fresh 64-bit seed."""
    return int.from_bytes(_context_digest(seed, context)[:8], "little")


def point_seed(seed: int, x: np.ndarray) -> int:
    """Seed for query-local tie breaking: ``seed XOR hash(coords)``.

    Hashing the little-endian float64 bytes of the query keeps the
    result independent of batch composition and platform.  The bytes are
    those of ``coords + 0.0``, which maps ``-0.0`` to ``0.0``, so equal
    coordinates hash equal.
    """
    coords = (np.asarray(x, dtype=np.float64).ravel() + 0.0).astype("<f8")
    digest = hashlib.blake2b(coords.tobytes(), digest_size=8).digest()
    return (int(seed) ^ int.from_bytes(digest, "little")) & _MASK64
