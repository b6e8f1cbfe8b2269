"""Deterministic seeding utilities.

Every random quantity in the package is derived from a ``RandomPlan`` by
hashing the master seed together with small integer tags, so that sample j
of any stream depends only on (master_seed, tags, j).  This is what makes
results reproducible bit-for-bit and independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1


def _mix(z, scratch=None):
    # splitmix64 finalizer; works elementwise on uint64 arrays.  Without
    # `scratch` the first sum is a new array, so the later steps run in
    # place on it; on numpy scalars (and Python ints, which the sum turns
    # into one) each step makes a new scalar, as the plain expressions would.
    # With `scratch`, a uint64 array shaped like the uint64 array z, every
    # step runs in place on z and the shifts go through scratch.
    with np.errstate(over="ignore"):  # wraparound is the point
        if scratch is None:
            z = z + _GOLDEN
        else:
            z += _GOLDEN
        z ^= _shifted(z, 30, scratch)
        z *= _MIX1
        z ^= _shifted(z, 27, scratch)
        z *= _MIX2
        z ^= _shifted(z, 31, scratch)
        return z


def _shifted(z, k: int, scratch):
    if scratch is None:
        return z >> _U64(k)
    return np.right_shift(z, _U64(k), out=scratch)


def zigzag(i: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Map the int64 array i to unsigned, preserving injectivity: 2i, or
    -2i-1 below 0.  The map runs in place on i through scratch, an int64
    array shaped like i, and returns i's uint64 view."""
    np.right_shift(i, 63, out=scratch)
    i <<= 1
    i ^= scratch
    return i.view(np.uint64)


def stream_hash(keys: np.ndarray, tag: int, starts: np.ndarray, width: int) -> np.ndarray:
    """(m, width) uint64 stream hashes: row k is hash64(keys[k], tag, zigzag(j))
    at j = starts[k] + [0, width).  The index, its zigzag and the last
    splitmix64 round run in place in the output, through one scratch array
    of its size."""
    out = np.empty((len(starts), width), dtype=np.int64)
    scratch = np.empty_like(out)
    np.add(starts[:, None], np.arange(width), out=out)
    z = zigzag(out, scratch)
    z ^= hash64(keys, tag)[:, None]
    return _mix(z, scratch.view(np.uint64))


def hash64(*parts):
    """Chained 64-bit hash of integers; the last part may be an array."""
    h = _U64(0)
    for p in parts:
        if np.isscalar(p):
            p = _U64(int(p) & _MASK)
        else:
            p = np.asarray(p, dtype=np.uint64)
        h = _mix(h ^ p)
    return h


def uniform01(h):
    """Turn 64-bit hashes into doubles in [0, 1)."""
    return (np.asarray(h, dtype=np.uint64) >> _U64(11)) * 2.0 ** -53


@dataclass(frozen=True)
class RandomPlan:
    """Master seed plus the derivation rule for all downstream streams."""

    master_seed: int

    def hashes(self, tag, index):
        """64-bit hash stream: element j is a pure function of (seed, tag, j)."""
        return hash64(self.master_seed, tag, index)

    def uniforms(self, tag, index):
        return uniform01(self.hashes(tag, index))

    def child(self, tag):
        """A derived plan with an independent stream family."""
        return RandomPlan(int(hash64(self.master_seed, tag)))

    def generator(self, *tags):
        """A numpy Generator for bulk draws (bootstrap resampling etc.)."""
        seed = int(hash64(self.master_seed, *tags)) if tags else self.master_seed
        return np.random.Generator(np.random.PCG64(seed))
