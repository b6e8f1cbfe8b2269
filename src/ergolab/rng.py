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


def _mix(z):
    # splitmix64 finalizer; works elementwise on uint64 arrays
    with np.errstate(over="ignore"):  # wraparound is the point
        z = (z + _GOLDEN) & ~_U64(0)
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        return z ^ (z >> _U64(31))


def zigzag(i):
    """Map signed ints (scalar or array) to unsigned, preserving injectivity."""
    if np.isscalar(i):
        return (2 * i) if i >= 0 else (-2 * i - 1)
    i = np.asarray(i, dtype=np.int64)
    return ((i << 1) ^ (i >> 63)).view(np.uint64)  # 2i, or -2i-1 = ~2i below 0


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
