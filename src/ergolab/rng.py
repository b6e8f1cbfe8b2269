"""Deterministic seeding utilities.

Every random quantity in the package is derived from a ``RandomPlan`` by
hashing the master seed together with small integer tags, so that sample j
of any stream depends only on (master_seed, tags, j).  This is what makes
results reproducible bit-for-bit and independent of evaluation order.

The symbol streams of the stream families are read a block at a time:
``stream_hash`` gives the (m, width) hashes of m streams over a window of
indices, and ``stream_bits`` their top bits, the doubling bits, with no
last splitmix64 step, which leaves the top bit alone.  Both build each
row's zigzagged index with one add and run splitmix64 in place in their
output.
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
    z = _mix_head(z, scratch)
    z ^= _shifted(z, 31, scratch)
    return z


def _mix_head(z, scratch):
    # every splitmix64 step but the last, z ^= z >> 31, which leaves bit 63
    # as it is: the top bit of the head is the top bit of the hash
    with np.errstate(over="ignore"):  # wraparound is the point
        if scratch is None:
            z = z + _GOLDEN
        else:
            z += _GOLDEN
        z ^= _shifted(z, 30, scratch)
        z *= _MIX1
        z ^= _shifted(z, 27, scratch)
        z *= _MIX2
        return z


def _shifted(z, k: int, scratch):
    if scratch is None:
        return z >> _U64(k)
    return np.right_shift(z, _U64(k), out=scratch)


def _keyed_index(keys: np.ndarray, tag: int, starts: np.ndarray, width: int) -> np.ndarray:
    """(m, width) uint64: row k is zigzag(j) ^ hash64(keys[k], tag) at
    j = starts[k] + [0, width), zigzag(j) being 2j, or -2j-1 = ~2j below 0.
    Each row's 2j is one add of 2 starts[k] and the even numbers, mod 2^64,
    and only the entries whose j is negative, a prefix of
    c_k = min(width, -starts[k]) entries, are inverted."""
    starts = np.asarray(starts, dtype=np.int64)
    out = np.empty((len(starts), width), dtype=np.uint64)
    np.add((starts.view(np.uint64) << _U64(1))[:, None],
           np.arange(0, 2 * width, 2, dtype=np.uint64), out=out)
    negative = -np.clip(starts, -width, 0)  # clip first: -starts can wrap
    if negative.any():
        np.invert(out, out=out, where=np.arange(width) < negative[:, None])
    out ^= hash64(keys, tag)[:, None]
    return out


def stream_hash(keys: np.ndarray, tag: int, starts: np.ndarray, width: int) -> np.ndarray:
    """(m, width) uint64 stream hashes: row k is hash64(keys[k], tag, zigzag(j))
    at j = starts[k] + [0, width), zigzag(j) being 2j, or -2j-1 below 0.
    The zigzagged index is built in the output and the last splitmix64
    round runs in place on it, through one scratch array of its size."""
    z = _keyed_index(keys, tag, starts, width)
    return _mix(z, np.empty_like(z))


def stream_bits(keys: np.ndarray, tag: int, starts: np.ndarray, width: int) -> np.ndarray:
    """(m, width) int64: the top bit of each stream hash of `stream_hash`.
    splitmix64 stops before its last step, which leaves bit 63 alone, and
    the bit is shifted down in place."""
    z = _keyed_index(keys, tag, starts, width)
    z = _mix_head(z, np.empty_like(z))
    return np.right_shift(z, _U64(63), out=z).view(np.int64)


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
