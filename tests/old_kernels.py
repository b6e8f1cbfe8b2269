"""Copies of kernels that the current code replaced.

The distance kernels that ``cover._distance_matrix`` replaced: fbar and
fhat filled mirrored tiles of 32 (fhat: 16) rows from their own gap
reducer, and Hamming summed float32 indicator-plane products, one product
and one m x m sum per symbol (``agreements``).  The hash steps that ``rng``
now runs in place: splitmix64 and zigzag as whole-array expressions, with a
``& ~0`` pass.  The bit-identity tests compare the current code with these.
"""

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1


def mix(z):
    with np.errstate(over="ignore"):
        z = (z + _GOLDEN) & ~_U64(0)
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        return z ^ (z >> _U64(31))


def zigzag(i):
    if np.isscalar(i):
        return (2 * i) if i >= 0 else (-2 * i - 1)
    i = np.asarray(i, dtype=np.int64)
    return ((i << 1) ^ (i >> 63)).view(np.uint64)


def hash64(*parts):
    h = _U64(0)
    for p in parts:
        if np.isscalar(p):
            p = _U64(int(p) & _MASK)
        else:
            p = np.asarray(p, dtype=np.uint64)
        h = mix(h ^ p)
    return h


def pairwise_gaps(values, reduce, chunk):
    m = values.shape[0]
    out = np.empty((m, m))
    for lo in range(0, m, chunk):
        rows = values[lo : lo + chunk, None, :]
        for lo2 in range(lo, m, chunk):
            tile = reduce(np.abs(rows - values[None, lo2 : lo2 + chunk, :]))
            out[lo : lo + chunk, lo2 : lo2 + chunk] = tile
            out[lo2 : lo2 + chunk, lo : lo + chunk] = tile.T
    return out


def fbar_reduce(gaps):
    return gaps.mean(axis=2)


def fhat_reduce(gaps):
    inv = 1.0 / np.arange(1, gaps.shape[2] + 1)
    return (np.cumsum(gaps, axis=2) * inv).max(axis=2)


def agreements(labels):
    m, n = labels.shape
    dtype = np.float32 if n < 2**24 else np.float64
    agree = np.zeros((m, m), dtype=dtype)
    for s in range(int(labels.max()) + 1 if m else 0):
        plane = (labels == s).astype(dtype)
        agree += plane @ plane.T
    return agree


def pairwise_hamming(labels):
    n = labels.shape[1]
    agree = agreements(labels)
    return np.true_divide(np.subtract(n, agree, out=agree), n, dtype=np.float64)


def distance_matrix(kind, feats):
    if kind.label == "hamming":
        return pairwise_hamming(feats)
    if kind.label == "fbar":
        return pairwise_gaps(feats, fbar_reduce, 32)
    return pairwise_gaps(feats, fhat_reduce, 16)
