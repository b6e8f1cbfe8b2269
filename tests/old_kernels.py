"""Copies of the distance kernels that ``cover._distance_matrix`` replaced.

fbar and fhat filled mirrored tiles of 32 (fhat: 16) rows from their own
gap reducer, and Hamming summed float32 indicator-plane products in a
function of its own.  The bit-identity tests compare the current kernel
with these.
"""

import numpy as np


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


def pairwise_hamming(labels):
    m, n = labels.shape
    dtype = np.float32 if n < 2**24 else np.float64
    agree = np.zeros((m, m), dtype=dtype)
    for s in range(int(labels.max()) + 1 if m else 0):
        plane = (labels == s).astype(dtype)
        agree += plane @ plane.T
    return np.true_divide(np.subtract(n, agree, out=agree), n, dtype=np.float64)


def distance_matrix(kind, feats):
    if kind.label == "hamming":
        return pairwise_hamming(feats)
    if kind.label == "fbar":
        return pairwise_gaps(feats, fbar_reduce, 32)
    return pairwise_gaps(feats, fhat_reduce, 16)
