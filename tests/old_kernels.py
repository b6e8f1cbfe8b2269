"""Copies of kernels that the current code replaced.

The distance kernels that ``cover._distance_matrix`` replaced: fbar and
fhat filled mirrored tiles of 32 (fhat: 16) rows from their own gap
reducer, and Hamming summed float32 indicator-plane products, one product
and one m x m sum per symbol (``agreements``); fbar/fhat matrices are now
read pair by pair in the one screened tile walk (``cover._screened_pairs``)
with no pivot.  The farthest pair of each cluster, which
``cover._farthest_pair`` now finds in that walk, screened at the largest
pivot distance (fbar/fhat), or as the least agreement count (Hamming), came
from the cluster's whole distance block (``cluster_maxima``, here on the
old kernels).  The hash steps that ``rng`` now runs in place: splitmix64
and zigzag as whole-array expressions, with a ``& ~0`` pass; a stream's
zigzagged index is now one add with the negative entries inverted, and its
doubling bits skip splitmix64's last step (``rng.stream_bits``).  A
character read, which now writes cos and sin of its phase into the two
halves of its complex buffer, was ``np.exp`` of the complex product, in
place (``character_rows``).  A power-of-two window word, which
``systems._window_words`` now returns as a view, was a ``<< 0`` copy of it
(``window_words``).
Circle cell labels, which ``systems._circle_labels`` now counts one cut
comparison at a time in the narrowest unsigned type, placed the values
among the cuts with ``searchsorted`` into int64 (``circle_labels``).  A
Hamming row, whose mismatch flags ``cover._chunk_distances`` now sums in
the narrowest unsigned type that holds n, was ``count_nonzero`` of the
flags (``hamming_rows``).  The bit-identity tests compare the current code
with these.
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


def character_rows(k, values):
    z = np.multiply(2j * np.pi * k, values)
    return np.exp(z, out=z)


def window_words(bits, n, width):
    word = None
    w, size, end = bits, 1, width
    while True:
        if width & size:
            end -= size
            piece = w[:, end : end + n] << (width - end - size)
            if word is None:
                word = piece
            else:
                word += piece
        if 2 * size > width:
            return word
        w = (w[:, :-size] << size) + w[:, size:]
        size *= 2


def circle_labels(cuts, values):
    return (np.searchsorted(cuts, values, side="right") - 1) % len(cuts)


def hamming_rows(a, b):
    return np.count_nonzero(a != b, axis=-1) / a.shape[-1]


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


def cluster_maxima(kind, feats, clusters):
    out = []
    for cluster in clusters:
        if len(cluster) < 2:
            out.append((cluster[0] if cluster else -1, -1, 0.0))
            continue
        idx = np.array(cluster)
        sub = distance_matrix(kind, feats[idx])
        # -inf on and below the diagonal: argmax is then the first maximum
        # above it in row order
        sub[np.tri(len(idx), dtype=bool)] = -np.inf
        i, j = divmod(int(np.argmax(sub)), len(idx))
        out.append((int(idx[i]), int(idx[j]), float(sub[i, j])))
    return out
