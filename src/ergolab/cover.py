"""Covering complexity of Birkhoff pseudo-metric balls.

The central quantity is the least number of radius-eps balls (in the
Hamming, fbar or fhat pseudo-metric at horizon n) whose union carries
measure strictly above 1 - eps.  Two routes are provided:

* ``estimate_cover_number`` -- greedy weighted set cover over
  sample-centered balls; an upper-biased estimate, deterministic
  given the inputs.
* ``exact_cover_number_small`` -- exhaustive branch-and-bound over a
  finite word distribution; the independent small-instance oracle.

Strict inequalities (< eps for ball membership, > 1-eps for covered
mass) follow the definitions exactly.  One kernel serves every distance
read (covers, cluster rows and farthest pairs, the oracle, ``ball_member``,
``pairwise_distances``): ``_distance_row`` for one row,
``_distance_pairs`` for scattered pairs, ``_distance_matrix`` for a whole
matrix.  They share one per-pair formula (``_chunk_distances``), agree bit
for bit, and every fbar/fhat chunk and tile is sized from the one byte
budget ``systems._CHUNK_BYTES``.  A Hamming row sums its mismatch flags into
the narrowest unsigned type that holds n, an exact count, and divides by n.
Both cover routes count mass in exact integer units, so boundary ties
resolve to "not covered".

A cover needs only the relation d < eps, and ``_ball_matrix`` builds it
bit for bit as ``_distance_matrix(...) < eps`` without a float m x m
array.  Hamming balls compare exact agreement counts with the least count
whose distance falls below eps.  The counts are one GEMM per column block
of stacked indicator planes (a signed plane for two symbols), exact
integers, so a complexity curve reads its labels once at the top horizon
and adds each rung's new columns to the counts of the rung before
(_hamming_balls); ``_ball_matrix`` is the one-horizon case.  fbar/fhat
curves take prefixes of one value read.  fbar/fhat are pseudo-metrics, so
the exact distance rows of four far-apart pivots (``_pivot_rows``) bound
every other distance through the triangle inequality, |d(i,p) - d(j,p)| <=
d(i,j) <= d(i,p) + d(j,p); widened by a proved bound on the kernel's
rounding (``_kernel_bound``), they prove pairs inside or outside a radius
r.  One walk over the square tiles above the diagonal (``_screened_pairs``)
tests them and reduces each pair left open once.  Balls take r = eps: a
rotation settles most pairs, a mixing family such as doubling few.  The
farthest pair of an equipartition cluster (``_farthest_pair``) takes r =
LB, the largest pivot distance: no pair is proved beyond it, and a pair
proved below it is not the farthest.  ``_distance_matrix`` takes no pivot.
A Hamming cluster's farthest pair is its least exact agreement count.

One greedy, ``_greedy_cover``, serves the point estimate and every
bootstrap resample of a curve in one call, and the oracle's upper bound.
Its picks come in strictly increasing key order (-gain, index) and do not
interact across components of the ball graph, so it steps every (row,
component) in lockstep on exact integer gains and merges the sequences by
key.  Where one component holds every sample, a step is a plain argmax per
row and needs no merge.  The gains are built and updated from the bool
balls in blocks of rows, so the greedy holds no m x m float copy.  A cover
whose m x m arrays or m x n feature read would exceed
``systems._MATRIX_BYTES`` raises BudgetExhaustedError before it builds any
of them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BudgetExhaustedError,
    InstanceTooLargeError,
    InvalidParameterError,
)
from .observables import Observable
from .partitions import NameWord, Partition, name_rows
from .rng import RandomPlan
from .systems import SystemHandle, _check_bytes, _chunk_rows

# word cap of the exact oracle: its W x W arrays, charged
# _COVER_ENTRY_BYTES per entry, stay near 218 MB
_ORACLE_WORDS = 4096
# bytes per entry of a cover's m x m arrays, at most 10 of them in use: the
# float32 Hamming agreement counts, with a block product added to them
# beside the bool balls of this rung and the last, or with the balls and,
# on a ball graph of several components, the greedy's member list and one
# label read of it (at most 4 bytes); the greedy holds no m x m float copy
_COVER_ENTRY_BYTES = 13
# bytes per entry of _distance_matrix at its peak: the float64 distances
# beside the float32 Hamming agreement counts they are divided from; also
# charged for the agreement counts of a Hamming cluster (_farthest_pair),
# whose plane block and block product peak near it at long horizons
_MATRIX_ENTRY_BYTES = 12
# bytes per entry charged for a feature read that is not a sampled name read
# (which is charged at the width it stores): the int64 labels of NameWords,
# or observable values read as complex128, the widest type an observable
# returns
_WORD_BYTES = 8
_VALUE_BYTES = 16
# pivot rows of the fbar/fhat tile walk (_screened_pairs)
_PIVOTS = 4


# ---------------------------------------------------------------------------
# Metric kinds


@dataclass(frozen=True)
class HammingKind:
    partition: Partition
    label = "hamming"


@dataclass(frozen=True)
class FbarKind:
    observable: Observable
    label = "fbar"


@dataclass(frozen=True)
class FhatKind:
    observable: Observable
    label = "fhat"


MetricKind = HammingKind | FbarKind | FhatKind


def _metric_kind(target, fhat: bool = False) -> MetricKind:
    """The metric a target reads: Hamming for a partition, else fbar (fhat
    when asked) for an observable."""
    if isinstance(target, Partition):
        return HammingKind(target)
    return FhatKind(target) if fhat else FbarKind(target)


def _sample_features(kind, system, samples, n) -> np.ndarray:
    """(m, n) horizon-n features: observable values, or name labels (cell
    indices, precomputed NameWords taken as they are) in the narrowest
    unsigned type that holds them.

    Sampled labels are read straight into the narrowest type that holds
    every cell index of the partition, chunk by chunk, and that read is
    charged at its own width; no (m, n) int64 array is built.  NameWords
    are stacked as int64 and charged 8 bytes per entry; they are the one
    Hamming input read without a system.
    """
    if n < 1:
        raise InvalidParameterError("horizon must be >= 1")
    words = len(samples) and isinstance(samples[0], NameWord)
    if system is None and not (words and isinstance(kind, HammingKind)):
        raise InvalidParameterError("samples other than Hamming NameWords need a system")
    what = f"a feature read of {len(samples)} samples at horizon {n}"
    if not isinstance(kind, HammingKind):
        _check_bytes(len(samples) * n * _VALUE_BYTES, what)
        return kind.observable.orbit_rows(system, samples, n)
    if words:
        _check_bytes(len(samples) * n * _WORD_BYTES, what)
        if any(w.n != n for w in samples):
            raise InvalidParameterError("name word length differs from horizon")
        labels = np.array([w.symbols for w in samples], dtype=np.int64).reshape(-1, n)
    else:
        # capped at uint64: past 2**64 cells the type would be object
        cells = np.min_scalar_type(min(kind.partition.cell_count, 2**64) - 1)
        _check_bytes(len(samples) * n * cells.itemsize, what)
        labels = name_rows(system, kind.partition, samples, n, dtype=cells)
    return labels.astype(np.min_scalar_type(labels.max(initial=0)), copy=False)


def _reduce_gaps(kind: MetricKind, gaps: np.ndarray) -> np.ndarray:
    """fbar or fhat along the last axis of gaps |v_i - v_j|, which holds one
    contiguous row per pair: the mean, or the maximum of the running means."""
    if isinstance(kind, FbarKind):
        return gaps.mean(axis=-1)
    if not isinstance(kind, FhatKind):
        raise TypeError(f"no gap reducer for {type(kind).__name__}")
    return _running_means(gaps).max(axis=-1)


def _running_means(gaps: np.ndarray) -> np.ndarray:
    """The means of the first k gaps along the last axis, k = 1..n."""
    return np.cumsum(gaps, axis=-1) * (1.0 / np.arange(1, gaps.shape[-1] + 1))


def _chunk_distances(kind: MetricKind, a: np.ndarray, b: np.ndarray, gaps=None) -> np.ndarray:
    """The distances of the row pairs of two broadcastable chunks of
    features, along their last axis: a Hamming mismatch count divided by n,
    or one contiguous row of fbar/fhat gaps per pair (_reduce_gaps).  The
    Hamming mismatch flags a != b, or the fbar/fhat differences a - b, are
    written into gaps when it is given (it may be a itself), else into a
    fresh temporary.  The flags are summed in the narrowest unsigned type
    that holds n: an exact count, so its float quotient by n is the one
    every kernel reads."""
    if isinstance(kind, HammingKind):
        n = a.shape[-1]
        return np.not_equal(a, b, out=gaps).sum(axis=-1, dtype=np.min_scalar_type(n)) / n
    return _reduce_gaps(kind, np.abs(np.subtract(a, b, out=gaps)))


def _gap_width(feats: np.ndarray) -> int:
    """Width, in 8-byte items, of one row of a gap temporary of feats: a
    complex128 difference takes two items per entry."""
    return feats.shape[1] * max(8, feats.itemsize) // 8


def _distance_row(kind: MetricKind, feats: np.ndarray, i) -> np.ndarray:
    """Row i of the distance matrix of feats, bit for bit, without the rest
    of it; its columns are read in chunks whose gap temporary stays near
    systems._CHUNK_BYTES.  The per-pair arithmetic (_chunk_distances) does
    not depend on the chunk shape."""
    m = len(feats)
    out = np.empty(m)
    step = _chunk_rows(_gap_width(feats))
    flags = None  # one Hamming flag buffer for every chunk of the read
    if isinstance(kind, HammingKind):
        flags = np.empty((min(step, m), feats.shape[1]), dtype=bool)
    for lo in range(0, m, step):
        part = feats[lo : lo + step]
        gaps = None if flags is None else flags[: len(part)]
        out[lo : lo + step] = _chunk_distances(kind, feats[i], part, gaps)
    return out


def _distance_pairs(kind: MetricKind, feats: np.ndarray, i, j) -> np.ndarray:
    """The distances of the row pairs (feats[i[k]], feats[j[k]]), bit for bit
    as _distance_row reads them (_chunk_distances), in chunks of pairs whose
    temporary stays near systems._CHUNK_BYTES.  The gathered left rows are
    the read's own, so their differences, or their Hamming mismatch flags
    (an unsigned label takes the bool safely), overwrite them: with a fresh
    difference per chunk, the farthest pair of a 600-sample Bernoulli
    cell-indicator cluster at n = 64 took 4 times as long in a fresh
    process."""
    out = np.empty(len(i))
    step = _chunk_rows(_gap_width(feats))
    for lo in range(0, len(i), step):
        a = feats[i[lo : lo + step]]
        out[lo : lo + step] = _chunk_distances(kind, a, feats[j[lo : lo + step]], a)
    return out


def _agreements(labels: np.ndarray, agree: Optional[np.ndarray] = None) -> np.ndarray:
    """agree plus the m x m counts of time steps at which two label rows
    agree, added in place; a fresh float32 matrix (float64 once n >= 2**24)
    when agree is None.

    One GEMM, E @ E.T, per block of k columns.  With L >= 3 symbols E holds
    the block's stacked indicator planes [P_0|...|P_{L-1}], P_s = (labels ==
    s), and E @ E.T is the block's agreement count.  With two symbols E is
    the signed plane S = P_0 - P_1, and S @ S.T counts agreements minus
    disagreements, so the count is (k + S @ S.T) / 2.  Every partial sum is
    an integer of size at most k, and every total at most the matrix's
    horizon, so float32 is exact below 2**24, whatever the BLAS blocking or
    thread count.  A block holds about max(m, _chunk_rows(m)) plane columns:
    E is no larger than the counts unless m is small.
    """
    m, n = labels.shape
    fresh = agree is None
    if fresh:
        agree = np.zeros((m, m), dtype=np.float32 if n < 2**24 else np.float64)
    if not labels.size:
        return agree
    symbols = int(labels.max()) + 1
    planes = 1 if symbols == 2 else symbols
    step = max(1, max(m, _chunk_rows(m)) // planes)
    values = np.arange(symbols, dtype=labels.dtype)[:, None]
    E = gram = None  # gram holds every product but that of a fresh first block
    for lo in range(0, n, step):
        block = labels[:, lo : lo + step]
        k = block.shape[1]
        if E is None or E.shape[1] != planes * k:
            E = np.empty((m, planes * k), dtype=agree.dtype)
        if symbols == 2:
            np.equal(block, 0, out=E, casting="unsafe")
            E *= 2
            E -= 1
        else:
            np.equal(block[:, None, :], values, out=E.reshape(m, symbols, k),
                     casting="unsafe")
        into = agree if fresh and lo == 0 else gram
        if into is None:
            into = gram = np.empty_like(agree)
        np.matmul(E, E.T, out=into)
        if symbols == 2:
            into += k
            into *= 0.5
        if into is gram:
            agree += gram
    return agree


def _least_agreement(n: int, eps: float) -> int:
    """The least agreement count a at which the kernel's Hamming distance
    (n - a) / n falls below eps (n + 1 when none does); that float quotient
    is monotone in a, so agree >= a is exactly distance < eps."""
    agree = np.arange(n + 1)
    below = np.true_divide(n - agree, n, dtype=np.float64) < eps
    return n + 1 - int(np.count_nonzero(below))


def _hamming_balls(labels: np.ndarray, horizons, eps: float):
    """Yield _distance_matrix(kind, labels[:, :n]) < eps for each n of the
    increasing horizons, bit for bit, from one running agreement matrix:
    the counts at n are those at the previous horizon plus _agreements over
    the columns between, exact integers either way."""
    m, top = labels.shape
    agree = None if top < 2**24 else np.zeros((m, m))
    done = 0
    for n in horizons:
        agree = _agreements(labels[:, done:n], agree)
        done = n
        yield agree >= _least_agreement(n, eps)


def _kernel_bound(n: int) -> float:
    """c with which the pivot screen of the tile walk (_screened_pairs)
    settles a pair only on the side of its radius r that the kernel's own
    distance falls on: eps in _ball_matrix, the largest pivot distance in
    _farthest_pair.

    The features are float64 or complex128.  With u = 2**-53 and
    gamma_k = k u / (1 - k u), the fbar/fhat kernel computes, for two rows
    of n features, a distance d^ with |d^ - d| <= kappa d, kappa =
    gamma_{n+6}, against the exact pseudo-metric d of the same two rows:

    * a gap |fl(v_i - v_j)| is within u of its exact value, since the
      subtraction is correctly rounded per component; np.abs on complex
      numbers is assumed within 4u of |z| (numpy's SIMD hypot is not
      correctly rounded; 2u is the largest error measured on random inputs
      against math.hypot), so every gap is within gamma_5;
    * a sum of n nonnegative terms in any order (mean's pairwise sum,
      cumsum's running sums) is within gamma_{n-1} of the exact sum of its
      terms, so within gamma_{n+4} of the exact sum of the exact gaps;
    * fbar divides that sum by n once; fhat multiplies the k-th running sum
      by the rounded 1/k (two roundings) and takes an exact maximum, which
      keeps the relative bound: gamma_{n+6} in both.

    For pivot distances a = d^(i, p), b = d^(j, p) with exact values A and
    B, |A - a| <= kappa' a with kappa' = kappa / (1 - kappa), and the
    triangle inequality |A - B| <= D = d(i, j) <= A + B gives

        d^(i, j) >= (1 - kappa) D >= |a - b| - 2 kappa (a + b),
        d^(i, j) <= (1 + kappa) D <= (1 + 2 kappa') (a + b).

    So (a - b) - 2 kappa (a + b) >= r proves d^(i, j) >= r, and
    (a + b)(1 + 2 kappa') < r proves d^(i, j) < r.  The screen tests them
    as under_i >= over_j and over_i < room_j, with under = a (1 - c) - r,
    over = a (1 + c) and room = r - over.  The returned c = 4 kappa'
    doubles both margins, and the half it adds, at least 2 kappa >= 14u,
    covers the five roundings of under, over and room: they move the first
    test by at most 3.02u (a + b) and the second by about 3.01u r.  At r =
    LB, the largest pivot distance, every a <= LB gives under < 0 <= over,
    so no pair is proved outside, and every pair not proved < LB is open.

    The errors are relative while nothing overflows; underflow adds an
    absolute error below 2**-1070 per distance, which the doubled margin
    absorbs for r >= 2**-1000.  For r <= 2**900, (a + b)(1 + c) < r also
    bounds every partial sum of d^(i, j) far below overflow.  Outside that
    range, and for other feature types (narrower floats round more
    coarsely, integer differences and running sums can wrap), no pivot is
    tested (_bound_holds).  A pivot distance that is not finite becomes nan
    and fails every test, so its pairs stay open.
    """
    k, u = n + 6, 2.0**-53
    kappa = k * u / (1 - k * u)
    return 4.0 * kappa / (1 - kappa)


def _pivot_rows(kind: MetricKind, feats: np.ndarray) -> np.ndarray:
    """(P, m): the exact distance rows of P = min(_PIVOTS, m) pivots, picked
    by farthest-first traversal from row 0, nan distances counting as near."""
    m = feats.shape[0]
    rows = []
    if m:
        rows.append(_distance_row(kind, feats, 0))
        near = rows[0]
        for _ in range(1, min(_PIVOTS, m)):
            far = int(np.argmax(np.fmax(near, -1.0)))
            rows.append(_distance_row(kind, feats, far))
            near = np.fmin(near, rows[-1])
    return np.array(rows).reshape(len(rows), m)


def _bound_holds(feats: np.ndarray, scale: float) -> bool:
    """Whether _kernel_bound covers distances of these features compared at
    this scale: float64 or complex128 features, scale in [2**-1000, 2**900]."""
    return feats.dtype in (np.float64, np.complex128) and 2.0**-1000 <= scale <= 2.0**900


def _screened_pairs(kind: MetricKind, feats: np.ndarray, pivots: np.ndarray, r: float):
    """Yield (rows, cols, inside, i, j, d) for each square tile rows x cols
    on and above the diagonal of the m x m distance matrix, of side
    isqrt(_chunk_rows(1)) at the call: inside marks the tile's pairs above
    the diagonal that the pivot rows prove at distance < r, and d holds the
    distances (_distance_pairs) of the pairs (i, j) above it left open.

    Through each pivot, with the under, over and room of _kernel_bound, a
    pair is proved inside when over_i < room_j and outside when under_i >=
    over_j or under_j >= over_i.  Where the bound does not hold at r
    (_bound_holds) no pivot is tested, and every pair is open.  A tile's
    arrays are dropped before the next is built.
    """
    m, n = feats.shape
    a = pivots if _bound_holds(feats, r) else pivots[:0]
    a = np.where(np.isfinite(a), a, np.nan)
    c = _kernel_bound(n)
    over = a * (1 + c)
    under, room = a * (1 - c) - r, r - over
    side = isqrt(_chunk_rows(1))
    for lo in range(0, m, side):
        rows = slice(lo, min(lo + side, m))
        for left in range(lo, m, side):
            cols = slice(left, min(left + side, m))
            inside = np.zeros((rows.stop - lo, cols.stop - left), dtype=bool)
            settled = inside.copy()
            for u, o, rm in zip(under, over, room):
                inside |= o[rows, None] < rm[cols]
                settled |= u[rows, None] >= o[cols]
                settled |= o[rows, None] <= u[cols]
            settled |= inside
            if left == lo:  # only the pairs above the diagonal
                settled |= np.tri(len(inside), dtype=bool)
                inside = np.triu(inside, 1)
            i, j = np.nonzero(~settled)
            i += lo
            j += left
            yield rows, cols, inside, i, j, _distance_pairs(kind, feats, i, j)
            del inside, settled, i, j


def _distance_matrix(kind: MetricKind, feats: np.ndarray) -> np.ndarray:
    """The m x m distance matrix of feats; equal, entry for entry, to
    _distance_row, so a block of it is _distance_matrix on its own rows.

    Hamming divides n minus the exact agreement counts by n.  fbar/fhat
    read the diagonal and, through the tile walk with no pivot
    (_screened_pairs), each pair above it, mirrored: |v_i - v_j| and
    |v_j - v_i| are bitwise equal.  A matrix over systems._MATRIX_BYTES
    raises BudgetExhaustedError before it is built.
    """
    m, n = feats.shape
    _check_bytes(_MATRIX_ENTRY_BYTES * m * m, f"a distance matrix of {m} samples")
    if isinstance(kind, HammingKind):
        agree = _agreements(feats)
        return np.true_divide(np.subtract(n, agree, out=agree), n, dtype=np.float64)
    out = np.empty((m, m))
    np.fill_diagonal(out, _distance_pairs(kind, feats, *np.diag_indices(m)))
    for *_, i, j, d in _screened_pairs(kind, feats, np.empty((0, m)), np.inf):
        out[i, j] = out[j, i] = d
        del i, j, d
    return out


def _ball_matrix(kind: MetricKind, feats: np.ndarray, eps: float) -> np.ndarray:
    """_distance_matrix(kind, feats) < eps, bit for bit, without a float
    m x m array.

    Hamming is the one-horizon case of _hamming_balls: the exact agreement
    counts against the least count at which the kernel's distance falls
    below eps (_least_agreement), so no ball moves.  fbar/fhat read the
    diagonal, then walk the tiles above it at r = eps (_screened_pairs):
    the pairs the pivots prove inside and the open pairs' exact balls are
    written into the matrix and its mirror.
    """
    m, n = feats.shape
    if isinstance(kind, HammingKind):
        return next(_hamming_balls(feats, [n], eps))
    out = np.zeros((m, m), dtype=bool)
    np.fill_diagonal(out, _distance_pairs(kind, feats, *np.diag_indices(m)) < eps)
    for rows, cols, inside, i, j, d in _screened_pairs(kind, feats, _pivot_rows(kind, feats), eps):
        out[rows, cols] |= inside
        out[cols, rows] |= inside.T
        out[i, j] = out[j, i] = d < eps
        del inside, i, j, d
    return out


def _farthest_pair(kind: MetricKind, feats: np.ndarray) -> tuple:
    """(i, j, d), i < j: the first farthest pair of rows of feats in row
    order and its distance, bit for bit as _distance_matrix gives them (a
    nan ranks above every number), without a float m x m array.

    Hamming takes the least exact agreement count (_agreements), charged at
    _MATRIX_ENTRY_BYTES per entry before the counts are built; the counts
    are symmetric, so with inf on the diagonal the first least count in row
    order lies above it.  fbar/fhat walk the tiles (_screened_pairs) at r =
    LB, the largest entry of the pivot rows, a real distance: a pair proved
    < LB is not the farthest, and every tied farthest pair stays open.
    """
    m, n = feats.shape
    if isinstance(kind, HammingKind):
        _check_bytes(_MATRIX_ENTRY_BYTES * m * m, f"a distance matrix of {m} samples")
        agree = _agreements(feats)
        np.fill_diagonal(agree, np.inf)
        i, j = divmod(int(np.argmin(agree)), m)
        return i, j, (n - float(agree[i, j])) / n
    a = _pivot_rows(kind, feats)
    found = []  # the first farthest pair of each tile and its distance
    for *_, i, j, d in _screened_pairs(kind, feats, a, float(a.max())):
        if i.size:
            k = int(np.argmax(d))  # the first nan, else the first maximum
            found.append((i[k], j[k], d[k]))
        del i, j, d
    i, j, d = (np.array(x) for x in zip(*found))
    first = np.lexsort((j, i))  # the tiles' pairs in row order
    k = first[np.argmax(d[first])]
    return int(i[k]), int(j[k]), float(d[k])


def pairwise_distances(kind: MetricKind, system, samples, n: int) -> np.ndarray:
    return _distance_matrix(kind, _sample_features(kind, system, samples, n))


def _pair_distance(kind: MetricKind, system, x, y, n: int) -> float:
    """The kernel's distance between two points, each a batch of one (or
    anything the system's as_batch takes); Hamming points may also be
    NameWords of length n, the one kind of point read without a system."""
    feats = np.concatenate([
        _sample_features(kind, system,
                         [p] if system is None or isinstance(p, NameWord) else system.as_batch(p), n)
        for p in (x, y)])
    return float(_distance_row(kind, feats, 0)[1])


def ball_member(center, candidate, n: int, eps: float, kind: MetricKind,
                system: Optional[SystemHandle] = None) -> bool:
    """Whether candidate lies in the open radius-eps ball around center.

    Decided on the covers' kernel, so it agrees with their balls bit for
    bit.  Hamming points may be NameWords of length n, points, or one of
    each.
    """
    if not 0 < eps < np.inf:
        raise InvalidParameterError("ball radius must be positive")
    return _pair_distance(kind, system, center, candidate, n) < eps


# ---------------------------------------------------------------------------
# Greedy cover


def _units_needed(total_units: int, eps: float) -> int:
    """Least covered units c with c / total_units > 1 - eps, decided exactly."""
    feps = Fraction(eps)
    short = total_units * (feps.denominator - feps.numerator)
    return max(0, short // feps.denominator + 1)


def _mass_units(weights) -> tuple[list, int]:
    """Exact integer units of float weights: weights[i] == units[i] / scale.

    Float denominators are powers of two, so the largest one is the common
    scale.  Units are Python ints, exact at any scale (a mass of 1e-30 needs
    more than 2**63).
    """
    ratios = [float(w).as_integer_ratio() for w in weights]
    scale = max((d for _, d in ratios), default=1)
    return [num * (scale // d) for num, d in ratios], scale


def _gain_dtype(total: int):
    """The narrowest type in which every partial sum of gains up to `total`
    is an exact integer: float32 below 2**24, float64 below 2**53, and
    Python ints (object) beyond."""
    if total < 2**24:
        return np.float32
    return np.float64 if total < 2**53 else object


def _mass_product(mass: np.ndarray, balls: np.ndarray, rows, nodes=None, spans=None) -> tuple:
    """(cols, mass @ B[rows] at cols), for B the ball matrix in component
    order, balls[nodes][:, nodes] (balls itself when nodes is None), exact
    for the integer masses of _gain_dtype's types.

    B[rows] is read from the bool balls in blocks of the ascending rows,
    each converted to the product's float type, so no float copy of the
    ball matrix is held.  With spans = (first, last), the column stretch of
    each row's component, a block reads only the columns from its first
    row's component to its last row's.  Float products come whole (cols is
    a full slice).  Python ints (object) pass through float64 BLAS in limbs
    narrow enough that every partial sum of a limb stays below 2**52, and
    come back only at the columns the rows reach, since each column costs
    Python arithmetic.
    """
    R, width = len(mass), len(balls) if nodes is None else len(nodes)
    parts, shifts = mass, ()
    if mass.dtype == object:
        bits = 52 - len(rows).bit_length()
        top = max((int(v).bit_length() for v in mass.flat), default=0)
        shifts = range(0, top, bits)
        parts = np.zeros((R * len(shifts), mass.shape[1]))
        for k, s in enumerate(shifts):
            parts[k * R : (k + 1) * R] = (mass >> s) & ((1 << bits) - 1)
    out = np.zeros((len(parts), width), dtype=parts.dtype)
    step = _chunk_rows(width)
    for lo in range(0, len(rows), step):
        at = rows[lo : lo + step]
        a, b = (0, width) if spans is None else (spans[0][at[0]], spans[1][at[-1]])
        if nodes is None:
            block = balls[at, a:b]
        else:
            block = balls[nodes[at]].take(nodes[a:b], axis=1)
        out[:, a:b] += parts[:, lo : lo + step] @ block.astype(parts.dtype)
    if mass.dtype != object:
        return slice(None), out
    hit = np.flatnonzero(out.any(axis=0))
    total = np.zeros((R, len(hit)), dtype=object)
    for k, s in enumerate(shifts):
        total += out[k * R : (k + 1) * R, hit].astype(np.int64).astype(object) << s
    return hit, total


def _components(balls: np.ndarray) -> tuple:
    """(nodes, starts): the samples whose ball holds another sample, grouped
    by component of the ball graph (i ~ j iff balls[i, j]) and ascending
    within each, and the offset of each component in nodes.

    A breadth-first search from the first such sample settles the common
    case of one component that holds them all.  Otherwise labels start as
    the sample indices.  Each round lowers every label, and the label its
    label points to, to the least label in its ball, then takes the label's
    own label, until every component carries its least index.  Ball sizes are
    summed from a uint8 view of the balls in the narrowest type that holds
    m, ball rows are read in chunks, and the members are kept in the
    narrowest index type.
    """
    m = len(balls)
    size = balls.view(np.uint8).sum(axis=1, dtype=np.min_scalar_type(m)).astype(np.intp)
    rows = np.flatnonzero(size > 1)
    step = _chunk_rows(m)
    seen = np.zeros(m, dtype=bool)
    frontier = rows[:1]
    while frontier.size:
        seen[frontier] = True
        reach = np.zeros(m, dtype=bool)
        for lo in range(0, len(frontier), step):
            reach |= balls[frontier[lo : lo + step]].any(axis=0)
        frontier = np.flatnonzero(reach & ~seen)
    if seen[rows].all():
        return rows, np.zeros(min(1, len(rows)), dtype=np.intp)
    first = np.cumsum(size[rows]) - size[rows]
    label = np.arange(m, dtype=np.min_scalar_type(m))
    members = np.empty(int(size[rows].sum()), dtype=label.dtype)
    for lo in range(0, len(rows), step):
        block = rows[lo : lo + step]
        members[first[lo] : first[lo] + size[block].sum()] = np.flatnonzero(balls[block]) % m
    while True:
        low = np.minimum.reduceat(label[members], first)
        hop = label.copy()
        np.minimum.at(hop, label[rows], low)
        hop[rows] = np.minimum(hop[rows], low)
        hop = hop[hop]
        if np.array_equal(hop, label):
            break
        label = hop
    nodes = rows[np.argsort(label[rows], kind="stable")]
    return nodes, np.flatnonzero(np.diff(label[nodes], prepend=-1))


def _greedy_cover(balls: np.ndarray, counts: np.ndarray, eps: float,
                  max_centers: int) -> list:
    """Greedy weighted set cover for every row of `counts` at once.

    ``balls`` is the symmetric bool ball matrix (balls[i, j] iff
    d(i, j) < eps) and ``counts`` an (R, m) array of integer sample masses
    (int64, or Python ints in an object array).  For each row the greedy
    takes, among the still-uncovered samples, the center of largest gain
    (uncovered mass in its ball), the lowest index among ties, until the
    covered mass exceeds 1 - eps.  Returns one (centers, covered_units,
    total_units, failure) per row; failure is None, or the reason the
    greedy stopped short: no uncovered candidate left, or ``max_centers``
    spent.

    The rows run in lockstep on exact facts rather than one pick at a time:

    * Picks in different components of the ball graph do not interact, so
      each component has its own pick sequence; a sample alone in its
      component is one pick of known gain and takes no step.
    * Along a sequence the key (-gain, index) strictly increases (gains
      never rise, and a tie went to the lower index), so a row's cover is
      the key-sorted merge of its sequences.
    * A step takes the best candidate in every live (row, component) and
      subtracts the newly covered mass from the gains with one product of
      the fresh mass and the bool ball rows it lies in (_mass_product).  A
      pick not yet computed has a larger key than the smallest latest key
      of the row's live components, so a row stops once the merged picks up
      to that key reach its target mass or exceed its budget.
    * When one component holds every sample, each step's pick is the row's
      next one: the step is a plain argmax, and nothing waits for a merge.
      Otherwise the step reduces each component's stretch of the samples,
      held in component order, with reduceat.
    * Gains are exact integers, held in the type _gain_dtype picks.

    Besides the bool balls it is given, the greedy holds (R, m) arrays and
    the blocks of _mass_product; only a graph of several components adds
    its member list and one label read of it (_components), each at most 2
    bytes per ball entry below 65536 samples.
    """
    counts = np.asarray(counts)
    R, m = counts.shape
    totals = [int(t) for t in counts.sum(axis=1)]
    need_of = {t: _units_needed(t, eps) for t in set(totals)}  # resamples share a total
    needs = [need_of[t] for t in totals]
    dtype = _gain_dtype(max(totals, default=0))
    exact = object if dtype is object else np.float64  # for sums of gains
    # a pick of gain 0 only ever serves a target above the total mass
    floor = np.array([int(need <= t) for need, t in zip(needs, totals)])
    counts = counts.astype(dtype)

    nodes, starts = _components(balls)
    one = len(nodes) == m and len(starts) == 1
    lone = np.flatnonzero(np.bincount(nodes, minlength=m) == 0)
    # a lone sample's ball is itself, or empty when its distances are nan
    gain = np.where(balls[lone, lone], counts[:, lone], 0)
    row, col = np.nonzero(gain >= floor[:, None])
    pending = [row, gain[row, col], lone[col]]  # known picks: row, gain, index
    comp = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(nodes)))

    # samples in component order (one component: the samples as they are),
    # and each one's component stretch
    P, at = len(nodes), np.arange(len(nodes))
    gather = None if one else nodes
    spans = None if one else (starts[comp], np.append(starts[1:], P)[comp])
    w = counts if one else counts[:, nodes]
    # a sample's gain stays >= 0 while it is uncovered, and below 0 after
    gains = np.zeros(w.shape, dtype=dtype)
    hit, start = _mass_product(w, balls, at, gather, spans)
    gains[:, hit] = start

    mass, taken = np.zeros(R, dtype=exact), np.zeros(R, dtype=np.int64)
    needs_at = np.array(needs, dtype=exact)
    kg, ki = np.zeros(R, dtype=exact), np.zeros(R, dtype=np.intp)
    log = []
    live = np.arange(R)
    while True:
        # each live (row, component): its best candidate and that gain
        if one:
            pos = gains.argmax(axis=1)[:, None]
            top = gains[np.arange(len(live))[:, None], pos]
        else:
            top = np.maximum.reduceat(gains, starts, axis=1)
            pos = np.minimum.reduceat(np.where(gains == top[:, comp], at, P), starts, axis=1)
        going = top >= floor[live, None]
        best = np.where(going, top, -1).max(axis=1, initial=-1)
        if not one:
            # the row's smallest new key; with no pick (gain -1) every key is known
            kg[live] = best
            ki[live] = np.where(going & (top == best[:, None]), nodes[pos], m).min(axis=1, initial=m)
        pr, pc = np.nonzero(going)
        pos = pos[pr, pc]
        new = [live[pr], top[pr, pc], nodes[pos]]
        if one:
            known = new
        else:
            r, g, i = pending = [np.concatenate(pair) for pair in zip(pending, new)]
            wait = (g < kg[r]) | ((g == kg[r]) & (i > ki[r]))
            known = [a[~wait] for a in pending]
            pending = [a[wait] for a in pending]
        log.append(known)
        if dtype is object:
            np.add.at(mass, known[0], known[1])
        else:
            mass += np.bincount(known[0], weights=known[1], minlength=R)
        taken += np.bincount(known[0], minlength=R)

        done = (mass[live] >= needs_at[live]) | (taken[live] > max_centers) | (best == -1)
        if not one:
            running = np.zeros(R, dtype=bool)
            running[live[~done]] = True
            pending = [a[running[pending[0]]] for a in pending]
        if done.all():
            break
        if done.any():
            keep = ~done
            live, gains, w = live[keep], gains[keep], w[keep]
            stay = keep[pr]
            pr, pc, pos = (np.cumsum(keep) - 1)[pr[stay]], pc[stay], pos[stay]
        # cover the picks' balls; in component order a pick's ball lies in
        # its own component's stretch
        if one:
            covered = balls[pos]
        else:
            src = np.full((live.size, len(starts)), -1)
            src[pr, pc] = pos
            src = src[:, comp]
            covered = (src >= 0) & balls[nodes[src], nodes]
        covered &= gains >= 0  # newly covered
        gains[covered] = -1
        gains[pr, pos] = -1
        if not (gains >= 0).any():
            continue  # no candidate is left to update
        touched = np.flatnonzero(covered.any(axis=0))
        fresh = w.take(touched, axis=1) * covered.take(touched, axis=1)
        hit, drop = _mass_product(fresh, balls, touched, gather, spans)
        gains[:, hit] -= drop

    r, g, i = (np.concatenate(a) for a in zip(*log))
    # by row, then key (-gain, index): stable sorts, which take a radix sort
    # on integers narrowed to 16 bits or fewer
    order = np.arange(len(r))
    for key in (i, g.max(initial=0) - g, r):
        if key.dtype != object:
            key = key.astype(np.min_scalar_type(int(key.max(initial=0))))
        order = order[np.argsort(key[order], kind="stable")]
    r, i = r[order], i[order]
    g = g[order] if dtype is object else g[order].astype(np.int64)
    bounds = np.searchsorted(r, np.arange(R + 1))
    out = []
    for k in range(R):
        picks = i[bounds[k] : bounds[k + 1]].tolist()
        cum = [0, *np.cumsum(g[bounds[k] : bounds[k + 1]]).tolist()]
        reach = bisect_left(cum, needs[k])
        if reach <= min(len(picks), max_centers):
            out.append((picks[:reach], cum[reach], totals[k], None))
        elif reach > len(picks) and len(picks) <= max_centers:
            out.append((picks, cum[-1], totals[k],
                        "no uncovered candidate can extend the cover"))
        else:
            out.append((picks[:max_centers], cum[max_centers], totals[k],
                        f"center budget {max_centers} exhausted"))
    return out


def _check_budget(max_centers) -> None:
    if max_centers is not None and max_centers < 0:
        raise InvalidParameterError("center budget must be >= 0")


@dataclass(frozen=True)
class CoverResult:
    centers: tuple
    radius: float
    covered_mass: float
    sample_count: int
    horizon: int
    seed: int

    @property
    def count(self) -> int:
        return len(self.centers)


def estimate_cover_number(
    samples: Sequence,
    n: int,
    eps: float,
    kind: MetricKind,
    system: Optional[SystemHandle] = None,
    weights: Optional[Sequence[float]] = None,
    max_centers: Optional[int] = None,
    seed: int = 0,
) -> CoverResult:
    """Greedy estimate of the covering number on a sample set.

    ``weights`` may carry an explicit distribution over the samples (e.g.
    exact word masses); by default every sample counts 1/m.  The returned
    center count upper-bounds the exact optimum on the same sample set.
    """
    if not 0 < eps < np.inf:
        raise InvalidParameterError("eps must be positive")
    _check_budget(max_centers)
    m = len(samples)
    if not m:
        raise InvalidParameterError("need at least one sample")
    if weights is not None:
        if len(weights) != m:
            raise InvalidParameterError(
                f"need one weight per sample, got {len(weights)} for {m}")
        if not all(0 <= w < np.inf for w in weights) or not any(weights):
            raise InvalidParameterError("weights must be finite, nonnegative and not all 0")
    _check_bytes(_COVER_ENTRY_BYTES * m * m, f"a cover of {m} samples")
    balls = _ball_matrix(kind, _sample_features(kind, system, samples, n), eps)
    if weights is None:
        counts = np.ones((1, m), dtype=np.int64)
    else:
        counts = np.array([_mass_units(weights)[0]], dtype=object)
    budget = m if max_centers is None else max_centers
    [(centers, covered, total, failure)] = _greedy_cover(balls, counts, eps, budget)
    if failure:
        raise BudgetExhaustedError(failure, centers=centers, covered_mass=covered / total)
    return CoverResult(
        centers=tuple(centers),
        radius=eps,
        covered_mass=float(covered / total),
        sample_count=m,
        horizon=n,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Exact small-instance oracle


def exact_cover_number_small(word_distribution, n: int, eps: float) -> int:
    """True minimum number of open Hamming balls (centers among the listed
    words) whose union mass strictly exceeds 1 - eps.

    Iterative-deepening branch and bound over center subsets, from the
    sorted-mass lower bound (the fewest balls whose largest masses could
    reach the target) up to the greedy cover's size; the depth-first search
    keeps an explicit stack, so a deep cover cannot exhaust Python's
    recursion limit.  Masses are exact integer units, so the covered test
    and the prune are exact.  At most 4096 words.
    """
    W = len(word_distribution)
    if W == 0:
        raise InvalidParameterError("empty word distribution")
    if W > _ORACLE_WORDS:
        raise InstanceTooLargeError(
            f"{W} words exceeds the exact-oracle cap of {_ORACLE_WORDS}")
    words, masses = zip(*word_distribution)
    units, scale = _mass_units(masses)
    if abs(sum(units) / scale - 1.0) > 1e-9:
        raise InvalidParameterError("word masses must sum to 1")
    if any(len(w) != n for w in words):
        raise InvalidParameterError("all words must have length n")
    if n < 1 or not 0 < eps < np.inf:
        raise InvalidParameterError("need n >= 1 and eps > 0")

    # dense labels 0..k-1: the Hamming kernel only counts labels in 0..max;
    # it reads the kind's type, not its partition
    _, labels = np.unique(np.array(words, dtype=np.int64), return_inverse=True)
    in_ball = _ball_matrix(HammingKind(None), labels.reshape(W, n), eps)
    upper = len(_greedy_cover(in_ball, np.array([units], dtype=object), eps, W)[0][0])
    members = [np.flatnonzero(row).tolist() for row in in_ball]
    gains = [sum(map(units.__getitem__, mem)) for mem in members]

    order = sorted(range(W), key=lambda i: (-gains[i], i))
    balls = [members[i] for i in order]
    # best[i] - best[j]: the mass of balls j..i-1 in descending-mass order
    best = list(accumulate((gains[i] for i in order), initial=0))
    need = _units_needed(scale, eps)
    lower = max(1, bisect_left(best, need))
    left = list(units)  # mass of each word not covered by the chosen balls

    def covers(k: int) -> bool:
        # DFS over index-increasing center combinations of at most k balls;
        # the stack holds (ball index, newly covered words, their mass)
        stack: list = []
        covered, idx = 0, 0
        while covered < need:
            slots = k - len(stack)
            # optimistic bound: the largest remaining ball masses, disjoint
            reach = covered + best[min(idx + slots, W)] - best[idx]
            if slots and idx < W and reach >= need:
                fresh = [j for j in balls[idx] if left[j]]
                gain = sum(map(left.__getitem__, fresh))
                for j in fresh:
                    left[j] = 0
                stack.append((idx, fresh, gain))
                covered += gain
                idx += 1
                continue
            if not stack:
                return False
            idx, fresh, gain = stack.pop()
            for j in fresh:
                left[j] = units[j]
            covered -= gain
            idx += 1
        return True

    for k in range(lower, upper):
        if covers(k):
            return k
    return upper


# ---------------------------------------------------------------------------
# Complexity curves


@dataclass(frozen=True)
class CurvePoint:
    n: int
    k_est: int
    k_lo: float
    k_hi: float
    budget_hit: bool
    covered_mass: float


@dataclass(frozen=True)
class ComplexityCurve:
    points: tuple
    eps: float
    metric_label: str
    sample_count: int
    seed: int

    @property
    def estimates(self) -> list:
        return [p.k_est for p in self.points]


_TAG_CURVE_SAMPLES = 31
_TAG_BOOTSTRAP = 33
_RESAMPLES = 20  # bootstrap resamples per horizon


def _ladder(horizons) -> tuple:
    """The horizons as ints, checked to be at least 3, strictly increasing
    and positive."""
    horizons = tuple(int(h) for h in horizons)
    if len(horizons) < 3 or any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise InvalidParameterError("need >= 3 strictly increasing horizons")
    if horizons[0] < 1:
        raise InvalidParameterError("horizon must be >= 1")
    return horizons


def complexity_curve(
    system: SystemHandle,
    kind: MetricKind,
    horizons: Sequence[int],
    eps: float,
    sample_count: int,
    plan: RandomPlan,
    max_centers: Optional[int] = None,
) -> ComplexityCurve:
    """Covering-number estimates over a ladder of horizons with bootstrap CIs.

    One sample set is shared across all horizons (common random numbers);
    a horizon whose greedy cover exhausts the center budget is recorded
    with budget_hit instead of aborting the curve.
    """
    if not 0 < eps < np.inf:
        raise InvalidParameterError("eps must be positive")
    horizons = _ladder(horizons)
    _check_budget(max_centers)
    _check_bytes(_COVER_ENTRY_BYTES * sample_count**2, f"a cover of {sample_count} samples")
    samples = system.sample_measure(sample_count, plan.child(_TAG_CURVE_SAMPLES))
    budget = sample_count if max_centers is None else max_centers
    # one feature read at the top horizon; every horizon reads a prefix of it
    top = _sample_features(kind, system, samples, horizons[-1])
    if isinstance(kind, HammingKind):
        ladder = _hamming_balls(top, horizons, eps)
    else:
        # a contiguous prefix reads a few percent faster than a strided one
        ladder = (_ball_matrix(kind, np.ascontiguousarray(top[:, :n]), eps)
                  for n in horizons)
    pts = []
    for n, balls in zip(horizons, ladder):
        # row 0 is the point estimate, rows 1.. the bootstrap resamples; one
        # greedy runs them all on the one ball matrix
        rng = plan.generator(_TAG_BOOTSTRAP, n)
        draws = [np.bincount(rng.integers(0, sample_count, sample_count),
                             minlength=sample_count) for _ in range(_RESAMPLES)]
        counts = np.stack([np.ones(sample_count, dtype=np.int64), *draws])
        (centers, covered, total, failure), *boot = _greedy_cover(balls, counts, eps, budget)
        budget_hit = failure is not None
        k_est = budget if budget_hit else len(centers)
        covered_mass = covered / total
        if budget_hit:
            k_lo = k_hi = float(k_est)
        else:
            ks = [budget if why else len(c) for c, _, _, why in boot]
            k_lo = float(min(np.percentile(ks, 10), k_est))
            k_hi = float(max(np.percentile(ks, 90), k_est))
        pts.append(
            CurvePoint(
                n=n,
                k_est=k_est,
                k_lo=k_lo,
                k_hi=k_hi,
                budget_hit=budget_hit,
                covered_mass=float(covered_mass),
            )
        )
    return ComplexityCurve(
        points=tuple(pts),
        eps=eps,
        metric_label=kind.label,
        sample_count=sample_count,
        seed=plan.master_seed,
    )


def classify_boundedness(curve) -> str:
    """'bounded' / 'growing' / 'inconclusive' verdict on a complexity curve.

    Bounded: the last three estimates lie within +1 of each other, unless
    a ComplexityCurve's last three all sit at its singleton ceiling (the
    least k with k/sample_count > 1 - eps) or any of them hit the center
    budget: a capped K is a lower bound, so flatness says nothing.
    Growing: estimates rise monotonically with the last at least twice
    the first.  Anything else is inconclusive.
    """
    ests = curve.estimates if hasattr(curve, "estimates") else [int(v) for v in curve]
    if len(ests) < 3:
        raise InvalidParameterError("need at least 3 curve points")
    tail = ests[-3:]
    capped = isinstance(curve, ComplexityCurve) and (
        tail == [_units_needed(curve.sample_count, curve.eps)] * 3
        or any(p.budget_hit for p in curve.points[-3:])
    )
    if max(tail) - min(tail) <= 1 and not capped:
        return "bounded"
    nondecreasing = all(b >= a for a, b in zip(ests, ests[1:]))
    if nondecreasing and ests[-1] > ests[0] and ests[-1] >= 2 * ests[0]:
        return "growing"
    return "inconclusive"


def curve_csv_rows(curve: ComplexityCurve) -> list:
    rows = [["n", "K_est", "K_lo", "K_hi", "eps", "samples", "seed", "budget_hit"]]
    for p in curve.points:
        rows.append(
            [
                p.n,
                p.k_est,
                p.k_lo,
                p.k_hi,
                curve.eps,
                curve.sample_count,
                curve.seed,
                int(p.budget_hit),
            ]
        )
    return rows
