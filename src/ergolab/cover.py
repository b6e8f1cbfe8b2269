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
read (covers, cluster rows and blocks, the oracle, ``ball_member``):
``_distance_rows`` for a few rows, ``_distance_pairs`` for scattered
pairs, ``_distance_matrix`` for a whole matrix.  They agree bit for bit,
and every fbar/fhat tile is sized from the one byte budget
``systems._CHUNK_BYTES``.  Both cover routes count mass in exact integer
units, so boundary ties resolve to "not covered".

A cover needs only the relation d < eps, and ``_ball_matrix`` builds it
bit for bit as ``_distance_matrix(...) < eps`` without a float m x m
array.  Hamming balls compare exact agreement counts with the least count
whose distance falls below eps.  fbar/fhat are pseudo-metrics, so the
exact distance rows of four far-apart pivots bound every other distance
through the triangle inequality, |d(i,p) - d(j,p)| <= d(i,j) <=
d(i,p) + d(j,p).  Widened by a proved bound on the kernel's rounding
(``_kernel_bound``), these settle most pairs as surely in or surely out
on a rotation; only the rest are reduced exactly, one pair at a time.  On
mixing families such as doubling every distance sits near its mean and
the screen settles little, so ``_ball_matrix`` tries it on the first tile
and, where it settles fewer than half of those pairs, reduces every block
whole as ``_distance_matrix`` does.  That costs the pivot rows and one
tile's screen: a doubling ``character:1`` fbar ball matrix of 500 samples
at eps 0.5 took 0.85-1.25 times the time of ``_distance_matrix(...) <
eps`` (medians over horizons 16, 64 and 256), inside the spread of those
runs.

One greedy, ``_greedy_cover``, serves the point estimate and every
bootstrap resample of a curve in one call, and the oracle's upper bound.
Its picks come in strictly increasing key order (-gain, index) and do not
interact across components of the ball graph, so it steps every (row,
component) in lockstep on exact integer gains and merges the sequences by
key.  A cover whose m x m arrays would exceed ``systems._MATRIX_BYTES``
raises BudgetExhaustedError before it builds any of them.
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

# word cap of the exact oracle: its W x W arrays, the _COVER_ENTRY_BYTES of
# agreement counts, balls and greedy copy per entry, stay near 218 MB
_ORACLE_WORDS = 4096
# bytes per entry of a cover's m x m arrays: the float32 Hamming agreement
# counts, the bool ball matrix and the greedy's copy of it (at most 8 bytes)
_COVER_ENTRY_BYTES = 13
# pivot rows of the fbar/fhat ball screen
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


def _sample_features(kind, system, samples, n) -> np.ndarray:
    """(m, n) horizon-n features: observable values, or name labels (cell
    indices, precomputed NameWords taken as they are) in the narrowest
    unsigned type that holds them."""
    if n < 1:
        raise InvalidParameterError("horizon must be >= 1")
    if not isinstance(kind, HammingKind):
        return kind.observable.orbit_rows(system, samples, n)
    if len(samples) and isinstance(samples[0], NameWord):
        if any(w.n != n for w in samples):
            raise InvalidParameterError("name word length differs from horizon")
        labels = np.array([w.symbols for w in samples], dtype=np.int64).reshape(-1, n)
    else:
        labels = name_rows(system, kind.partition, samples, n)
    return labels.astype(np.min_scalar_type(labels.max(initial=0)), copy=False)


def _reduce_gaps(kind: MetricKind, gaps: np.ndarray) -> np.ndarray:
    """fbar or fhat along the last axis of gaps |v_i - v_j|, which holds one
    contiguous row per pair: the mean, or the maximum of the running means."""
    if isinstance(kind, FbarKind):
        return gaps.mean(axis=-1)
    n = gaps.shape[-1]
    return (np.cumsum(gaps, axis=-1) * (1.0 / np.arange(1, n + 1))).max(axis=-1)


def _distance_rows(kind: MetricKind, feats: np.ndarray, rows, cols=slice(None)) -> np.ndarray:
    """Rows `rows` of the distance matrix of feats, at the columns `cols`,
    bit for bit, without the rest of it; those columns are read in chunks
    whose gap temporary stays near systems._CHUNK_BYTES.

    The per-pair arithmetic does not depend on the chunk shape: fbar and
    fhat reduce one contiguous row of gaps per pair (_reduce_gaps), and a
    Hamming distance is an exact mismatch count divided by n.
    """
    n = feats.shape[1]
    head = feats[rows][:, None, :]
    tail = feats[cols]
    out = np.empty((head.shape[0], len(tail)))
    step = _chunk_rows(head.shape[0] * n)
    for lo in range(0, len(tail), step):
        other = tail[None, lo : lo + step]
        if isinstance(kind, HammingKind):
            out[:, lo : lo + step] = np.count_nonzero(head != other, axis=2) / n
        else:
            out[:, lo : lo + step] = _reduce_gaps(kind, np.abs(head - other))
    return out


def _distance_pairs(kind: MetricKind, feats: np.ndarray, i, j) -> np.ndarray:
    """The fbar/fhat distances of the row pairs (feats[i[k]], feats[j[k]]),
    bit for bit as _distance_rows reads them: one contiguous row of gaps per
    pair, in chunks of pairs whose gap temporary stays near
    systems._CHUNK_BYTES."""
    out = np.empty(len(i))
    step = _chunk_rows(feats.shape[1])
    for lo in range(0, len(i), step):
        gaps = np.abs(feats[i[lo : lo + step]] - feats[j[lo : lo + step]])
        out[lo : lo + step] = _reduce_gaps(kind, gaps)
    return out


def _agreements(labels: np.ndarray) -> np.ndarray:
    """The m x m counts of time steps at which two label rows agree.

    Sums P_s @ P_s.T over the indicator planes P_s = (labels == s): every
    partial sum is an integer <= n, so float32 is exact while n < 2**24,
    whatever the BLAS blocking or thread count (float64 above).
    """
    m, n = labels.shape
    dtype = np.float32 if n < 2**24 else np.float64
    agree = np.zeros((m, m), dtype=dtype)
    for s in range(int(labels.max()) + 1 if m else 0):
        plane = (labels == s).astype(dtype)
        agree += plane @ plane.T
    return agree


def _distance_matrix(kind: MetricKind, feats: np.ndarray) -> np.ndarray:
    """The m x m distance matrix of feats; equal, entry for entry, to
    _distance_rows, so a block of it is _distance_matrix on its own rows.

    Hamming divides n minus the exact agreement counts by n.  fbar/fhat take
    square blocks of _distance_rows on and above the diagonal and mirror
    them: |v_i - v_j| and |v_j - v_i| are bitwise equal.
    """
    m, n = feats.shape
    if isinstance(kind, HammingKind):
        agree = _agreements(feats)
        return np.true_divide(np.subtract(n, agree, out=agree), n, dtype=np.float64)
    out = np.empty((m, m))
    step = isqrt(_chunk_rows(n))
    for lo in range(0, m, step):
        block = _distance_rows(kind, feats, slice(lo, lo + step), slice(lo, None))
        out[lo : lo + step, lo:] = block
        out[lo:, lo : lo + step] = block.T
    return out


def _kernel_bound(n: int) -> float:
    """c with which the pivot screen of _ball_matrix settles a pair only on
    the side of eps that the kernel's own distance falls on.

    The features are float64 or complex128.  With u = 2**-53 and
    gamma_k = k u / (1 - k u), the fbar/fhat kernel computes, for two rows
    of n features, a distance d^ with |d^ - d| <= kappa d, kappa =
    gamma_{n+6}, against the exact pseudo-metric d of the same two rows:

    * a gap |fl(v_i - v_j)| is within u of its exact value, since the
      subtraction is correctly rounded per component; np.abs on complex
      numbers is assumed within 4u of |z| (see spectral._screen_bound), so
      every gap is within gamma_5;
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

    So (a - b) - 2 kappa (a + b) >= eps proves d^(i, j) >= eps, and
    (a + b)(1 + 2 kappa') < eps proves d^(i, j) < eps.  The screen tests
    them as under_i >= over_j and over_i < room_j, with under =
    a (1 - c) - eps, over = a (1 + c) and room = eps - over
    (_pivot_screen).  The returned c = 4 kappa' doubles both margins, and
    the half it adds, at least 2 kappa >= 14u, covers the five roundings
    of under, over and room: they move the first test by at most
    3.02u (a + b) and the second by about 3.01u eps.

    The errors are relative while nothing overflows; underflow adds an
    absolute error below 2**-1070 per distance, which the doubled margin
    absorbs for eps >= 2**-1000.  For eps <= 2**900, (a + b)(1 + c) < eps
    also bounds every partial sum of d^(i, j) far below overflow.  Outside
    that range, and for other feature types (narrower floats round more
    coarsely, integer differences and running sums can wrap), _ball_matrix
    screens nothing.  A pivot distance that is not finite becomes nan and
    fails every test, so its pairs are reduced exactly.
    """
    k, u = n + 6, 2.0**-53
    kappa = k * u / (1 - k * u)
    return 4.0 * kappa / (1 - kappa)


def _pivot_screen(kind: MetricKind, feats: np.ndarray, eps: float) -> tuple:
    """(under, over, room), each (P, m), from the exact distance rows a of up
    to _PIVOTS pivots picked by farthest-first traversal from row 0 (nan
    distances count as near): under = a (1 - c) - eps, over = a (1 + c) and
    room = eps - over, with c = _kernel_bound(n).

    Against pivot p, pair (i, j) is surely out of the ball when
    under_i >= over_j or under_j >= over_i, and surely in when
    over_i < room_j.  No pivot is taken where _kernel_bound does not hold:
    for eps outside [2**-1000, 2**900], and for features other than float64
    or complex128.
    """
    m, n = feats.shape
    rows = []
    if m and feats.dtype in (np.float64, np.complex128) and 2.0**-1000 <= eps <= 2.0**900:
        rows.append(_distance_rows(kind, feats, [0])[0])
        near = rows[0]
        for _ in range(1, min(_PIVOTS, m)):
            far = int(np.argmax(np.fmax(near, -1.0)))
            rows.append(_distance_rows(kind, feats, [far])[0])
            near = np.fmin(near, rows[-1])
    a = np.array(rows).reshape(len(rows), m)
    a[~np.isfinite(a)] = np.nan
    c = _kernel_bound(n)
    over = a * (1 + c)
    return a * (1 - c) - eps, over, eps - over


def _screen_block(screen, lo, hi, left, right) -> tuple:
    """(inside, settled), each (hi - lo, right - left): the pairs of rows
    lo..hi-1 and columns left..right-1 that the pivot screen (_pivot_screen)
    proves in the ball, and those it decides either way."""
    inside = np.zeros((hi - lo, right - left), dtype=bool)
    settled = inside.copy()
    for under, over, room in zip(*screen):
        inside |= over[lo:hi, None] < room[left:right]
        settled |= under[lo:hi, None] >= over[left:right]
        settled |= over[lo:hi, None] <= under[left:right]
    settled |= inside
    return inside, settled


def _ball_matrix(kind: MetricKind, feats: np.ndarray, eps: float) -> np.ndarray:
    """_distance_matrix(kind, feats) < eps, bit for bit, without a float
    m x m array.

    Hamming compares the exact agreement counts with the least count a* at
    which the kernel's (n - a*) / n falls below eps; that float quotient is
    monotone in a, so no ball moves.  fbar/fhat screen each block against
    the exact distance rows of a few pivots (_pivot_screen, _kernel_bound),
    on and above the diagonal, mirrored, and reduce only the pairs it leaves
    open (_distance_pairs).  A screened pair costs about as much as a
    distance at horizon 16, and a pair reduced alone more than one in a
    whole block, so the screen is kept only where it settles at least half
    of the pairs of the first tile (the samples are independent, so those
    pairs stand for the rest); otherwise every block is reduced whole with
    _distance_rows, as in _distance_matrix.
    """
    m, n = feats.shape
    if isinstance(kind, HammingKind):
        agree = np.arange(n + 1)
        below = np.true_divide(n - agree, n, dtype=np.float64) < eps
        return _agreements(feats) >= n + 1 - np.count_nonzero(below)
    screen = _pivot_screen(kind, feats, eps)
    side = isqrt(_chunk_rows(n))
    probe = min(side, m)
    settled = _screen_block(screen, 0, probe, 0, probe)[1]
    screened = 2 * np.count_nonzero(settled) >= settled.size > 0
    # side x width blocks whose screen temporaries stay near _CHUNK_BYTES
    width = side * max(1, _chunk_rows(side) // side)
    out = np.empty((m, m), dtype=bool)
    for lo in range(0, m, side):
        hi = min(lo + side, m)
        for left in range(lo, m, width):
            right = min(left + width, m)
            if screened:
                block, settled = _screen_block(screen, lo, hi, left, right)
                i, j = np.nonzero(~settled)
                block[i, j] = _distance_pairs(kind, feats, lo + i, left + j) < eps
            else:
                block = _distance_rows(kind, feats, slice(lo, hi), slice(left, right)) < eps
            out[lo:hi, left:right] = block
            out[left:right, lo:hi] = block.T
    return out


def pairwise_distances(kind: MetricKind, system, samples, n: int) -> np.ndarray:
    return _distance_matrix(kind, _sample_features(kind, system, samples, n))


def _pair_distance(kind: MetricKind, system, x, y, n: int) -> float:
    """The kernel's distance between two points, each a batch of one (or
    anything the system's as_batch takes); Hamming points may also be
    NameWords of length n."""
    feats = np.concatenate([
        _sample_features(kind, system, [p] if isinstance(p, NameWord) else system.as_batch(p), n)
        for p in (x, y)])
    return float(_distance_rows(kind, feats, [0])[0, 1])


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


def _mass_product(mass: np.ndarray, ball: np.ndarray) -> np.ndarray:
    """mass @ ball, exact for the integer masses of _gain_dtype's types.
    Python ints (object) pass through float64 BLAS in limbs narrow enough
    that every partial sum of a limb stays below 2**52."""
    if mass.dtype != object:
        return mass @ ball
    bits = 52 - len(ball).bit_length()
    top = max((int(v).bit_length() for v in mass.flat), default=0)
    out = np.zeros((len(mass), ball.shape[1]), dtype=object)
    for shift in range(0, top, bits):
        limb = ((mass >> shift) & ((1 << bits) - 1)).astype(np.float64)
        out += (limb @ ball).astype(np.int64).astype(object) << shift
    return out


def _components(balls: np.ndarray) -> tuple:
    """(nodes, starts): the samples whose ball holds another sample, grouped
    by component of the ball graph (i ~ j iff balls[i, j]) and ascending
    within each, and the offset of each component in nodes.

    Labels start as the sample indices.  Each round lowers every label, and
    the label its label points to, to the least label in its ball, then
    takes the label's own label, until every component carries its least
    index.  The ball members are read in row chunks and kept in the
    narrowest index type.
    """
    m = len(balls)
    size = np.count_nonzero(balls, axis=1)
    rows = np.flatnonzero(size > 1)
    step = _chunk_rows(m)
    members = np.concatenate([np.flatnonzero(balls[rows[lo : lo + step]]) % m
                              for lo in range(0, max(len(rows), 1), step)])
    members = members.astype(np.min_scalar_type(m))
    first = np.cumsum(size[rows]) - size[rows]
    label = np.arange(m)
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
    * A step takes the argmax in every live (row, component) and subtracts
      the newly covered mass from the gains with one product.  A pick not
      yet computed has a larger key than the smallest latest key of the
      row's live components, so a row stops once the merged picks up to
      that key reach its target mass or exceed its budget.
    * Gains are exact integers, held in the type _gain_dtype picks.
    """
    counts = np.asarray(counts)
    R, m = counts.shape
    totals = [int(t) for t in counts.sum(axis=1)]
    needs = [_units_needed(t, eps) for t in totals]
    dtype = _gain_dtype(max(totals, default=0))
    exact = object if dtype is object else np.float64  # for sums of gains
    # a pick of gain 0 only ever serves a target above the total mass
    floor = np.array([int(need <= t) for need, t in zip(needs, totals)])
    counts = counts.astype(dtype)

    nodes, starts = _components(balls)
    lone = np.flatnonzero(np.bincount(nodes, minlength=m) == 0)
    # a lone sample's ball is itself, or empty when its distances are nan
    gain = np.where(balls[lone, lone], counts[:, lone], 0)
    row, col = np.nonzero(gain >= floor[:, None])
    pending = [row, gain[row, col], lone[col]]  # known picks: row, gain, index

    comp = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(nodes)))
    # block diagonal; no gather when one component holds every sample
    ball = balls if len(nodes) == m and len(starts) == 1 else balls[:, nodes][nodes]
    ball = ball.astype(np.float64 if dtype is object else dtype)
    left = counts[:, nodes]  # mass not yet covered
    gains = _mass_product(left, ball)
    cand = np.ones(left.shape, dtype=bool)

    mass, taken = np.zeros(R, dtype=exact), np.zeros(R, dtype=np.int64)
    needs_at = np.array(needs, dtype=exact)
    kg, ki = np.zeros(R, dtype=exact), np.zeros(R, dtype=np.intp)
    log = []
    live = np.arange(R)
    P, at = len(nodes), np.arange(len(nodes))
    while True:
        # each live (row, component): its best candidate and that gain
        masked = np.where(cand, gains, -1)
        top = np.maximum.reduceat(masked, starts, axis=1)
        pos = np.minimum.reduceat(np.where(masked == top[:, comp], at, P), starts, axis=1)
        going = top >= floor[live, None]
        best = np.where(going, top, -1).max(axis=1, initial=-1)
        # the row's smallest new key; with no pick (gain -1) every key is known
        kg[live] = best
        ki[live] = np.where(going & (top == best[:, None]), nodes[pos], m).min(axis=1, initial=m)
        pr, pc = np.nonzero(going)
        pos = pos[pr, pc]
        new = [live[pr], top[pr, pc], nodes[pos]]
        pending = [np.concatenate(pair) for pair in zip(pending, new)]
        r, g, i = pending
        known = (g > kg[r]) | ((g == kg[r]) & (i <= ki[r]))
        np.add.at(mass, r[known], g[known])
        taken += np.bincount(r[known], minlength=R)
        log.append([a[known] for a in pending])

        done = (mass[live] >= needs_at[live]) | (taken[live] > max_centers) | (best == -1)
        running = np.zeros(R, dtype=bool)
        running[live[~done]] = True
        pending = [a[~known & running[r]] for a in pending]
        if done.all():
            break
        keep = ~done
        live, gains, cand, left = live[keep], gains[keep], cand[keep], left[keep]
        stay = keep[pr]
        pr, pc, pos = (np.cumsum(keep) - 1)[pr[stay]], pc[stay], pos[stay]
        # cover the picks' balls; row p of the block-diagonal ball is zero
        # outside p's component
        src = np.full((live.size, len(starts)), -1)
        src[pr, pc] = pos
        src = src[:, comp]
        covered = (src >= 0) & (ball.take(src * P + at) > 0)
        cand &= ~covered
        fresh = np.where(covered, left, 0)
        left -= fresh
        touched = np.flatnonzero(fresh.any(axis=0))
        gains -= _mass_product(fresh[:, touched], ball[touched])

    r, g, i = (np.concatenate(a) for a in zip(*log))
    order = np.lexsort((i, -g, r))
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
    horizons = [int(h) for h in horizons]
    if len(horizons) < 3 or any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise InvalidParameterError("need >= 3 strictly increasing horizons")
    _check_budget(max_centers)
    _check_bytes(_COVER_ENTRY_BYTES * sample_count**2, f"a cover of {sample_count} samples")
    samples = system.sample_measure(sample_count, plan.child(_TAG_CURVE_SAMPLES))
    budget = sample_count if max_centers is None else max_centers
    pts = []
    for n in horizons:
        feats = _sample_features(kind, system, samples, n)
        balls = _ball_matrix(kind, feats, eps)
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
