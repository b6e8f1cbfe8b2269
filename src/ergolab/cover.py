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
``_distance_rows`` for a few rows, ``_distance_matrix`` for a whole
matrix.  The two agree bit for bit, and every fbar/fhat tile is sized
from the one byte budget ``systems._CHUNK_BYTES``.  Both cover routes
count mass in exact integer units, so boundary ties resolve to "not
covered".
"""

from __future__ import annotations

import heapq
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
from .systems import SystemHandle, _chunk_rows

# word cap of the exact oracle: its W x W distance and ball matrices stay
# near 200 MB
_ORACLE_WORDS = 4096


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


def _distance_rows(kind: MetricKind, feats: np.ndarray, rows) -> np.ndarray:
    """Rows `rows` of the distance matrix of feats, bit for bit, without the
    rest of it; the other samples are read in chunks whose gap temporary
    stays near systems._CHUNK_BYTES.

    The per-pair arithmetic does not depend on the chunk shape: fbar and
    fhat reduce one contiguous row of gaps per pair (a mean; the maximum of
    the running mean), and a Hamming distance is an exact mismatch count
    divided by n.
    """
    m, n = feats.shape
    head = feats[rows][:, None, :]
    out = np.empty((head.shape[0], m))
    step = _chunk_rows(head.shape[0] * n)
    for lo in range(0, m, step):
        tail = feats[None, lo : lo + step, :]
        if isinstance(kind, HammingKind):
            out[:, lo : lo + step] = np.count_nonzero(head != tail, axis=2) / n
        elif isinstance(kind, FbarKind):
            out[:, lo : lo + step] = np.abs(head - tail).mean(axis=2)
        else:
            gaps = np.cumsum(np.abs(head - tail), axis=2)
            out[:, lo : lo + step] = (gaps * (1.0 / np.arange(1, n + 1))).max(axis=2)
    return out


def _distance_matrix(kind: MetricKind, feats: np.ndarray) -> np.ndarray:
    """The m x m distance matrix of feats; equal, entry for entry, to
    _distance_rows, so a block of it is _distance_matrix on its own rows.

    Hamming sums agreements as P_s @ P_s.T over the indicator planes
    P_s = (labels == s): every partial sum is an integer <= n, so float32
    is exact while n < 2**24, whatever the BLAS blocking or thread count.
    fbar/fhat take square blocks of _distance_rows on and above the
    diagonal and mirror them: |v_i - v_j| and |v_j - v_i| are bitwise equal.
    """
    m, n = feats.shape
    if isinstance(kind, HammingKind):
        dtype = np.float32 if n < 2**24 else np.float64
        agree = np.zeros((m, m), dtype=dtype)
        for s in range(int(feats.max()) + 1 if m else 0):
            plane = (feats == s).astype(dtype)
            agree += plane @ plane.T
        return np.true_divide(np.subtract(n, agree, out=agree), n, dtype=np.float64)
    out = np.empty((m, m))
    step = isqrt(_chunk_rows(n))
    for lo in range(0, m, step):
        block = _distance_rows(kind, feats[lo:], slice(0, step))
        out[lo : lo + step, lo:] = block
        out[lo:, lo : lo + step] = block.T
    return out


def pairwise_distances(kind: MetricKind, system, samples, n: int) -> np.ndarray:
    return _distance_matrix(kind, _sample_features(kind, system, samples, n))


def ball_member(center, candidate, n: int, eps: float, kind: MetricKind,
                system: Optional[SystemHandle] = None) -> bool:
    """Whether candidate lies in the open radius-eps ball around center.

    Decided on the covers' kernel, so it agrees with their balls bit for
    bit.  Hamming points may be NameWords of length n, points, or one of
    each.
    """
    if eps <= 0:
        raise InvalidParameterError("ball radius must be positive")
    feats = np.concatenate(
        [_sample_features(kind, system, [x], n) for x in (center, candidate)])
    return bool(_distance_rows(kind, feats, [0])[0, 1] < eps)


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


def _ball_members(balls: np.ndarray) -> list:
    """Each row of the bool ball matrix as a list of member indices; the
    lists share one int object per index, so an entry costs one pointer."""
    index = list(range(len(balls))).__getitem__
    return [list(map(index, np.flatnonzero(row).tolist())) for row in balls]


def _greedy_cover(members: list, counts: list, gains: list, eps: float,
                  max_centers: int) -> tuple[list, int, int]:
    """Greedy weighted set cover; returns (centers, covered_units, total_units).

    ``members[i]`` lists the ball around sample i, ``counts`` the integer
    sample masses and ``gains[i]`` the mass of ball i.  Candidates are
    restricted to still-uncovered samples, which keeps the chosen centers
    pairwise at least eps apart.  Each step takes the lowest index among
    the largest gains: a heap holds (-gain bound, index), and a popped
    candidate whose refreshed gain equals its bound is taken.  Raises
    when the budget runs out.
    """
    left = list(counts)  # mass of each sample not yet covered
    total = sum(left)
    uncovered = [True] * len(left)
    heap = [(-g, i) for i, g in enumerate(gains)]
    heapq.heapify(heap)
    need = _units_needed(total, eps)
    covered = 0
    centers: list[int] = []

    def exhausted(why: str) -> BudgetExhaustedError:
        return BudgetExhaustedError(why, centers=centers, covered_mass=covered / total)

    while covered < need:
        while True:
            if not heap:
                raise exhausted("no uncovered candidate can extend the cover")
            bound, i = heapq.heappop(heap)
            if not uncovered[i]:
                continue
            gain = sum(map(left.__getitem__, members[i]))
            if gain == -bound:
                break
            heapq.heappush(heap, (-gain, i))
        if len(centers) >= max_centers:
            raise exhausted(f"center budget {max_centers} exhausted")
        centers.append(i)
        covered += gain
        for j in members[i]:
            left[j] = 0
            uncovered[j] = False
    return centers, covered, total


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
    if eps <= 0:
        raise InvalidParameterError("eps must be positive")
    m = len(samples)
    members = _ball_members(pairwise_distances(kind, system, samples, n) < eps)
    counts = [1] * m if weights is None else _mass_units(weights)[0]
    gains = [sum(map(counts.__getitem__, mem)) for mem in members]
    budget = m if max_centers is None else max_centers
    centers, covered, total = _greedy_cover(members, counts, gains, eps, budget)
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
    if n < 1 or eps <= 0:
        raise InvalidParameterError("need n >= 1 and eps > 0")

    # dense labels 0..k-1: the Hamming kernel only counts labels in 0..max;
    # it reads the kind's type, not its partition
    _, labels = np.unique(np.array(words, dtype=np.int64), return_inverse=True)
    D = _distance_matrix(HammingKind(None), labels.reshape(W, n))
    members = _ball_members(D < eps)
    gains = [sum(map(units.__getitem__, mem)) for mem in members]
    upper = len(_greedy_cover(members, units, gains, eps, W)[0])

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
    if eps <= 0:
        raise InvalidParameterError("eps must be positive")
    horizons = [int(h) for h in horizons]
    if len(horizons) < 3 or any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise InvalidParameterError("need >= 3 strictly increasing horizons")
    samples = system.sample_measure(sample_count, plan.child(_TAG_CURVE_SAMPLES))
    budget = sample_count if max_centers is None else max_centers
    pts = []
    for n in horizons:
        feats = _sample_features(kind, system, samples, n)
        # one set of balls serves the point estimate and every resample
        balls = _distance_matrix(kind, feats) < eps
        members = _ball_members(balls)
        ones, sizes = [1] * sample_count, list(map(len, members))
        try:
            centers, covered, total = _greedy_cover(members, ones, sizes, eps, budget)
            k_est = len(centers)
            covered_mass = covered / total
            budget_hit = False
        except BudgetExhaustedError as exc:
            k_est = budget
            covered_mass = exc.covered_mass or 0.0
            budget_hit = True
        if budget_hit:
            k_lo = k_hi = float(k_est)
        else:
            rng = plan.generator(_TAG_BOOTSTRAP, n)
            draws = np.stack([np.bincount(rng.integers(0, sample_count, sample_count),
                                          minlength=sample_count) for _ in range(_RESAMPLES)])
            # all resamples' ball masses in one product; float32 is exact as
            # every partial sum is an integer <= sample_count (far below 2**24)
            masses = (draws.astype(np.float32) @ balls.T).astype(np.int64)
            boot = []
            for counts, gains in zip(draws.tolist(), masses.tolist()):
                try:
                    c, _, _ = _greedy_cover(members, counts, gains, eps, budget)
                    boot.append(len(c))
                except BudgetExhaustedError:
                    boot.append(budget)
            k_lo = float(min(np.percentile(boot, 10), k_est))
            k_hi = float(max(np.percentile(boot, 90), k_est))
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
    least k with k/sample_count > 1 - eps) or all hit the center budget:
    a cap makes the tail flat by construction, so flatness says nothing.
    Growing: estimates rise monotonically with the last at least twice
    the first.  Anything else is inconclusive.
    """
    ests = curve.estimates if hasattr(curve, "estimates") else [int(v) for v in curve]
    if len(ests) < 3:
        raise InvalidParameterError("need at least 3 curve points")
    tail = ests[-3:]
    capped = isinstance(curve, ComplexityCurve) and (
        tail == [_units_needed(curve.sample_count, curve.eps)] * 3
        or all(p.budget_hit for p in curve.points[-3:])
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
