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
mass) follow the definitions exactly.  Hamming counts come from float32
indicator-plane products (exact while n < 2**24), fbar/fhat fill mirrored
tiles bit for bit, greedy gains are exact integers and masses compare in
rational arithmetic, so boundary ties resolve to "not covered".
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

import numpy as np

from .errors import (
    BudgetExhaustedError,
    InstanceTooLargeError,
    InvalidParameterError,
)
from .metrics import fbar_n, fhat_n, hamming_avg
from .observables import Observable
from .partitions import NameWord, Partition, cylinder, name_symbols, name_word
from .rng import RandomPlan
from .systems import SystemHandle

_CHUNK = 32


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
    """Per-sample horizon-n features: name symbols or orbit values."""
    if isinstance(kind, HammingKind):
        rows = []
        for s in samples:
            if isinstance(s, NameWord):
                arr = s.as_array()
                if arr.size != n:
                    raise InvalidParameterError("name word length differs from horizon")
                rows.append(arr)
            else:
                rows.append(name_symbols(system, kind.partition, s, n))
        return np.stack(rows)
    f = kind.observable
    return np.stack([f.orbit_values(system, s, n) for s in samples])


def _pairwise_hamming(labels: np.ndarray) -> np.ndarray:
    """Fraction of differing positions for every row pair.

    Agreements are summed as P_s @ P_s.T over the indicator planes
    P_s = (labels == s).  Every partial sum is an integer <= n, so float32
    is exact while n < 2**24, whatever the BLAS blocking or thread count.
    """
    m, n = labels.shape
    dtype = np.float32 if n < 2**24 else np.float64
    agree = np.zeros((m, m), dtype=dtype)
    for s in range(int(labels.max()) + 1 if m else 0):
        plane = (labels == s).astype(dtype)
        agree += plane @ plane.T
    return np.true_divide(np.subtract(n, agree, out=agree), n, dtype=np.float64)


def _pairwise_gaps(values: np.ndarray, reduce, chunk: int) -> np.ndarray:
    """reduce(|v_i - v_j|) over the time axis for every row pair.

    Only the tiles on and above the diagonal are computed: |v_i - v_j| and
    |v_j - v_i| are bitwise equal and each pair reduces one contiguous row,
    so a mirrored tile equals a directly computed one.
    """
    m = values.shape[0]
    out = np.empty((m, m))
    for lo in range(0, m, chunk):
        rows = values[lo : lo + chunk, None, :]
        for lo2 in range(lo, m, chunk):
            tile = reduce(np.abs(rows - values[None, lo2 : lo2 + chunk, :]))
            out[lo : lo + chunk, lo2 : lo2 + chunk] = tile
            out[lo2 : lo2 + chunk, lo : lo + chunk] = tile.T
    return out


def _pairwise_fbar(values: np.ndarray) -> np.ndarray:
    return _pairwise_gaps(values, lambda gaps: gaps.mean(axis=2), _CHUNK)


def _pairwise_fhat(values: np.ndarray) -> np.ndarray:
    inv = 1.0 / np.arange(1, values.shape[1] + 1)
    return _pairwise_gaps(
        values, lambda gaps: (np.cumsum(gaps, axis=2) * inv).max(axis=2), _CHUNK // 2
    )


def _distance_matrix(kind: MetricKind, feats: np.ndarray) -> np.ndarray:
    if isinstance(kind, HammingKind):
        return _pairwise_hamming(feats)
    if isinstance(kind, FbarKind):
        return _pairwise_fbar(feats)
    return _pairwise_fhat(feats)


def pairwise_distances(kind: MetricKind, system, samples, n: int) -> np.ndarray:
    return _distance_matrix(kind, _sample_features(kind, system, samples, n))


def distance(kind: MetricKind, system, x, y, n: int) -> float:
    if isinstance(kind, HammingKind):
        wx = x if isinstance(x, NameWord) else name_word(system, kind.partition, x, n)
        wy = y if isinstance(y, NameWord) else name_word(system, kind.partition, y, n)
        return hamming_avg(wx, wy)
    if isinstance(kind, FbarKind):
        return fbar_n(system, kind.observable, x, y, n)
    return fhat_n(system, kind.observable, x, y, n)


def ball_member(center, candidate, n: int, eps: float, kind: MetricKind,
                system: Optional[SystemHandle] = None) -> bool:
    """Whether candidate lies in the open radius-eps ball around center."""
    if eps <= 0:
        raise InvalidParameterError("ball radius must be positive")
    return distance(kind, system, center, candidate, n) < eps


# ---------------------------------------------------------------------------
# Greedy cover


def _units_needed(total_units: int, eps: float) -> int:
    """Least covered units c with c / total_units > 1 - eps, decided exactly."""
    feps = Fraction(eps)
    short = total_units * (feps.denominator - feps.numerator)
    return max(0, short // feps.denominator + 1)


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
    if n < 1:
        raise InvalidParameterError("horizon must be >= 1")
    if eps <= 0:
        raise InvalidParameterError("eps must be positive")
    m = len(samples)
    members = _ball_members(pairwise_distances(kind, system, samples, n) < eps)
    if weights is None:
        counts = [1] * m
    else:
        # scale rational weights to integer units for exact mass comparisons
        fracs = [Fraction(float(w)) for w in weights]
        denom = lcm(*(f.denominator for f in fracs))
        counts = [int(f * denom) for f in fracs]
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

    Branch and bound over center subsets; feasible for small word counts
    (the intended regime is alphabet**n up to ~2**16).
    """
    words = [np.asarray(w, dtype=np.int64) for w, _ in word_distribution]
    masses = [Fraction(float(m)) for _, m in word_distribution]
    W = len(words)
    if W == 0:
        raise InvalidParameterError("empty word distribution")
    if W > 65536:
        raise InstanceTooLargeError(f"{W} words exceeds the exact-oracle cap")
    if abs(float(sum(masses)) - 1.0) > 1e-9:
        raise InvalidParameterError("word masses must sum to 1")
    if any(len(w) != n for w in words):
        raise InvalidParameterError("all words must have length n")

    mat = np.stack(words)
    target = 1 - Fraction(eps)

    # ball of center i as a bitset over word indices
    ball_sets = []
    ball_mass = []
    for i in range(W):
        member = (mat != mat[i]).sum(axis=1) / n < eps
        bits = 0
        tot = Fraction(0)
        for j in np.nonzero(member)[0]:
            bits |= 1 << int(j)
            tot += masses[j]
        ball_sets.append(bits)
        ball_mass.append(tot)

    order = sorted(range(W), key=lambda i: (-ball_mass[i], i))
    sets_o = [ball_sets[i] for i in order]
    mass_f = [float(ball_mass[i]) for i in order]

    def union_mass(bits: int) -> Fraction:
        tot = Fraction(0)
        j = 0
        while bits:
            if bits & 1:
                tot += masses[j]
            bits >>= 1
            j += 1
        return tot

    def feasible(k: int) -> bool:
        # DFS over index-increasing center combinations of size <= k
        def rec(start: int, chosen_bits: int, depth: int) -> bool:
            if union_mass(chosen_bits) > target:
                return True
            if depth == k:
                return False
            slots = k - depth
            for idx in range(start, W):
                # optimistic bound: add the largest remaining ball masses
                bound = float(union_mass(chosen_bits)) + sum(
                    mass_f[idx : idx + slots]
                )
                if bound <= float(target) - 1e-12:
                    return False
                if rec(idx + 1, chosen_bits | sets_o[idx], depth + 1):
                    return True
            return False

        return rec(0, 0, 0)

    # greedy upper bound guarantees termination; hamming distance between
    # NameWords ignores the partition, so any cylinder stand-in works
    greedy = estimate_cover_number(
        [NameWord(tuple(int(s) for s in w), int(mat.max()) + 1) for w in words],
        n,
        eps,
        HammingKind(cylinder([0], max(2, int(mat.max()) + 1))),
        weights=[float(m) for m in masses],
    )
    for k in range(1, greedy.count + 1):
        if feasible(k):
            return k
    return greedy.count


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
