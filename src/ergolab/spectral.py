"""Koopman-operator geometry in L2: orbit covering numbers as a
precompactness probe, Monte Carlo L2 distances, eigenfunction residuals.

All L2 integrals share one sample set per plan (common random numbers),
so pairwise distances between Koopman iterates are exactly symmetric and
identical arguments give exactly zero.  The almost-periodicity verdict is
the computable proxy for "the closure of {U^n f} is compact": covering
numbers that stop growing in the horizon.

The covering greedy and the distance summary never build the N x N
distance matrix.  They screen pairs with the Gram form of the squared
distance, computed in row blocks from the (m, N) orbit read, and recompute
with the per-pair _l2 arithmetic only the pairs whose Gram value lies
within a proved rounding bound of a decision (see _screen_bound), so their
outputs are those of the full matrix bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cover import _ladder
from .errors import InvalidParameterError
from .observables import Observable, eval_many
from .rng import RandomPlan
from .systems import SystemHandle, _chunk_rows

_TAG_L2 = 51


def koopman_value(system: SystemHandle, f: Observable, n: int, x) -> complex:
    """(U^n f)(x) = f(T^n x); n may be negative (all catalog maps invert)."""
    return complex(f.eval(system, system.step(x, int(n))))


def _l2(a: np.ndarray, b: np.ndarray):
    """L2 distance over the last axis: one float per row of a 2-D argument."""
    return np.sqrt(np.mean(np.abs(a - b) ** 2, axis=-1))


def l2_distance(
    system: SystemHandle,
    f: Observable,
    g: Observable,
    sample_count: int,
    plan: RandomPlan,
) -> float:
    """Monte Carlo estimate of || f - g ||_{L2(mu)}.

    Both observables are evaluated on the same sample set, so the result
    is symmetric and l2_distance(f, f) is exactly zero.
    """
    if sample_count < 1:
        raise InvalidParameterError("sample_count must be >= 1")
    samples = system.sample_measure(sample_count, plan.child(_TAG_L2))
    return float(_l2(eval_many(f, system, samples), eval_many(g, system, samples)))


def eigen_residual(
    system: SystemHandle,
    f: Observable,
    lam: complex,
    sample_count: int,
    plan: RandomPlan,
) -> float:
    """|| U f - lam f ||_{L2}, zero iff f is a lam-eigenfunction (mod noise)."""
    if abs(abs(lam) - 1.0) > 1e-9:
        raise InvalidParameterError("eigenvalue must lie on the unit circle")
    samples = system.sample_measure(sample_count, plan.child(_TAG_L2))
    pairs = f.orbit_rows(system, samples, 2)
    return float(_l2(pairs[:, 1], lam * pairs[:, 0]))


# ---------------------------------------------------------------------------
# Orbit covering numbers


@dataclass(frozen=True)
class OrbitGeometry:
    horizon: int
    radius: float
    covering_count: int
    dist_min: float     # off-diagonal pairwise distance summary
    dist_median: float
    dist_max: float
    sample_count: int

    def to_json(self) -> dict:
        return {
            "horizon": self.horizon,
            "radius": self.radius,
            "covering_count": self.covering_count,
            "distances": {
                "min": self.dist_min,
                "median": self.dist_median,
                "max": self.dist_max,
            },
            "sample_count": self.sample_count,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OrbitGeometry":
        d = obj["distances"]
        return cls(obj["horizon"], obj["radius"], obj["covering_count"],
                   d["min"], d["median"], d["max"], obj["sample_count"])


# ---------------------------------------------------------------------------
# Gram screen
#
# The orbit geometry reads pairwise L2 distances between rows of V = X.T only
# through comparisons: against the radius in the greedy, and against each
# other in the summary.  A pair is decided from the Gram form
#     S = |a|^2 + |b|^2 - 2 Re<a, b>   (m d^2 up to rounding)
# whenever S lies farther than a proved error bound from the comparison;
# only the pairs inside that band are recomputed with the per-pair arithmetic
# of _l2, so every value that reaches the output is the one the full list of
# pair distances gives.


def _screen_bound(m: int) -> float:
    """c with |S_l2 - S_gram| <= c (|a|^2 + |b|^2 + level) for the screen.

    The orbit values are float64 or complex128 (_orbit_scan promotes any
    other dtype).  With u = 2**-53 and gamma_k = k u / (1 - k u), the
    standard bounds for a sum of k rounded terms (any summation order,
    fused or not) give, for rows a, b of m samples (2m real products in a
    complex dot product), exact A = |a|^2, B = |b|^2, R = Re<a, b> and
    D = A + B - 2R:

    * the norms and the BLAS product: |A^ - A| <= gamma_2m A and
      |R^ - R| <= gamma_2m sum|a_s b_s| <= gamma_2m (A + B) / 2;
    * S_gram = (A^ + B^) - 2 R^ adds two roundings of size at most
      u (A + B) and 2u (A + B), so |S_gram - D| <= 2 gamma_{2m+2} (A + B);
    * _l2 sums t_s = |fl(a_s - b_s)|^2.  The subtraction is correctly
      rounded per component, the square rounds once, and np.abs on complex
      numbers is assumed within 4u of |z| (numpy's SIMD hypot is not
      correctly rounded; 2u is the largest error measured on random inputs
      against math.hypot), so t_s is within gamma_11 of its exact value and
      the m-term sum S_l2 of nonnegative terms satisfies
      |S_l2 - D| <= gamma_{m+10} D <= 2 gamma_{m+10} (A + B);
    * d = sqrt(S_l2 / m) rounds twice more and the level m r^2 twice: the
      decision d <= r is settled once S_l2 is 8u of m r^2 away from it.

    Together |S_l2 - S_gram| <= 4 gamma_{2m+10} (A + B) + gamma_8 m r^2.  The
    returned c = 8 gamma_{2m+10} doubles that bound, which also covers the
    rounding of A^ + B^ + level and of c (A^ + B^ + level) themselves.
    """
    k, u = 2 * m + 10, 2.0**-53
    return 8.0 * k * u / (1 - k * u)


def _sq_norms(X: np.ndarray) -> np.ndarray:
    """Sum over the samples of |x|^2 for every column of X, in column chunks."""
    m, N = X.shape
    out = np.empty(N)
    step = _chunk_rows(m * X.itemsize // 8)
    for lo in range(0, N, step):
        block = X[:, lo : lo + step]
        out[lo : lo + step] = (block.conj() * block).real.sum(axis=0)
    return out


def _gram_screen(X, norms, rows, level) -> tuple:
    """(S, delta) for the rows `rows` of V = X.T against every row of V.

    S[a, b] is the Gram form of m * d(V[rows[a]], V[b])^2 and delta the
    bound of _screen_bound around the comparison level: S < level - delta
    proves d <= r, S > level + delta proves d > r, and with level 0 the
    sum of squares that _l2 takes the root of lies in [S - delta, S + delta].
    The product reads X in place; only the rows block is copied.
    """
    G = X[:, rows].conj().T @ X
    total = norms[rows, None] + norms
    return total - 2 * G.real, _screen_bound(X.shape[0]) * (total + level)


def _gram_rows(X) -> int:
    """Rows per Gram block: one block stays near systems._CHUNK_BYTES."""
    return _chunk_rows(max(X.shape) * X.itemsize // 8)


def _l2_pairs(V, i, j, pairwise: bool) -> np.ndarray:
    """_l2 of the row pairs (V[i[k]], V[j[k]]), summed as the full-matrix
    calls summed it, in chunks of pairs.

    numpy sums |V[j] - V[i]|^2 sequentially over the samples when the
    difference array is a transposed view (rows of the (m, N) read) and
    pairwise when it is a C-ordered copy or a single row; np.cumsum is the
    sequential order, and add.reduce over a contiguous row the pairwise one.
    |V[j] - V[i]| and |V[i] - V[j]| are bitwise equal.
    """
    m = V.shape[1]
    out = np.empty(len(j))
    step = _chunk_rows(m * V.itemsize // 8)
    for a in range(0, len(j), step):
        sq = np.ascontiguousarray(np.abs(V[j[a : a + step]] - V[i[a : a + step]]) ** 2)
        total = sq.sum(axis=1) if pairwise else np.cumsum(sq, axis=1)[:, -1]
        out[a : a + step] = np.sqrt(total / m)
    return out


def _greedy_orbit_centers(X: np.ndarray, r: float) -> list:
    """First-uncovered-index greedy cover of the rows of V = X.T by L2 balls.

    Scanning indices in order makes the center list a prefix-stable
    function of the rows: the count at any shorter horizon is the number
    of centers below it, hence covering counts are nondecreasing in N.
    Every index below the current one is covered, so a block of Gram rows
    (the next still-uncovered indices) is taken against the later rows
    only, and an orbit with few centers reads few blocks.  Ball membership
    (d <= r) is screened, and only pairs within the error band are
    recomputed with the _l2 arithmetic.
    """
    m, N = X.shape
    V, norms, level = X.T, _sq_norms(X), r * r * m
    covered = np.zeros(N, dtype=bool)
    centers = []
    block = np.empty(0, dtype=np.intp)
    for i in range(N):
        if covered[i]:
            continue
        k = int(np.searchsorted(block, i))
        if k == block.size or block[k] != i:
            block = i + np.flatnonzero(~covered[i:])[: _gram_rows(X)]
            S, delta = _gram_screen(X[:, i:], norms[i:], block - i, level)
            start, k = i, 0
        inside = S[k, i - start :] < level - delta[k, i - start :]
        out = S[k, i - start :] > level + delta[k, i - start :]
        band = np.flatnonzero(~inside & ~out & ~covered[i:])
        inside[band] = _l2_pairs(V, np.full(band.size, i), i + band, False) <= r
        covered[i:] |= inside
        centers.append(i)
    return centers


def _distance_summary(X: np.ndarray, h: int) -> tuple:
    """Min, median and max of the L2 distances between distinct rows among
    the first h rows of V = X.T (256 evenly strided rows when h > 512).

    The values equal those of the full list of _l2 pair distances: pairs
    whose Gram bounds settle their rank are only counted, and the exact
    order statistics come from the pairs inside the bands, recomputed as
    the list summed them (sequentially, except the single-row last call and
    the strided copy, which sum pairwise).  The middle values combine as
    np.median combines them.
    """
    if h < 2:
        return 0.0, 0.0, 0.0
    strided = h > 512
    cols = np.unique(np.linspace(0, h - 1, 256).astype(int)) if strided else slice(0, h)
    Y = X[:, cols]
    s = Y.shape[1]
    norms, step = _sq_norms(Y), _gram_rows(Y)
    lo, hi = np.empty((s, s)), np.empty((s, s))  # read above the diagonal
    for a in range(0, s, step):
        S, delta = _gram_screen(Y[:, a:], norms[a:], slice(0, step), 0.0)
        lo[a : a + step, a:], hi[a : a + step, a:] = S - delta, S + delta
    pi, pj = np.triu_indices(s, 1)
    lo, hi = lo[pi, pj], hi[pi, pj]
    n = lo.size
    ranks = sorted({0, (n - 1) // 2, n // 2, n - 1})
    bands = []
    for k in ranks:
        below = hi < np.partition(lo, k)[k]
        band = ~below & ~(lo > np.partition(hi, k)[k])
        bands.append((k - int(np.count_nonzero(below)), band))
    need = np.flatnonzero(np.logical_or.reduce([band for _, band in bands]))
    exact = np.empty(n)
    # bitwise-identical finite rows are 0 apart in any summation order; only
    # pairs whose bound admits 0 are looked at
    maybe = need[lo[need] <= 0]
    rows = np.unique(np.r_[pi[maybe], pj[maybe]])
    block = np.ascontiguousarray(Y[:, rows].T)
    row_bytes = np.dtype((np.void, block.itemsize * block.shape[1]))
    _, cls = np.unique(block.view(row_bytes).ravel(), return_inverse=True)
    label = np.full(s, -1)
    label[rows] = np.where(np.isfinite(block).all(axis=1), cls.ravel(), -1)
    zero = (label[pi[need]] == label[pj[need]]) & (label[pi[need]] >= 0)
    exact[need[zero]] = 0.0
    need_l2 = need[~zero]
    exact[need_l2] = _l2_pairs(Y.T, pi[need_l2], pj[need_l2], pairwise=strided)
    if not strided and need_l2.size and need_l2[-1] == n - 1:  # the single-row last call
        exact[-1] = _l2_pairs(Y.T, pi[-1:], pj[-1:], pairwise=True)[0]
    if np.isnan(exact[need]).any():
        return (float("nan"),) * 3
    stat = {k: np.sort(exact[band])[rank] for k, (rank, band) in zip(ranks, bands)}
    mid = sorted({(n - 1) // 2, n // 2})
    return float(stat[0]), float(np.mean([stat[k] for k in mid])), float(stat[n - 1])


def _orbit_scan(system, f, horizons, radius, sample_count, plan) -> tuple:
    """The (m, N) orbit read X at the largest of the increasing horizons and
    the covering count at every horizon, from one sample set and one greedy.
    Column i of X holds the sample values of U^i f, so the Koopman iterates
    are the rows of V = X.T.

    The greedy is prefix-stable and row h of V does not depend on the
    horizon, so the count at h is the number of centers below h.
    """
    if not 0 < radius < np.inf:
        raise InvalidParameterError("radius must be positive")
    if horizons[0] < 1:
        raise InvalidParameterError("horizon must be >= 1")
    samples = system.sample_measure(sample_count, plan.child(_TAG_L2))
    X = f.orbit_rows(system, samples, horizons[-1])
    X = X.astype(np.promote_types(X.dtype, np.float64), copy=False)  # see _screen_bound
    centers = _greedy_orbit_centers(X, radius)
    return X, [bisect_left(centers, h) for h in horizons]


def _geometry(X, horizon, radius, count, sample_count) -> OrbitGeometry:
    lo, med, hi = _distance_summary(X, horizon)
    return OrbitGeometry(horizon, radius, count, lo, med, hi, sample_count)


def _ap_verdict(horizons, counts) -> str:
    if counts[-1] == counts[-2]:
        return "ap"
    if counts[-2] > 0 and counts[-1] / counts[-2] >= 0.5 * horizons[-1] / horizons[-2]:
        return "not_ap"
    return "inconclusive"


def orbit_covering_number(
    system: SystemHandle,
    f: Observable,
    horizon: int,
    radius: float,
    sample_count: int,
    plan: RandomPlan,
) -> OrbitGeometry:
    """Greedy number of L2 balls of the given radius covering U^0..U^{N-1} f."""
    X, (count,) = _orbit_scan(system, f, [horizon], radius, sample_count, plan)
    return _geometry(X, horizon, radius, count, sample_count)


def classify_almost_periodic(
    system: SystemHandle,
    f: Observable,
    horizons: Sequence[int],
    radius: float,
    sample_count: int,
    plan: RandomPlan,
) -> str:
    """'ap' / 'not_ap' / 'inconclusive' from covering counts over horizons.

    ap: the counts at the last two horizons agree (the orbit looks totally
    bounded).  not_ap: the count still grows at no less than half the rate
    of the horizon itself.  One orbit matrix at the largest horizon serves
    all shorter ones, so the counts are exactly nested.
    """
    horizons = _ladder(horizons)
    _, counts = _orbit_scan(system, f, horizons, radius, sample_count, plan)
    return _ap_verdict(horizons, counts)


def _spectral_scan(system, f, horizons, radius, sample_count, plan) -> tuple:
    """The spectral task from one scan: the verdict of classify_almost_periodic
    and the OrbitGeometry that orbit_covering_number gives at each horizon."""
    horizons = _ladder(horizons)
    X, counts = _orbit_scan(system, f, horizons, radius, sample_count, plan)
    geoms = [_geometry(X, h, radius, c, sample_count) for h, c in zip(horizons, counts)]
    return _ap_verdict(horizons, counts), geoms
