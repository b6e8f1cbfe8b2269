"""Koopman-operator geometry in L2: orbit covering numbers as a
precompactness probe, Monte Carlo L2 distances, eigenfunction residuals.

All L2 integrals share one sample set per plan (common random numbers),
so pairwise distances between Koopman iterates are exactly symmetric and
identical arguments give exactly zero.  The almost-periodicity verdict is
the computable proxy for "the closure of {U^n f} is compact": covering
numbers that stop growing in the horizon.

The covering greedy and the distance summary never build the N x N
distance matrix, and a run never holds the whole (m, N) orbit read: one
pass reads it in blocks of columns and keeps only the greedy's centers and
the columns a distance summary still has to read (see _scan_columns).
Pairs are screened with the Gram form of the squared distance, and only
the pairs whose Gram value lies within a proved rounding bound of a
decision (see _screen_bound) are recomputed with the per-pair _l2
arithmetic, so the outputs are those of the full matrix bit for bit.
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
from .systems import SystemHandle, _check_bytes, _chunk_rows

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
# Column i of the (m, N) orbit read holds the sample values of U^i f; the
# scan holds columns as rows of m values.  The orbit geometry reads pairwise
# L2 distances between them only through comparisons: against the radius in the greedy, and against each
# other in the summary.  A pair is decided from the Gram form
#     S = |a|^2 + |b|^2 - 2 Re<a, b>   (m d^2 up to rounding)
# whenever S lies farther than a proved error bound from the comparison;
# only the pairs inside that band are recomputed with the per-pair arithmetic
# of _l2, so every value that reaches the output is the one the full list of
# pair distances gives.


def _screen_bound(m: int) -> float:
    """c with |S_l2 - S_gram| <= c (|a|^2 + |b|^2 + level) for the screen.

    The orbit values are float64 or complex128 (_scan_columns promotes any
    other dtype).  With u = 2**-53 and gamma_k = k u / (1 - k u), the
    standard bounds for a sum of k rounded terms (any summation order,
    fused or not) give, for rows a, b of m samples (2m real products in a
    complex dot product), exact A = |a|^2, B = |b|^2, R = Re<a, b> and
    D = A + B - 2R:

    * the norms and the BLAS product, each a sum of 2m real products over
      the real and imaginary parts side by side, in any grouping into
      sample chunks: |A^ - A| <= gamma_2m A and
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


def _screen(G, total, level, m) -> tuple:
    """(S, delta) for row pairs (a, b) of m samples with Gram values
    G = Re<a, b> and norm sums total = |a|^2 + |b|^2.

    S is the Gram form of m * d(a, b)^2 and delta the bound of _screen_bound
    around the comparison level: S < level - delta proves d <= r, S > level
    + delta proves d > r, and with level 0 the sum of squares that _l2
    takes the root of lies in [S - delta, S + delta].
    """
    return total - 2 * G, _screen_bound(m) * (total + level)


def _gram(A, B) -> np.ndarray:
    """Re<a, b> for every row a of A and b of B: the rows read as real rows
    of 2m values (real and imaginary parts side by side), so each entry is
    a sum of 2m real products."""
    return A.view(np.float64) @ B.view(np.float64).T


def _take(rows, slots) -> np.ndarray:
    """rows[slots] for increasing slots: a view when they are consecutive."""
    if slots[-1] - slots[0] == len(slots) - 1:
        return rows[slots[0] : slots[-1] + 1]
    return rows[slots]


def _l2_pairs(A, i, B, j, pairwise: bool) -> np.ndarray:
    """_l2 of the row pairs (A[i[k]], B[j[k]]), summed as the full-matrix
    calls summed it, in chunks of pairs.

    numpy sums |V[j] - V[i]|^2 sequentially over the samples when the
    difference array is a transposed view (rows of the (m, N) read) and
    pairwise when it is a C-ordered copy or a single row; np.cumsum is the
    sequential order, and add.reduce over a contiguous row the pairwise one.
    |V[j] - V[i]| and |V[i] - V[j]| are bitwise equal.  The gathered rows
    are fresh C-ordered arrays, and the difference and its square are
    taken in place.
    """
    m = A.shape[1]
    out = np.empty(len(j))
    step = _chunk_rows(m * A.dtype.itemsize // 8)
    for a in range(0, len(j), step):
        diff = B[j[a : a + step]]
        diff -= A[i[a : a + step]]
        sq = np.abs(diff)
        del diff
        np.square(sq, out=sq)
        total = sq.sum(axis=1) if pairwise else np.cumsum(sq, axis=1)[:, -1]
        out[a : a + step] = np.sqrt(total / m)
    return out


# ---------------------------------------------------------------------------
# Streamed scan
#
# The (m, N) orbit read X, whose column i holds the sample values of U^i f,
# is read in blocks of columns and never held whole.  A column is kept only
# while it is a greedy center or a distance summary still to be taken reads
# it; the kept columns are the rows of one store.


class _Columns:
    """The kept columns of an orbit read: slot k holds column cols[k] as a
    row of m sample values, in increasing column order, with its Gram norm
    norms[k] and whether it is a greedy center.

    The rows live in pages of `size` rows, each about
    systems._CHUNK_BYTES / 8 values, allocated as slots fill and freed as
    they empty: the store never copies itself to grow and holds at most
    `limit` rows.  Each new page is charged through systems._check_bytes
    before it is allocated.  Indexing with slots, and optionally a sample
    slice, gathers a copy of their rows.
    """

    def __init__(self, m: int, dtype, limit: int):
        self.m, self.dtype, self.limit = m, np.dtype(dtype), limit
        self.size = _chunk_rows(m)
        self.pages = []
        self.cols = np.empty(0, dtype=np.intp)
        self.norms = np.empty(0)
        self.center = np.empty(0, dtype=bool)

    @property
    def shape(self) -> tuple:
        return len(self.cols), self.m

    def __getitem__(self, key) -> np.ndarray:
        slots, samples = key if isinstance(key, tuple) else (key, slice(None))
        page, row = np.divmod(np.asarray(slots, dtype=np.intp), self.size)
        out = np.empty((page.size, len(range(self.m)[samples])), self.dtype)
        for p in np.unique(page):
            at = page == p
            out[at] = self.pages[p][row[at], samples]
        return out

    def _pages(self, start: int, end: int):
        """(rows, a, b): the page rows that hold slots start + a..start + b - 1,
        for slots start..end - 1, allocating the pages they need."""
        while len(self.pages) * self.size < end:
            have = len(self.pages) * self.size
            size = min(self.size, self.limit - have)
            _check_bytes((have + size) * self.m * self.dtype.itemsize,
                         "the orbit scan's kept columns")
            self.pages.append(np.empty((size, self.m), self.dtype))
        for p in range(start // self.size, -(-end // self.size)):
            a, b = max(start, p * self.size), min(end, (p + 1) * self.size)
            yield self.pages[p][a - p * self.size : b - p * self.size], a - start, b - start

    def add(self, lo: int, B, norms, center, keep) -> None:
        """Keep the rows of B, the block of columns from lo on, at keep."""
        idx = np.flatnonzero(keep)
        n = len(self.cols)
        for rows, a, b in self._pages(n, n + idx.size):
            np.take(B, idx[a:b], axis=0, out=rows, mode="clip")  # "clip": no buffered copy
        self.cols = np.concatenate([self.cols, lo + idx])
        self.norms = np.concatenate([self.norms, norms[idx]])
        self.center = np.concatenate([self.center, center[idx]])

    def keep(self, mask) -> None:
        """Drop the rows outside mask and free the pages left empty."""
        idx = np.flatnonzero(mask)
        if idx.size < mask.size:
            for rows, a, b in self._pages(0, idx.size):  # sources lie at or after their slots
                rows[...] = self[idx[a:b]]
            del self.pages[-(-idx.size // self.size) :]
            self.cols, self.norms, self.center = self.cols[idx], self.norms[idx], self.center[idx]

    def center_pages(self):
        """(page, rows of its centers, their slots) for each page holding one."""
        for p, page in enumerate(self.pages):
            k = np.flatnonzero(self.center[p * self.size : (p + 1) * self.size])
            if k.size:
                yield page, k, p * self.size + k


def _summary_columns(h: int) -> np.ndarray:
    """The columns whose pairs _distance_summary reads at horizon h: all h
    of them, or 256 evenly strided ones when h > 512."""
    if h < 2:
        return np.arange(0)
    if h > 512:
        return np.unique(np.linspace(0, h - 1, 256).astype(int))
    return np.arange(h)


def _read_by(horizons, N: int) -> np.ndarray:
    """Which of the N columns some summary at the given horizons reads."""
    need = np.zeros(N, dtype=bool)
    for h in horizons:
        need[_summary_columns(h)] = True
    return need


def _cover_block(store: _Columns, B, norms, r: float) -> np.ndarray:
    """Which rows of B, the next block of columns, are new greedy centers.

    A column is covered when a stored center lies within r of it; the
    centers are screened against the block a page at a time.  Then the
    first-uncovered-index greedy runs inside the block, taking the Gram
    rows of the next still-uncovered columns, a page at a time, against
    the later columns of the block.  Ball membership (d <= r) is screened,
    and only pairs within the error band are recomputed with the _l2
    arithmetic.
    """
    m = B.shape[1]
    level = r * r * m
    covered = np.zeros(len(B), dtype=bool)
    for page, rows, slots in store.center_pages():
        S, delta = _screen(_gram(_take(page, rows), B),
                           store.norms[slots, None] + norms, level, m)
        inside = S < level - delta
        k, j = np.nonzero(~inside & ~(S > level + delta) & ~covered)
        inside[k, j] = _l2_pairs(page, rows[k], B, j, False) <= r
        covered |= inside.any(axis=0)
        if covered.all():
            break
    center, batch = np.zeros(len(B), dtype=bool), np.empty(0, dtype=np.intp)
    for i in np.flatnonzero(~covered):
        if covered[i]:
            continue
        k = int(np.searchsorted(batch, i))
        if k == batch.size or batch[k] != i:
            batch = i + np.flatnonzero(~covered[i:])[: store.size]
            S, delta = _screen(_gram(B[batch], B[i:]), norms[batch, None] + norms[i:], level, m)
            start, k = i, 0
        s, d = S[k, i - start :], delta[k, i - start :]
        inside = s < level - d
        band = np.flatnonzero(~inside & ~(s > level + d) & ~covered[i:])
        inside[band] = _l2_pairs(B, np.full(band.size, i), B, i + band, False) <= r
        covered[i:] |= inside
        center[i] = True
    return center


def _pair_screen(store: _Columns, slots, pi, pj) -> tuple:
    """_screen with level 0 of the stored row pairs (slots[pi], slots[pj]);
    the Gram block of the rows at slots is summed over sample chunks."""
    s, m = slots.size, store.shape[1]
    G = np.zeros((s, s))
    step = _chunk_rows(s * store.dtype.itemsize // 8)
    for a in range(0, m, step):
        W = store[slots, a : a + step].view(np.float64)
        G += W @ W.T
    norms = store.norms[slots]
    return _screen(G[pi, pj], norms[pi] + norms[pj], 0.0, m)


def _distance_summary(store: _Columns, h: int) -> tuple:
    """Min, median and max of the L2 distances between distinct columns
    among the first h (256 evenly strided ones when h > 512), from the
    stored columns.

    The values equal those of the full list of _l2 pair distances: pairs
    whose Gram bounds settle their rank are only counted, and the exact
    order statistics come from the pairs inside the bands, recomputed as
    the list summed them (sequentially, except the single-row last call and
    the strided copy, which sum pairwise).  The middle values combine as
    np.median combines them.  The Gram block is summed over sample chunks
    of the stored rows, which are never copied whole.
    """
    cols = _summary_columns(h)
    if cols.size < 2:
        return 0.0, 0.0, 0.0
    strided = h > 512
    slots = np.searchsorted(store.cols, cols)
    s = slots.size
    pi, pj = np.triu_indices(s, 1)
    S, delta = _pair_screen(store, slots, pi, pj)
    lo, hi = S - delta, np.add(S, delta, out=S)
    del delta
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
    block = store[slots[rows]]
    row_bytes = np.dtype((np.void, block.itemsize * block.shape[1]))
    _, cls = np.unique(block.view(row_bytes).ravel(), return_inverse=True)
    label = np.full(s, -1)
    label[rows] = np.where(np.isfinite(block).all(axis=1), cls.ravel(), -1)
    zero = (label[pi[need]] == label[pj[need]]) & (label[pi[need]] >= 0)
    exact[need[zero]] = 0.0
    need_l2 = need[~zero]
    exact[need_l2] = _l2_pairs(store, slots[pi[need_l2]], store, slots[pj[need_l2]], strided)
    if not strided and need_l2.size and need_l2[-1] == n - 1:  # the single-row last call
        exact[-1] = _l2_pairs(store, slots[pi[-1:]], store, slots[pj[-1:]], True)[0]
    if np.isnan(exact[need]).any():
        return (float("nan"),) * 3
    stat = {k: np.sort(exact[band])[rank] for k, (rank, band) in zip(ranks, bands)}
    mid = sorted({(n - 1) // 2, n // 2})
    return float(stat[0]), float(np.mean([stat[k] for k in mid])), float(stat[n - 1])


def _scan_columns(read, N: int, r: float, summarize, width: int) -> tuple:
    """The first-uncovered-index greedy centers among the N columns of an
    orbit read, and the distance summary at each horizon of `summarize`,
    from one pass over blocks of `width` columns; read(lo, n) gives columns
    lo..lo+n-1.

    Scanning columns in order makes the center list a prefix-stable
    function of the columns, so a block needs only the centers before it.
    A summary is taken once the scan has passed its horizon; then the
    columns that no later summary reads, and at the end of the scan the
    centers, are dropped.  Both read the stored columns through the Gram
    screen, so centers and summaries are those of the full matrix bit for
    bit.
    """
    pending = sorted(set(summarize))
    need = _read_by(pending, N)
    centers, summaries, store = [], {}, None
    for lo in range(0, N, width):
        X = read(lo, min(width, N - lo))
        B = X.T.astype(np.promote_types(X.dtype, np.float64), order="C")  # see _screen_bound
        del X
        if store is None:
            store = _Columns(B.shape[1], B.dtype, N)
        W = B.view(np.float64)
        norms = np.einsum("ij,ij->i", W, W)
        center = _cover_block(store, B, norms, r)
        hi = lo + len(B)
        centers.extend(lo + np.flatnonzero(center))
        store.add(lo, B, norms, center, need[lo:hi] | center)
        del B, W
        while pending and pending[0] <= hi:
            store.keep(need[store.cols] | store.center & (hi < N))
            h = pending.pop(0)
            summaries[h] = _distance_summary(store, h)
            need = _read_by(pending, N)
        store.keep(need[store.cols] | store.center)
    return centers, summaries


def _orbit_scan(system, f, horizons, radius, sample_count, plan, summarize: bool) -> tuple:
    """The covering count at every one of the increasing horizons and, with
    `summarize`, the distance summary at each, from one sample set and one
    streamed read of the orbit at the largest horizon (see _scan_columns).
    Column i of the read holds the sample values of U^i f, as
    f.orbit_rows(system, samples, n, lo) gives them block by block.

    The greedy is prefix-stable and column h does not depend on the
    horizon, so the count at h is the number of centers below h.  A block
    is two store pages wide: about systems._CHUNK_BYTES / 4 values.
    """
    if not 0 < radius < np.inf:
        raise InvalidParameterError("radius must be positive")
    if horizons[0] < 1:
        raise InvalidParameterError("horizon must be >= 1")
    samples = system.sample_measure(sample_count, plan.child(_TAG_L2))
    centers, summaries = _scan_columns(
        lambda lo, n: f.orbit_rows(system, samples, n, lo), horizons[-1], radius,
        horizons if summarize else (), 2 * _chunk_rows(sample_count))
    counts = [bisect_left(centers, h) for h in horizons]
    return counts, [summaries[h] for h in horizons] if summarize else None


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
    (count,), (dists,) = _orbit_scan(system, f, [horizon], radius, sample_count, plan, True)
    return OrbitGeometry(horizon, radius, count, *dists, sample_count)


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
    counts, _ = _orbit_scan(system, f, horizons, radius, sample_count, plan, False)
    return _ap_verdict(horizons, counts)


def _spectral_scan(system, f, horizons, radius, sample_count, plan) -> tuple:
    """The spectral task from one scan: the verdict of classify_almost_periodic
    and the OrbitGeometry that orbit_covering_number gives at each horizon."""
    horizons = _ladder(horizons)
    counts, dists = _orbit_scan(system, f, horizons, radius, sample_count, plan, True)
    geoms = [OrbitGeometry(h, radius, c, *d, sample_count)
             for h, c, d in zip(horizons, counts, dists)]
    return _ap_verdict(horizons, counts), geoms
