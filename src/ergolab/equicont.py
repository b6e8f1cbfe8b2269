"""Empirical mean-equicontinuity partitions and mean-expansivity rates.

``find_equipartition`` greedily clusters samples whose Birkhoff-averaged
observable gaps stay below eps/2 around a center; triangle inequality then
bounds all within-cluster pairs by eps.  Success (joint mass above 1-eps
with few clusters) is finite-sample evidence of mean equicontinuity;
hitting the cluster budget is evidence against it.  The opposite regime is
probed by ``mean_expansivity_estimate``: the fraction of independent pairs
whose averaged gap exceeds a fixed delta.

The equipartition readers never build the m x m distance matrix: the
greedy computes one row per center, and the diameter bound and
``verify_equipartition`` share one reader of the farthest pair inside
each cluster (_cluster_maxima).  For fbar/fhat that reader screens the
cluster's pairs against the exact rows of a few pivots and reduces only
those that could be the farthest; Hamming clusters, and clusters the
screen does not serve, read their whole block.  Rows, pairs and blocks
come from the same per-pair reducers as the full matrix, so they equal
its entries bit for bit.  Each block is charged against
systems._MATRIX_BYTES before it is built.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import isqrt
from typing import Optional, Sequence

import numpy as np

from .cover import (
    FbarKind,
    HammingKind,
    _bound_holds,
    _check_budget,
    _distance_matrix,
    _distance_pairs,
    _distance_rows,
    _kernel_bound,
    _ladder,
    _metric_kind,
    _pivot_rows,
    _sample_features,
    _units_needed,
)
from .errors import InvalidParameterError
from .metrics import _limit_rule, default_tolerance, geometric_horizons
from .observables import Observable
from .partitions import Partition
from .rng import RandomPlan
from .systems import SystemHandle, _chunk_rows

_TAG_PAIR_LEFT = 41
_TAG_PAIR_RIGHT = 42


@dataclass(frozen=True)
class EquiPartition:
    """Clusters of sample indices with pairwise fbar_N < eps inside each."""

    clusters: tuple          # tuple of tuples of sample indices
    eps: float
    covered_mass: float
    horizon: int
    diameter_bound: float    # max re-evaluated within-cluster distance

    @property
    def k(self) -> int:
        return len(self.clusters)

    def to_json(self) -> dict:
        # clusters as lists, as json.load gives them back; vars, not asdict,
        # which would deep-copy every member first
        return {**vars(self), "clusters": [list(c) for c in self.clusters]}


@dataclass(frozen=True)
class EquipartitionFailure:
    """Cluster budget ran out before the mass target; evidence against
    mean equicontinuity at this eps, not a proof."""

    eps: float
    k_max: int
    covered_mass: float
    horizon: int

    @property
    def k(self) -> Optional[int]:
        return None

    def to_json(self) -> dict:
        return asdict(self)


def _greedy_clusters(kind, feats: np.ndarray, eps: float, k_max: int, need: int):
    """Centers at pairwise >= eps/2; members within eps/2 of their center,
    until `need` samples are covered.  Only the center rows of the distance
    matrix are computed."""
    m = feats.shape[0]
    unassigned = np.ones(m, dtype=bool)
    clusters = []
    covered = 0
    while covered < need and len(clusters) < k_max:
        center = int(np.argmax(unassigned))  # lowest unassigned index
        if not unassigned[center]:
            break
        row = _distance_rows(kind, feats, [center])[0]
        members = np.nonzero(unassigned & (row < eps / 2.0))[0]
        clusters.append(tuple(int(i) for i in members))
        unassigned[members] = False
        covered += members.size
    return clusters, covered


def _block_maximum(kind, feats: np.ndarray) -> tuple:
    """(i, j, d) for the first farthest pair of rows in row order, from the
    whole distance matrix of feats."""
    s = len(feats)
    sub = _distance_matrix(kind, feats)
    # -inf on and below the diagonal: argmax is then the first maximum
    # above it in row order (the first nan, if any), with a bool mask the
    # only other block
    sub[np.tri(s, dtype=bool)] = -np.inf
    i, j = divmod(int(np.argmax(sub)), s)
    return i, j, float(sub[i, j])


def _screened_maximum(kind, feats: np.ndarray) -> Optional[tuple]:
    """_block_maximum(kind, feats) bit for bit, reducing only the pairs that
    a pivot screen leaves open; None where the screen does not apply.

    LB, the largest entry of the pivot rows (cover._pivot_rows), is the
    distance of a real pair, and over_i + over_j, over = a (1 + c) with
    c = cover._kernel_bound(n), bounds the kernel's own distance of pair
    (i, j) from above through each pivot.  Only pairs whose bound reaches
    LB through every pivot can be a maximum; every tied maximum is among
    them, so the first in row order is the block's.  None for Hamming
    labels, whose GEMM block is faster, for a pivot distance that is not
    finite, where the bound does not hold (cover._bound_holds), and where
    the first square tile leaves more than half of its pairs open, the
    rule of cover._ball_matrix.  Tiles hold about systems._CHUNK_BYTES of
    float bounds.
    """
    if isinstance(kind, HammingKind):
        return None
    s, n = feats.shape
    a = _pivot_rows(kind, feats)
    lb = float(a.max())
    if not (np.isfinite(a).all() and _bound_holds(feats, lb)):
        return None
    over = a * (1 + _kernel_bound(n))
    side = isqrt(_chunk_rows(1))
    best = (-1.0, 0, 0)  # (d, -i, -j): the largest is the first maximum in row order
    for lo in range(0, s, side):
        hi = min(lo + side, s)
        for left in range(lo, s, side):
            right = min(left + side, s)
            tile = np.ones((hi - lo, right - left), dtype=bool)
            for row in over:
                tile &= row[lo:hi, None] + row[left:right] >= lb
            i, j = np.nonzero(np.triu(tile, lo - left + 1))
            if left == 0 and 2 * i.size > hi * (hi - 1) // 2:
                return None  # the probe tile leaves most of its pairs open
            if i.size:
                d = _distance_pairs(kind, feats, lo + i, left + j)
                k = int(np.argmax(d))
                best = max(best, (float(d[k]), -lo - int(i[k]), -left - int(j[k])))
    d, i, j = best
    return -i, -j, d


def _cluster_maxima(kind, feats: np.ndarray, clusters) -> list:
    """(i, j, d) for the farthest pair inside each cluster, the first in
    row order among ties; (i, -1, 0.0) for a single sample i and
    (-1, -1, 0.0) for an empty cluster.

    No distance outside the clusters is computed.  fbar/fhat clusters take
    the pivot screen (_screened_maximum) and reduce only the pairs it
    leaves open: a 1000-sample rotation cluster at horizon 64 peaked at
    4.1 MB under tracemalloc, 1 MB of it the cluster's feature copy and
    most of the rest the pair chunks of _distance_pairs, where its block
    would take 12 MB.  Hamming clusters, and those the screen does not
    serve, build the whole block (_block_maximum), charged at 12 bytes
    per entry against systems._MATRIX_BYTES before it is built.
    """
    out = []
    for cluster in clusters:
        if len(cluster) < 2:
            out.append((cluster[0] if cluster else -1, -1, 0.0))
            continue
        idx = np.array(cluster)
        sub = feats[idx]
        i, j, d = _screened_maximum(kind, sub) or _block_maximum(kind, sub)
        out.append((int(idx[i]), int(idx[j]), d))
    return out


def _build_equipartition(
    kind, system, samples, eps: float, k_max: int, horizon: int
) -> EquiPartition | EquipartitionFailure:
    _check_budget(k_max)
    feats = _sample_features(kind, system, samples, horizon)
    m = feats.shape[0]
    need = _units_needed(m, eps)
    clusters, covered = _greedy_clusters(kind, feats, eps, k_max, need)
    if covered < need:
        return EquipartitionFailure(
            eps=eps, k_max=k_max, covered_mass=covered / m, horizon=horizon
        )
    diam = max((d for *_, d in _cluster_maxima(kind, feats, clusters)), default=0.0)
    return EquiPartition(
        clusters=tuple(clusters),
        eps=eps,
        covered_mass=covered / m,
        horizon=horizon,
        diameter_bound=diam,
    )


def _default_kmax(m: int) -> int:
    return max(1, int(np.sqrt(m)))


def find_equipartition(
    system: SystemHandle,
    f: Observable,
    eps: float,
    samples: Sequence,
    horizon: int,
    k_max: Optional[int] = None,
) -> EquiPartition | EquipartitionFailure:
    """Greedy fbar_N clustering into sets with pairwise gap < eps.

    Returns an EquiPartition when the clusters cover empirical mass
    strictly above 1 - eps within k_max clusters, else a failure record.
    """
    sup = f.sup_bound()
    if not 0 < eps < np.inf or (sup is not None and eps >= 2 * sup + 1e-12 and sup > 0):
        raise InvalidParameterError("eps must lie in (0, 2 sup|f|)")
    if k_max is None:
        k_max = _default_kmax(len(samples))
    return _build_equipartition(FbarKind(f), system, samples, eps, k_max, horizon)


def hamming_equipartition(
    system: SystemHandle,
    partition: Partition,
    eps: float,
    samples: Sequence,
    horizon: int,
    k_max: Optional[int] = None,
) -> EquiPartition | EquipartitionFailure:
    """find_equipartition with name-word Hamming distance instead of fbar."""
    if not 0 < eps <= 1:
        raise InvalidParameterError("hamming eps must lie in (0, 1]")
    if k_max is None:
        k_max = _default_kmax(len(samples))
    kind = HammingKind(partition)
    return _build_equipartition(kind, system, samples, eps, k_max, horizon)


@dataclass(frozen=True)
class VerifyReport:
    max_pairwise: float
    mode: str
    passed: bool
    pair_maxima: tuple  # (cluster index, i, j, value) for the worst pair per cluster


def verify_equipartition(
    ep: EquiPartition,
    system: SystemHandle,
    target,
    samples: Sequence,
    horizons: Optional[Sequence[int]] = None,
    mode: str = "limsup",
) -> VerifyReport:
    """Re-evaluate within-cluster distances against ep.eps.

    Both modes check the horizon ladder and read its last horizon only.
    limsup mode is not a limsup: it reads fbar (or Hamming) there, with no
    converged flag read, so a pair that has not settled passes or fails on
    its last value (ROADMAP item 4).  uniform mode reads fhat there (a
    bound over all prefixes).  target is an Observable or a Partition
    (Hamming mode).
    """
    if mode not in ("limsup", "uniform"):
        raise InvalidParameterError(f"unknown verify mode {mode!r}")
    if horizons is None:
        horizons = geometric_horizons(max(4, ep.horizon))
    horizons = _ladder(horizons)
    kind = _metric_kind(target, fhat=mode == "uniform")
    feats = _sample_features(kind, system, samples, horizons[-1])

    per_cluster = [(ci, *pair) for ci, pair in
                   enumerate(_cluster_maxima(kind, feats, ep.clusters))]
    worst = max((d for *_, d in per_cluster), default=0.0)
    return VerifyReport(
        max_pairwise=worst,
        mode=mode,
        passed=worst < ep.eps,
        pair_maxima=tuple(per_cluster),
    )


@dataclass(frozen=True)
class ExpansivityEstimate:
    value: float                 # fraction of pairs with fbar estimate > delta
    delta: float
    pair_count: int
    horizon: int
    nonconverged_fraction: float

    def __float__(self):
        return self.value


def mean_expansivity_estimate(
    system: SystemHandle,
    f: Observable,
    delta: float,
    pair_count: int,
    horizon: int,
    plan: RandomPlan,
) -> ExpansivityEstimate:
    """Fraction of independent measure-pairs whose fbar estimate exceeds delta.

    Each pair's fbar is tracked over a geometric horizon ladder; the
    fraction uses the final-horizon value for every pair, and the share of
    pairs whose ladder had not settled is reported alongside rather than
    being dropped (dropping would bias the rate).  The per-step gaps come
    from ``f.gap_rows``, a chunk of pairs at a time.
    """
    if pair_count < 100:
        raise InvalidParameterError("pair_count must be >= 100")
    if not 0 < delta < np.inf:
        raise InvalidParameterError("delta must be positive")
    xs = system.sample_measure(pair_count, plan.child(_TAG_PAIR_LEFT))
    ys = system.sample_measure(pair_count, plan.child(_TAG_PAIR_RIGHT))
    horizons = geometric_horizons(horizon)
    tol = default_tolerance(horizons[-1])
    exceed = 0
    nonconv = 0
    step = _chunk_rows(horizon)
    for a in range(0, pair_count, step):
        gaps = f.gap_rows(system, xs[a : a + step], ys[a : a + step], horizon)
        cums = np.cumsum(gaps, axis=1)
        evals = np.stack([cums[:, h - 1] / h for h in horizons], axis=1)
        _, converged = _limit_rule(evals, tol)
        exceed += int(np.count_nonzero(evals[:, -1] > delta))
        nonconv += int(np.count_nonzero(~converged))
    return ExpansivityEstimate(
        value=exceed / pair_count,
        delta=delta,
        pair_count=pair_count,
        horizon=horizon,
        nonconverged_fraction=nonconv / pair_count,
    )
