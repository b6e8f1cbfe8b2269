"""Empirical mean-equicontinuity partitions and mean-expansivity rates.

``find_equipartition`` greedily clusters samples whose Birkhoff-averaged
observable gaps stay below eps/2 around a center; triangle inequality then
bounds all within-cluster pairs by eps.  Success (joint mass above 1-eps
with few clusters) is finite-sample evidence of mean equicontinuity;
hitting the cluster budget is evidence against it.  The opposite regime is
probed by ``mean_expansivity_estimate``: the fraction of independent pairs
whose averaged gap exceeds a fixed delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .cover import (
    FbarKind,
    FhatKind,
    HammingKind,
    _units_needed,
    pairwise_distances,
)
from .errors import InvalidParameterError
from .metrics import _ladder, _limit_rule, default_tolerance, geometric_horizons
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

    def to_json(self, samples=None) -> dict:
        obj = {
            "clusters": [list(c) for c in self.clusters],
            "eps": self.eps,
            "covered_mass": self.covered_mass,
            "horizon": self.horizon,
            "diameter_bound": self.diameter_bound,
        }
        if samples is not None:
            obj["samples"] = [_sample_coord(s) for s in samples]
        return obj


def _sample_coord(s):
    try:
        return float(s)
    except (TypeError, ValueError):
        return repr(s)


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
        return {
            "eps": self.eps,
            "k_max": self.k_max,
            "covered_mass": self.covered_mass,
            "horizon": self.horizon,
        }


def _greedy_clusters(D: np.ndarray, eps: float, k_max: int):
    """Centers at pairwise >= eps/2; members within eps/2 of their center."""
    m = D.shape[0]
    unassigned = np.ones(m, dtype=bool)
    clusters = []
    covered = 0
    while covered < _units_needed(m, eps) and len(clusters) < k_max:
        center = int(np.argmax(unassigned))  # lowest unassigned index
        if not unassigned[center]:
            break
        members = np.nonzero(unassigned & (D[center] < eps / 2.0))[0]
        clusters.append(tuple(int(i) for i in members))
        unassigned[members] = False
        covered += members.size
    return clusters, covered


def _build_equipartition(
    D: np.ndarray, eps: float, k_max: int, horizon: int
) -> EquiPartition | EquipartitionFailure:
    m = D.shape[0]
    clusters, covered = _greedy_clusters(D, eps, k_max)
    if covered < _units_needed(m, eps):
        return EquipartitionFailure(
            eps=eps, k_max=k_max, covered_mass=covered / m, horizon=horizon
        )
    diam = 0.0
    for c in clusters:
        if len(c) > 1:
            idx = np.array(c)
            diam = max(diam, float(D[np.ix_(idx, idx)].max()))
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
    if eps <= 0 or (sup is not None and eps >= 2 * sup + 1e-12 and sup > 0):
        raise InvalidParameterError("eps must lie in (0, 2 sup|f|)")
    if k_max is None:
        k_max = _default_kmax(len(samples))
    D = pairwise_distances(FbarKind(f), system, samples, horizon)
    return _build_equipartition(D, eps, k_max, horizon)


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
    D = pairwise_distances(HammingKind(partition), system, samples, horizon)
    return _build_equipartition(D, eps, k_max, horizon)


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

    limsup mode takes limit_estimate's value over a horizon ladder, which
    is fbar (or Hamming) at the ladder's last horizon; uniform mode checks
    fhat at the largest horizon (a bound over all prefixes).  target is an
    Observable or a Partition (Hamming mode).
    """
    if mode not in ("limsup", "uniform"):
        raise InvalidParameterError(f"unknown verify mode {mode!r}")
    if horizons is None:
        horizons = geometric_horizons(max(4, ep.horizon))
    horizons = [int(h) for h in horizons]
    if isinstance(target, Partition):
        kind = HammingKind(target)
    elif mode == "uniform":
        kind = FhatKind(target)
    else:
        kind = FbarKind(target)
    if mode == "limsup":
        horizons = _ladder(horizons)
    D = pairwise_distances(kind, system, samples, max(horizons))

    worst = 0.0
    per_cluster = []
    for ci, cluster in enumerate(ep.clusters):
        if len(cluster) < 2:
            per_cluster.append((ci, cluster[0] if cluster else -1, -1, 0.0))
            continue
        idx = np.array(cluster)
        sub = D[np.ix_(idx, idx)]
        flat = np.triu_indices(len(idx), k=1)
        pos = int(np.argmax(sub[flat]))
        val = float(sub[flat][pos])
        worst = max(worst, val)
        per_cluster.append((ci, int(idx[flat[0][pos]]), int(idx[flat[1][pos]]), val))
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
    being dropped (dropping would bias the rate).
    """
    if pair_count < 100:
        raise InvalidParameterError("pair_count must be >= 100")
    if delta <= 0:
        raise InvalidParameterError("delta must be positive")
    xs = system.sample_measure(pair_count, plan.child(_TAG_PAIR_LEFT))
    ys = system.sample_measure(pair_count, plan.child(_TAG_PAIR_RIGHT))
    horizons = geometric_horizons(horizon)
    tol = default_tolerance(horizons[-1])
    exceed = 0
    nonconv = 0
    step = _chunk_rows(horizon)
    for a in range(0, pair_count, step):
        gaps = np.abs(
            f.orbit_rows(system, xs[a : a + step], horizon)
            - f.orbit_rows(system, ys[a : a + step], horizon)
        )
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
