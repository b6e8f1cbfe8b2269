"""Koopman-operator geometry in L2: orbit covering numbers as a
precompactness probe, Monte Carlo L2 distances, eigenfunction residuals.

All L2 integrals share one sample set per plan (common random numbers),
so pairwise distances between Koopman iterates are exactly symmetric and
identical arguments give exactly zero.  The almost-periodicity verdict is
the computable proxy for "the closure of {U^n f} is compact": covering
numbers that stop growing in the horizon.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError
from .observables import Observable, eval_many
from .rng import RandomPlan
from .systems import SystemHandle

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
    if isinstance(samples, np.ndarray):
        fx = eval_many(f, system, samples)
        fx1 = eval_many(f, system, system.step(samples))
    else:
        pairs = np.stack([f.orbit_values(system, x, 2) for x in samples])
        fx, fx1 = pairs[:, 0], pairs[:, 1]
    return float(_l2(fx1, lam * fx))


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


def _orbit_matrix(system, f, samples, N) -> np.ndarray:
    """Row i holds the sample values of U^i f (i.e. f along each orbit)."""
    return np.stack([f.orbit_values(system, x, N) for x in samples]).T


def _greedy_orbit_centers(V: np.ndarray, r: float) -> list:
    """First-uncovered-index greedy cover of the rows of V by L2 balls.

    Scanning indices in order makes the center list a prefix-stable
    function of the rows: the count at any shorter horizon is the number
    of centers below it, hence covering counts are nondecreasing in N.
    """
    N = V.shape[0]
    covered = np.zeros(N, dtype=bool)
    centers = []
    for i in range(N):
        if covered[i]:
            continue
        covered |= _l2(V, V[i]) <= r
        centers.append(i)
    return centers


def _distance_summary(V: np.ndarray) -> tuple:
    N = V.shape[0]
    if N < 2:
        return 0.0, 0.0, 0.0
    if N > 512:
        V = V[np.unique(np.linspace(0, N - 1, 256).astype(int))]
    flat = np.concatenate([_l2(V[i + 1 :], V[i]) for i in range(V.shape[0] - 1)])
    return float(flat.min()), float(np.median(flat)), float(flat.max())


def _orbit_scan(system, f, horizons, radius, sample_count, plan) -> tuple:
    """The orbit matrix V at the largest of the increasing horizons and the
    covering count at every horizon, from one sample set and one greedy.

    The greedy is prefix-stable and row h of V does not depend on the
    horizon, so the count at h is the number of centers below h.
    """
    if radius <= 0:
        raise InvalidParameterError("radius must be positive")
    if horizons[0] < 1:
        raise InvalidParameterError("horizon must be >= 1")
    samples = system.sample_measure(sample_count, plan.child(_TAG_L2))
    V = _orbit_matrix(system, f, samples, horizons[-1])
    centers = _greedy_orbit_centers(V, radius)
    return V, [bisect_left(centers, h) for h in horizons]


def _geometry(V, horizon, radius, count, sample_count) -> OrbitGeometry:
    lo, med, hi = _distance_summary(V[:horizon])
    return OrbitGeometry(horizon, radius, count, lo, med, hi, sample_count)


def _ap_horizons(horizons) -> list:
    horizons = [int(h) for h in horizons]
    if len(horizons) < 3 or any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise InvalidParameterError("need >= 3 strictly increasing horizons")
    return horizons


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
    V, (count,) = _orbit_scan(system, f, [horizon], radius, sample_count, plan)
    return _geometry(V, horizon, radius, count, sample_count)


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
    horizons = _ap_horizons(horizons)
    _, counts = _orbit_scan(system, f, horizons, radius, sample_count, plan)
    return _ap_verdict(horizons, counts)


def _spectral_scan(system, f, horizons, radius, sample_count, plan) -> tuple:
    """The spectral task from one scan: the verdict of classify_almost_periodic
    and the OrbitGeometry that orbit_covering_number gives at each horizon."""
    horizons = _ap_horizons(horizons)
    V, counts = _orbit_scan(system, f, horizons, radius, sample_count, plan)
    geoms = [_geometry(V, h, radius, c, sample_count) for h, c in zip(horizons, counts)]
    return _ap_verdict(horizons, counts), geoms
