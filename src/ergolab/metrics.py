"""Birkhoff-averaged pseudo-metrics and finite-horizon limit estimation.

The quantities here are the time-averaged distances between two orbits:
the Hamming average of two name words, the averaged observable gap
fbar_n, and its running maximum fhat_n.
Limits in n are only ever *estimated*, over a geometric ladder of
horizons, and the estimate carries an explicit convergence flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidParameterError, LengthMismatchError
from .observables import Observable
from .partitions import NameWord
from .systems import SystemHandle


def hamming_avg(w1: NameWord, w2: NameWord) -> float:
    """Fraction of positions where two equal-length name words disagree."""
    if w1.n != w2.n:
        raise LengthMismatchError(f"word lengths differ: {w1.n} vs {w2.n}")
    a = w1.as_array()
    b = w2.as_array()
    return float(np.count_nonzero(a != b)) / w1.n


def fbar_prefix_means(system: SystemHandle, f: Observable, x, y, n: int) -> np.ndarray:
    """Array of fbar_k(x,y) for k = 1..n, computed in one pass."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    gaps = np.abs(f.orbit_values(system, x, n) - f.orbit_values(system, y, n))
    return np.cumsum(gaps) / np.arange(1, n + 1)


def fbar_n(system: SystemHandle, f: Observable, x, y, n: int) -> float:
    """Average of |f(T^i x) - f(T^i y)| over the first n steps."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    gaps = np.abs(f.orbit_values(system, x, n) - f.orbit_values(system, y, n))
    return float(gaps.mean())


def fhat_n(system: SystemHandle, f: Observable, x, y, n: int) -> float:
    """max of fbar_k(x,y) over 1 <= k <= n."""
    return float(fbar_prefix_means(system, f, x, y, n).max())


# ---------------------------------------------------------------------------
# Limit estimation


@dataclass(frozen=True)
class LimitEstimate:
    value: float
    horizons: tuple
    evaluations: tuple
    spread: float
    converged: bool
    tolerance: float


def default_tolerance(n_last: int) -> float:
    # matches the Monte Carlo noise floor of an n_last-step average
    return max(0.005, 2.0 / np.sqrt(n_last))


def limit_estimate(
    seq: Callable[[int], float] | Sequence[float],
    horizons: Iterable[int],
    tolerance: float | None = None,
) -> LimitEstimate:
    """Finite-horizon proxy for lim_n of a sequence.

    Evaluates at each horizon, reports the last value, and flags
    convergence when the max pairwise deviation over the last three
    horizons is within tolerance.  Inconclusive estimates are surfaced
    via converged=False, never silently treated as limits.
    """
    horizons = _ladder(horizons)
    if callable(seq):
        evals = tuple(float(seq(h)) for h in horizons)
    else:
        evals = tuple(float(v) for v in seq)
        if len(evals) != len(horizons):
            raise LengthMismatchError("one evaluation per horizon required")
    tol = default_tolerance(horizons[-1]) if tolerance is None else tolerance
    spread, converged = _limit_rule(np.array(evals), tol)
    return LimitEstimate(
        value=evals[-1],
        horizons=horizons,
        evaluations=evals,
        spread=float(spread),
        converged=bool(converged),
        tolerance=tol,
    )


def _ladder(horizons) -> tuple:
    horizons = tuple(int(h) for h in horizons)
    if len(horizons) < 3:
        raise InvalidParameterError("need at least 3 horizons")
    if any(b <= a for a, b in zip(horizons, horizons[1:])):
        raise InvalidParameterError("horizons must be strictly increasing")
    return horizons


def _limit_rule(evals: np.ndarray, tolerance: float) -> tuple:
    """The convergence rule of limit_estimate along the last axis of evals:
    (spread of the last three evaluations, spread <= tolerance)."""
    tail = evals[..., -3:]
    spread = tail.max(axis=-1) - tail.min(axis=-1)
    return spread, spread <= tolerance


def geometric_horizons(n_max: int, count: int = 3, ratio: int = 4) -> tuple:
    """Geometric ladder ending at n_max, e.g. (n/16, n/4, n); a ladder of
    fewer than three points is padded below its smallest horizon."""
    hs = []
    h = int(n_max)
    while len(hs) < count and h >= 1:
        hs.append(h)
        h //= ratio
    hs = sorted(set(hs))
    pad = 3 - len(hs)
    if not hs or hs[0] <= pad:
        raise InvalidParameterError("n_max too small for a 3-point ladder")
    return tuple(range(hs[0] - pad, hs[0])) + tuple(hs)
