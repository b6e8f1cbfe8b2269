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

from .cover import FbarKind, FhatKind, _ladder, _pair_distance, _running_means
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
    """Array of fbar_k(x,y) for k = 1..n, computed in one pass with the
    cover kernel's arithmetic, so its maximum is fhat_n bit for bit.  That
    is why it takes its gaps from two orbit_values reads, as the kernel
    does, and not from f.gap_rows, whose character sine differs from them
    in the last bits."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    return _running_means(np.abs(f.orbit_values(system, x, n) - f.orbit_values(system, y, n)))


def fbar_n(system: SystemHandle, f: Observable, x, y, n: int) -> float:
    """Average of |f(T^i x) - f(T^i y)| over the first n steps, as the
    cover kernel computes it."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    return _pair_distance(FbarKind(f), system, x, y, n)


def fhat_n(system: SystemHandle, f: Observable, x, y, n: int) -> float:
    """max of fbar_k(x,y) over 1 <= k <= n, as the cover kernel computes it."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    return _pair_distance(FhatKind(f), system, x, y, n)


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


def _limit_rule(evals: np.ndarray, tolerance: float) -> tuple:
    """The convergence rule of limit_estimate along the last axis of evals:
    (spread of the last three evaluations, spread <= tolerance)."""
    tail = evals[..., -3:]
    spread = tail.max(axis=-1) - tail.min(axis=-1)
    return spread, spread <= tolerance


def geometric_horizons(n_max: int) -> tuple:
    """Strictly increasing 3-point ladder ending at n_max: (n/16, n/4, n)
    in floor division from n_max = 16 on, (n/4, n/2, n) below that, and
    (1, 2, 3) at n_max = 3."""
    n = int(n_max)
    if n < 3:
        raise InvalidParameterError("n_max too small for a 3-point ladder")
    if n >= 16:
        return (n // 16, n // 4, n)
    return (max(1, n // 4), max(2, n // 2), n)
