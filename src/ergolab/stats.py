"""Frequency checks of observed symbol counts against expected probabilities."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InvalidParameterError, LengthMismatchError


def frequency_check(
    observed: Sequence[int],
    expected: Sequence[float],
    tolerance_sigmas: float = 4.0,
) -> bool:
    """Per-cell binomial z-test of observed counts against expected probabilities."""
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if observed.shape != expected.shape:
        raise LengthMismatchError("observed and expected lengths differ")
    if abs(expected.sum() - 1.0) > 1e-9:
        raise InvalidParameterError("expected probabilities must sum to 1")
    total = observed.sum()
    sigma = np.sqrt(total * expected * (1.0 - expected))
    dev = np.abs(observed - total * expected)
    # degenerate cells (p = 0 or 1) must match exactly
    return bool(np.all(np.where(sigma > 0, dev <= tolerance_sigmas * sigma, dev == 0)))
