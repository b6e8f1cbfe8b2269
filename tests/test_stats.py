import numpy as np
import pytest

import ergolab as e


def test_frequency_check_exact_match():
    assert e.frequency_check([250, 250, 250, 250], [0.25] * 4, 1.0)


def test_frequency_check_10_sigma_off():
    n, p = 10000, 0.5
    shift = int(10 * np.sqrt(n * p * (1 - p)))
    assert not e.frequency_check([n // 2 + shift, n // 2 - shift], [0.5, 0.5], 4.0)


def test_frequency_check_fair_coin_regression():
    rng = np.random.default_rng(42)
    flips = rng.integers(0, 2, 10**5)
    counts = [int((flips == 0).sum()), int((flips == 1).sum())]
    assert e.frequency_check(counts, [0.5, 0.5], 4.0)


def test_frequency_check_validation():
    with pytest.raises(e.LengthMismatchError):
        e.frequency_check([1, 2], [0.5, 0.25, 0.25])
    with pytest.raises(e.InvalidParameterError):
        e.frequency_check([1, 2], [0.5, 0.4])
