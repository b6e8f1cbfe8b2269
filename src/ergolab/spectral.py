"""Koopman-operator geometry in L2: orbit covering numbers as a
precompactness probe, Monte Carlo L2 distances, eigenfunction residuals.

All L2 integrals share one sample set per plan (common random numbers),
so pairwise distances between Koopman iterates are exactly symmetric and
identical arguments give exactly zero.  The almost-periodicity verdict is
the computable proxy for "the closure of {U^n f} is compact": covering
numbers that stop growing in the horizon.

The orbit geometry needs only that mu is T-invariant, not that it is
ergodic: then ||U^i f - U^j f||^2 = 2 c(0) - 2 Re c(|i - j|) with
c(k) = int f(T^k x) conj f(x) dmu, a function of the lag alone.  A run
estimates c once from the (m, N) orbit read at the largest horizon,
pooled over the samples and over time, with one zero-padded FFT per
sample row (see _lag_correlation).  It holds one block of rows at a time
and never builds the N x N distance matrix.  The greedy cover runs on
the lag distances D(k), and a distance summary reads D at the lags of the
column pairs it summarizes (see _lag_summary).
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
#
# mu is T-invariant, so <U^i f, U^j f> = c(j - i) for i <= j, with
# c(k) = int f(T^k x) conj f(x) dmu, and
#     ||U^i f - U^j f||^2 = 2 c(0) - 2 Re c(|i - j|):
# the distance between two iterates is a function D of their lag alone.


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


def _fft_length(N: int) -> int:
    """A power of two L >= 2N - 1, so that a row's circular autocorrelation
    over L points holds its linear one; at least 2, so that the spectrum
    sum in _lag_correlation adds rows of more than one value."""
    return max(2, 1 << (2 * N - 2).bit_length())


def _row_block(N: int) -> int:
    """Sample rows per block: a row's spectrum holds L complex values."""
    return _chunk_rows(2 * _fft_length(N))


def _lag_correlation(read, m: int, N: int, rows: int) -> np.ndarray:
    """c^(k) = sum_x sum_{t<N-k} X[x, t+k] conj X[x, t] / (m (N - k)) for
    k < N, from the (m, N) orbit read X, whose sample rows a..b-1 read(a, b)
    gives, in blocks of `rows` rows.

    Each row's zero-padded FFT gives its power spectrum, the power spectra
    are added in sample order, and one inverse FFT of the sum gives the
    lag sums.  A row's FFT does not depend on its block, and the axis-0
    add.reduce of [sum so far; block spectra] adds the rows in order, so
    c^ does not depend on `rows`.  The block, its spectrum and its power
    spectrum (at most 16 bytes a value) and the sum are charged against
    systems._MATRIX_BYTES before the first read.
    """
    L = _fft_length(N)
    rows = min(rows, m)
    _check_bytes(16 * (rows * (N + 2 * L) + L), "the lag spectrum of a Koopman orbit")
    acc, buf = 0.0, None
    for a in range(0, m, rows):
        X = read(a, min(a + rows, m))
        X = X.astype(np.promote_types(X.dtype, np.float64), copy=False)
        real = X.dtype.kind == "f"
        F = np.fft.rfft(X, n=L, axis=1) if real else np.fft.fft(X, n=L, axis=1)
        del X
        if buf is None:
            buf = np.empty((rows + 1, F.shape[1]))
        b = len(F) + 1
        buf[0] = acc
        np.square(F.real, out=buf[1:b])
        buf[1:b] += np.square(F.imag)
        del F
        acc = np.add.reduce(buf[:b], axis=0)
    sums = np.fft.irfft(acc, n=L)[:N] if real else np.fft.ifft(acc)[:N]
    return sums / (m * (N - np.arange(N)))


def _lag_distances(c: np.ndarray) -> np.ndarray:
    """D(k) = sqrt(max(0, 2 Re c(0) - 2 Re c(k))): the estimate c^ need not
    be positive definite."""
    return np.sqrt(np.maximum(0.0, 2 * c[0].real - 2 * c.real))


def _lag_centers(D: np.ndarray, r: float) -> list:
    """The first-uncovered-index greedy centers among 0..N-1: a center at i
    covers i + {k : D(k) <= r}.  Scanning in order makes the list
    prefix-stable, so the count at a horizon h <= N is the number of
    centers below h."""
    N = D.size
    reach = np.flatnonzero(D <= r)
    covered = np.zeros(N, dtype=bool)
    centers = []
    for i in range(N):
        if not covered[i]:
            centers.append(i)
            covered[i + reach[: np.searchsorted(reach, N - i)]] = True
    return centers


def _summary_columns(h: int) -> np.ndarray:
    """The columns whose pairs a distance summary reads at horizon h: all h
    of them, or 256 evenly strided ones when h > 512."""
    if h > 512:
        return np.unique(np.linspace(0, h - 1, 256).astype(int))
    return np.arange(h)


def _lag_summary(D: np.ndarray, h: int) -> tuple:
    """Min, median and max of D over the lags of the distinct column pairs
    among _summary_columns(h), one value per pair."""
    cols = _summary_columns(h)
    if cols.size < 2:
        return 0.0, 0.0, 0.0
    i, j = np.triu_indices(cols.size, 1)
    d = D[cols[j] - cols[i]]
    return float(d.min()), float(np.median(d)), float(d.max())


def _orbit_scan(system, f, horizons, radius, sample_count, plan, summarize: bool) -> tuple:
    """The covering count at every one of the increasing horizons and, with
    `summarize`, the distance summary at each, from one sample set and one
    read of the orbit at the largest horizon, in blocks of sample rows
    (f.orbit_rows of a slice of the samples).  The lag distances at that
    horizon serve every horizon: the count at h is the number of centers
    below h, so the counts nest."""
    if not 0 < radius < np.inf:
        raise InvalidParameterError("radius must be positive")
    if horizons[0] < 1:
        raise InvalidParameterError("horizon must be >= 1")
    N = horizons[-1]
    samples = system.sample_measure(sample_count, plan.child(_TAG_L2))
    D = _lag_distances(_lag_correlation(
        lambda a, b: f.orbit_rows(system, samples[a:b], N), sample_count, N, _row_block(N)))
    centers = _lag_centers(D, radius)
    counts = [bisect_left(centers, h) for h in horizons]
    return counts, [_lag_summary(D, h) for h in horizons] if summarize else None


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
    of the horizon itself.  One lag estimate at the largest horizon serves
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
