"""Direct references for the Koopman leg: the O(m N^2) lag sums of an
(m, N) orbit read, and the greedy and the distance summary over the lag
distances they give, with d(i, j) = D(|i - j|)."""

import numpy as np


def distances(X):
    """D(k) = sqrt(max(0, 2 Re c(0) - 2 Re c(k))) from the direct lag sums
    c(k) = sum_x sum_{t<N-k} X[x, t+k] conj X[x, t] / (m (N - k))."""
    m, N = X.shape
    c = np.array([np.sum(X[:, k:] * np.conj(X[:, : N - k])) / (m * (N - k))
                  for k in range(N)])
    return np.sqrt(np.maximum(0.0, 2 * c[0].real - 2 * c.real))


def greedy(D, r):
    """First-uncovered-index greedy centers over 0..N-1."""
    covered = np.zeros(D.size, dtype=bool)
    centers = []
    for i in range(D.size):
        if not covered[i]:
            covered[i:] |= D[: D.size - i] <= r
            centers.append(i)
    return centers


def summary(D, h):
    """Min, median and max of d(i, j) over the distinct pairs of the first h
    columns, or of 256 evenly strided ones when h > 512."""
    if h < 2:
        return 0.0, 0.0, 0.0
    cols = np.arange(h) if h <= 512 else np.unique(np.linspace(0, h - 1, 256).astype(int))
    flat = np.concatenate([D[cols[i + 1:] - cols[i]] for i in range(cols.size - 1)])
    return float(flat.min()), float(np.median(flat)), float(flat.max())
