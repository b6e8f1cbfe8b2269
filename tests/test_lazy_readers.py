"""The lazy distance readers against test-local copies of the full-matrix code.

The streamed spectral scan decides most pairs from a Gram screen and holds
only some columns of the orbit read, and the equipartition readers compute
only center rows and in-cluster blocks.  Every value they return must
equal, bit for bit, what the old code computed from the whole matrix.  The
``_old_*`` helpers below copy that code; they read whole matrices from the
old kernels in ``old_kernels``.  The scan is driven through a column reader
over a fixed read X, in blocks of every width.
"""

import numpy as np
import pytest

import ergolab as e
import old_kernels
from ergolab import spectral, systems
from ergolab.cover import (
    FbarKind,
    FhatKind,
    HammingKind,
    _distance_matrix,
    _distance_rows,
    _sample_features,
    _units_needed,
)
from ergolab.equicont import EquiPartition, EquipartitionFailure
from ergolab.spectral import _l2_pairs, _scan_columns, _spectral_scan
from ergolab.systems import make_system

# ---------------------------------------------------------------------------
# Old code: greedy, summary and equipartition readers over full matrices


def _old_l2(a, b):
    return np.sqrt(np.mean(np.abs(a - b) ** 2, axis=-1))


def _old_greedy(V, r):
    covered = np.zeros(V.shape[0], dtype=bool)
    centers = []
    for i in range(V.shape[0]):
        if covered[i]:
            continue
        covered |= _old_l2(V, V[i]) <= r
        centers.append(i)
    return centers


def _old_summary(V):
    N = V.shape[0]
    if N < 2:
        return 0.0, 0.0, 0.0
    if N > 512:
        V = V[np.unique(np.linspace(0, N - 1, 256).astype(int))]
    flat = np.concatenate([_old_l2(V[i + 1:], V[i]) for i in range(V.shape[0] - 1)])
    return float(flat.min()), float(np.median(flat)), float(flat.max())


def _old_matrix(kind, system, samples, n):
    return old_kernels.distance_matrix(kind, _sample_features(kind, system, samples, n))


def _old_clusters(D, eps, k_max):
    m = D.shape[0]
    unassigned = np.ones(m, dtype=bool)
    clusters, covered = [], 0
    while covered < _units_needed(m, eps) and len(clusters) < k_max:
        center = int(np.argmax(unassigned))
        if not unassigned[center]:
            break
        members = np.nonzero(unassigned & (D[center] < eps / 2.0))[0]
        clusters.append(tuple(int(i) for i in members))
        unassigned[members] = False
        covered += members.size
    return clusters, covered


def _old_build(D, eps, k_max, horizon):
    m = D.shape[0]
    clusters, covered = _old_clusters(D, eps, k_max)
    if covered < _units_needed(m, eps):
        return EquipartitionFailure(eps=eps, k_max=k_max, covered_mass=covered / m,
                                    horizon=horizon)
    diam = 0.0
    for c in clusters:
        if len(c) > 1:
            idx = np.array(c)
            diam = max(diam, float(D[np.ix_(idx, idx)].max()))
    return EquiPartition(clusters=tuple(clusters), eps=eps, covered_mass=covered / m,
                         horizon=horizon, diameter_bound=diam)


def _old_verify(ep, kind, system, samples, horizon):
    D = _old_matrix(kind, system, samples, horizon)
    worst, per_cluster = 0.0, []
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
    return worst, worst < ep.eps, tuple(per_cluster)


# ---------------------------------------------------------------------------
# Cases

TABLE = e.TableObservable(e.circle_intervals([0.0, 0.3, 0.7]), (1.0, -2.0, 0.5))
OBSERVABLE_CASES = {
    "rotation": (e.rotation(e.GOLDEN), e.Character(1), 0.5),
    "doubling": (e.doubling(), e.Character(1), 1.0),
    "sturmian-cell": (e.sturmian(e.GOLDEN), e.CellIndicator(e.cylinder([0], 2), 0), 0.5),
    "table": (e.rotation(e.GOLDEN), TABLE, 1.0),
    "constant": (e.rotation(e.GOLDEN), e.Constant(2.0), 0.5),  # every distance 0
}
SIZES_M = (1, 2, 40, 300)
SIZES_N = (1, 2, 3, 7, 256, 601)
WIDTHS = (1, 7, 64, None)  # None: one block of at least N columns


def _orbit_read(case, m, N):
    spec, f, radius = OBSERVABLE_CASES[case]
    system = make_system(spec)
    samples = system.sample_measure(m, e.RandomPlan(77).child(51))
    return f.orbit_rows(system, samples, N), radius


def _scan(X, r, horizons=(), width=None):
    """Greedy centers and the summaries at `horizons` of the streamed scan
    over the columns of X, read in blocks of `width` columns."""
    N = X.shape[1]
    return _scan_columns(lambda lo, n: X[:, lo : lo + n], N, r, horizons, width or N + 3)


def _centers(X, r, width=None):
    return _scan(X, r, (), width)[0]


@pytest.mark.parametrize("case", sorted(OBSERVABLE_CASES))
@pytest.mark.parametrize("m", SIZES_M)
def test_greedy_and_summary_equal_full_matrix(case, m):
    for N in SIZES_N:
        X, radius = _orbit_read(case, m, N)
        V = X.T
        horizons = sorted({1, N // 2, N - 1, N} - {0})
        want = [_old_summary(V[:h]) for h in horizons]
        for width in WIDTHS:
            centers, summaries = _scan(X, radius, horizons, width)
            assert centers == _old_greedy(V, radius), (N, width)
            assert [summaries[h] for h in horizons] == want, (N, width)


def test_greedy_membership_at_exactly_r():
    # rows 0, 0.5 and 1.0 on 16 samples: d(row 0, row 1) is exactly 0.5
    X = np.repeat([[0.0, 0.5, 1.0, 0.25]], 16, axis=0)
    assert _old_l2(X.T[0], X.T[1]) == 0.5
    for width in WIDTHS:
        assert _centers(X, 0.5, width) == _old_greedy(X.T, 0.5) == [0, 2]
        assert _centers(X, np.nextafter(0.5, 0), width) == [0, 1, 2]


@pytest.mark.parametrize("case", ["rotation", "doubling"])
@pytest.mark.parametrize("chunk_bytes", [1, 1 << 12])
def test_greedy_and_summary_any_block_size(monkeypatch, case, chunk_bytes):
    monkeypatch.setattr(systems, "_CHUNK_BYTES", chunk_bytes)
    X, radius = _orbit_read(case, 40, 601)
    want = [_old_summary(X.T[:h]) for h in (7, 256, 601)]
    for width in WIDTHS:
        centers, summaries = _scan(X, radius, (7, 256, 601), width)
        assert centers == _old_greedy(X.T, radius), width
        assert [summaries[h] for h in (7, 256, 601)] == want, width


def _order_split():
    """Two rows whose sequential and pairwise distances differ in the last bit."""
    rng = np.random.default_rng(8)
    while True:
        X = np.exp(2j * np.pi * rng.random((64, 2)))
        seq = _l2_pairs(X.T, [0], X.T, [1], pairwise=False)[0]
        if seq != _l2_pairs(X.T, [0], X.T, [1], pairwise=True)[0]:
            return X, seq


def test_greedy_decides_ties_in_the_old_summation_order():
    X, d = _order_split()
    assert _old_l2(X.T[0], X.T[1]) != d  # one row alone sums pairwise ...
    assert _old_l2(X.T, X.T[0])[1] == d  # ... the greedy's full read sequentially
    for r in (d, np.nextafter(d, 0), np.nextafter(d, 2)):
        for width in WIDTHS:
            assert _centers(X, r, width) == _old_greedy(X.T, r)


@pytest.mark.parametrize("offset", [-1e-13, -1e-15, 0.0, 1e-15, 1e-13])
def test_greedy_and_summary_near_ties(offset):
    rng = np.random.default_rng(5)
    m, r = 300, 0.5
    base = np.exp(2j * np.pi * rng.random(m))
    step = np.exp(2j * np.pi * rng.random(m))
    step *= r * (1 + offset) / _old_l2(step, 0)
    # row k is base + k * step / 2: pairs two steps apart sit at about r
    X = np.stack([base + k * step / 2 for k in range(9)], axis=1)
    for width in WIDTHS:
        centers, summaries = _scan(X, r, [9], width)
        assert centers == _old_greedy(X.T, r)
        assert summaries[9] == _old_summary(X.T)


def test_summation_order_pinned():
    """The old list summed the transposed view sequentially, its single-row
    last call and the strided copy pairwise; the recompute follows both."""
    rng = np.random.default_rng(2)
    m, N = 300, 40
    V = np.exp(2j * np.pi * rng.random((m, N))).T
    pi, pj = np.triu_indices(N, 1)  # the old list's pair order
    seq = _l2_pairs(V, pi, V, pj, pairwise=False)
    pair = _l2_pairs(V, pi, V, pj, pairwise=True)
    old = np.concatenate([_old_l2(V[i + 1:], V[i]) for i in range(N - 2)])
    assert np.array_equal(old, seq[: old.size])
    assert not np.array_equal(old, pair[: old.size])  # the orders differ here
    assert _old_l2(V[N - 1:], V[N - 2])[0] == pair[-1]
    W = V[[0, 5, 9, 20, 39]]
    assert np.array_equal(_old_l2(W[1:], W[0]), _l2_pairs(W, [0] * 4, W, [1, 2, 3, 4], True))
    # rows of two different arrays: the store's and a block's
    C = np.ascontiguousarray(V)
    assert np.array_equal(_l2_pairs(C, pi, V, pj, pairwise=False), seq)
    # add.reduce on a one-column slice is pairwise, not the sequential order
    sq = np.abs(V[1:] - V[0]) ** 2
    cum = np.cumsum(sq, axis=1)[:, -1]
    col = np.array([np.add.reduce(sq[j : j + 1], axis=1)[0] for j in range(N - 1)])
    assert np.array_equal(np.sqrt(cum / m), _old_l2(V[1:], V[0]))
    assert not np.array_equal(cum, col)


def test_scan_promotes_float32_values():
    # the screen's bound is for float64 arithmetic: a float32 table is read
    # as the float64 table of the same values
    system = make_system(e.rotation(e.GOLDEN))
    part = e.circle_intervals([0.0, 0.3, 0.7])
    f32 = e.TableObservable(part, tuple(np.float32(v) for v in (1.0, -2.0, 0.5)))
    plan = e.RandomPlan(4)
    assert f32.orbit_rows(system, system.sample_measure(3, plan), 2).dtype == np.float32
    args = ([8, 64, 256], 1.0, 50, plan)
    assert _spectral_scan(system, f32, *args) == _spectral_scan(system, TABLE, *args)


def test_screen_rechecks_few_pairs(monkeypatch):
    X, radius = _orbit_read("rotation", 300, 256)
    rechecked = _counting_l2_pairs(monkeypatch)
    centers = _centers(X, radius, 64)
    greedy = sum(rechecked)
    assert greedy < 0.05 * len(centers) * 256
    rechecked.clear()
    _scan(X, radius, [256], 64)  # the same greedy, then the summary
    assert sum(rechecked) - greedy < 0.05 * 256 * 255 / 2


def _counting_l2_pairs(monkeypatch):
    rechecked = []

    def counting(A, i, B, j, pairwise):
        rechecked.append(len(j))
        return _l2_pairs(A, i, B, j, pairwise)

    monkeypatch.setattr(spectral, "_l2_pairs", counting)
    return rechecked


def test_summary_skips_identical_rows(monkeypatch):
    # every row of a constant orbit is the same, so every distance is 0 and
    # no pair needs the per-pair recompute
    X, radius = _orbit_read("constant", 300, 256)
    rechecked = _counting_l2_pairs(monkeypatch)
    assert _scan(X, radius, [256], 64)[1][256] == (0.0, 0.0, 0.0) == _old_summary(X.T)
    assert sum(rechecked) == 0


@pytest.mark.parametrize("bad", [None, np.nan])
def test_summary_repeated_rows_equal_full_matrix(bad):
    # repeated rows beside distinct ones; repeats of a row holding nan are
    # not 0 apart
    X, _ = _orbit_read("rotation", 40, 12)
    X = np.ascontiguousarray(X[:, [0, 1, 0, 2, 1, 0, 3, 4, 3, 5, 6, 7, 0]])  # as read
    if bad is not None:
        X[5, [0, 2]] = bad
    for width in WIDTHS:
        centers, summaries = _scan(X, 0.5, (2, 3, 6, 13), width)
        assert centers == _old_greedy(X.T, 0.5)
        for h in (2, 3, 6, 13):
            got, want = summaries[h], _old_summary(X.T[:h])
            assert np.array_equal(got, want, equal_nan=True), (bad, h, width)


# ---------------------------------------------------------------------------
# Equipartitions

PARTITION_CASES = {
    "rotation-halves": (e.rotation(e.GOLDEN), e.halves(), 0.2),
    "rotation-cuts": (e.rotation(e.GOLDEN), e.circle_intervals([0.0, 0.3, 0.7]), 0.3),
    "doubling-halves": (e.doubling(), e.halves(), 0.3),
}
EQUI_EPS = {"rotation": 0.5, "doubling": 0.5, "sturmian-cell": 0.3, "table": 0.6,
            "constant": 0.5}


def _equi_cases():
    for name, (spec, f, _) in OBSERVABLE_CASES.items():
        yield name, spec, FbarKind(f), EQUI_EPS[name]
    for name, (spec, partition, eps) in PARTITION_CASES.items():
        yield name, spec, HammingKind(partition), eps


@pytest.mark.parametrize("name, spec, kind, eps", list(_equi_cases()),
                         ids=[c[0] for c in _equi_cases()])
def test_equipartition_and_verify_equal_full_matrix(name, spec, kind, eps):
    system = make_system(spec)
    for m in SIZES_M:
        samples = system.sample_measure(m, e.RandomPlan(3).child(97))
        for n in (1, 7, 64):
            for k_max in (None, 3):
                if isinstance(kind, HammingKind):
                    ep = e.hamming_equipartition(system, kind.partition, eps, samples, n,
                                                 k_max=k_max)
                    target = kind.partition
                else:
                    ep = e.find_equipartition(system, kind.observable, eps, samples, n,
                                              k_max=k_max)
                    target = kind.observable
                k = max(1, int(np.sqrt(m))) if k_max is None else k_max
                D = _old_matrix(kind, system, samples, n)
                assert ep == _old_build(D, eps, k, n), (m, n, k_max)
                if not isinstance(ep, EquiPartition):
                    continue
                for mode in ("limsup", "uniform"):
                    vkind = kind
                    if mode == "uniform" and isinstance(kind, FbarKind):
                        vkind = FhatKind(kind.observable)
                    rep = e.verify_equipartition(ep, system, target, samples, mode=mode)
                    want = _old_verify(ep, vkind, system, samples, max(4, n))
                    assert (rep.max_pairwise, rep.passed, rep.pair_maxima) == want


@pytest.mark.parametrize("chunk_bytes", [1, 1 << 12, 1 << 19])
def test_distance_rows_equal_full_matrix_rows(monkeypatch, chunk_bytes):
    monkeypatch.setattr(systems, "_CHUNK_BYTES", chunk_bytes)
    system = make_system(e.rotation(e.GOLDEN))
    samples = system.sample_measure(70, e.RandomPlan(9).child(97))
    f = e.Character(1)
    kinds = [FbarKind(f), FhatKind(f), HammingKind(e.circle_intervals([0.0, 0.3, 0.7]))]
    for kind in kinds:
        for n in (1, 9, 130):
            feats = _sample_features(kind, system, samples, n)
            D = old_kernels.distance_matrix(kind, feats)
            assert np.array_equal(_distance_matrix(kind, feats), D)
            for rows in ([0], [69], [3, 40, 41], list(range(70))):
                assert np.array_equal(_distance_rows(kind, feats, rows), D[rows])
            idx = [2, 5, 6, 30, 69]
            assert np.array_equal(_distance_matrix(kind, feats[idx]), D[np.ix_(idx, idx)])
