"""The lazy distance readers against test-local references.

The Koopman leg estimates the lag autocorrelation of the orbit read with
one FFT per sample row, in blocks of rows; its lag distances, greedy
centers and distance summaries are compared with the direct O(m N^2) lag
sums over the whole read in ``lag_reference``.  The equipartition readers
compute only center rows and in-cluster pairs; every value they return
must equal, bit for bit, what the old code computed from the whole
matrix.  The ``_old_*`` helpers below copy that code; they read whole
matrices from the old kernels in ``old_kernels``.
"""

import numpy as np
import pytest

import ergolab as e
import lag_reference as ref
import old_kernels
from ergolab import systems
from ergolab.cover import (
    FbarKind,
    FhatKind,
    HammingKind,
    _distance_matrix,
    _distance_row,
    _sample_features,
    _units_needed,
)
from ergolab.equicont import EquiPartition, EquipartitionFailure
from ergolab.spectral import (
    _lag_centers,
    _lag_correlation,
    _lag_distances,
    _lag_summary,
    _spectral_scan,
)
from ergolab.systems import make_system

# ---------------------------------------------------------------------------
# Old code: equipartition readers over full matrices


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
ROWS = (1, 7, 64, None)  # None: one block of at least m rows
# FFT rounding is relative to the energy of the whole read, so the lag sum
# of lag k, over N - k terms, is off by up to about u log2(L) N / (N - k)
# in units of max |f|^2: D^2 is compared within TOL * N * max |f|^2
TOL = 1e-13


def _orbit_read(case, m, N):
    spec, f, radius = OBSERVABLE_CASES[case]
    system = make_system(spec)
    samples = system.sample_measure(m, e.RandomPlan(77).child(51))
    return f.orbit_rows(system, samples, N), radius


def _scan(X, r, horizons=(), rows=None):
    """The lag distances, the greedy centers and the summaries at `horizons`
    of the pooled estimate over the rows of X, read in blocks of `rows`."""
    m, N = X.shape
    D = _lag_distances(_lag_correlation(lambda a, b: X[a:b], m, N, rows or m + 3))
    return D, _lag_centers(D, r), {h: _lag_summary(D, h) for h in horizons}


def _check_scan(X, r, horizons, rows):
    """The pooled estimate against the direct lag sums: D^2 within TOL; the
    centers and summaries are the references' over the estimate's own D bit
    for bit, and over the reference D unless one of its values lies within
    rounding of r (the summaries within the rounding of D)."""
    D, centers, summaries = _scan(X, r, horizons, rows)
    want = ref.distances(X)
    atol = TOL * X.shape[1] * max(1.0, float(np.max(np.abs(X), initial=0.0)) ** 2)
    assert np.allclose(D**2, want**2, rtol=0, atol=atol, equal_nan=True), rows
    assert centers == ref.greedy(D, r), rows
    if not np.any(np.abs(want - r) <= np.sqrt(atol)):
        assert centers == ref.greedy(want, r), rows
    for h in horizons:
        assert np.array_equal(summaries[h], ref.summary(D, h), equal_nan=True), (h, rows)
        assert np.allclose(summaries[h], ref.summary(want, h), rtol=0, atol=np.sqrt(atol),
                           equal_nan=True), (h, rows)
    return D, centers, summaries


@pytest.mark.parametrize("case", sorted(OBSERVABLE_CASES))
@pytest.mark.parametrize("m", SIZES_M)
def test_greedy_and_summary_equal_full_matrix(case, m):
    for N in SIZES_N:
        X, radius = _orbit_read(case, m, N)
        horizons = sorted({1, N // 2, N - 1, N} - {0})
        for rows in ROWS:
            _check_scan(X, radius, horizons, rows)


def test_greedy_membership_at_exactly_r():
    # D(2) is exactly r: a center covers lag 2 at r and not just below it
    D = np.array([0.0, 0.7, 0.5, 0.9, 0.6])
    assert _lag_centers(D, 0.5) == ref.greedy(D, 0.5) == [0, 1, 4]
    assert _lag_centers(D, np.nextafter(0.5, 0)) == ref.greedy(D, 0.4) == [0, 1, 2, 3, 4]
    assert _lag_centers(D, 0.7) == [0, 3]


@pytest.mark.parametrize("case", ["rotation", "doubling"])
@pytest.mark.parametrize("chunk_bytes", [1, 1 << 12])
def test_greedy_and_summary_any_block_size(monkeypatch, case, chunk_bytes):
    # the patched chunk size moves the orbit read's own chunks and the row
    # blocks of the public path; the results follow neither
    monkeypatch.setattr(systems, "_CHUNK_BYTES", chunk_bytes)
    X, radius = _orbit_read(case, 40, 601)
    (D, centers, summaries), *rest = [_check_scan(X, radius, (7, 256, 601), rows)
                                      for rows in ROWS]
    for rows, got in zip(ROWS[1:], rest):
        assert np.array_equal(got[0], D) and got[1:] == (centers, summaries), rows


@pytest.mark.parametrize("offset", [-1e-13, -1e-15, 0.0, 1e-15, 1e-13])
def test_greedy_and_summary_near_ties(offset):
    # a rotation orbit of 300 random phases whose lag-2 distance is the
    # radius up to `offset`: near-ties go the way of D(2) <= r
    rng = np.random.default_rng(5)
    m, N = 300, 9
    phase = np.exp(2j * np.pi * rng.random((m, 1)))
    X = phase * np.exp(2j * np.pi * 0.04 * np.arange(N))
    D, _, _ = _scan(X, 1.0)
    r = D[2] * (1 + offset)
    _, centers, _ = _check_scan(X, r, [9], None)
    assert (2 in centers) == (D[2] > r)
    for rows in ROWS:
        assert _scan(X, r, [9], rows)[1:] == (centers, {9: ref.summary(D, 9)})


def test_scan_promotes_float32_values():
    # the spectra are taken in float64: a float32 table is read as the
    # float64 table of the same values
    system = make_system(e.rotation(e.GOLDEN))
    part = e.circle_intervals([0.0, 0.3, 0.7])
    f32 = e.TableObservable(part, tuple(np.float32(v) for v in (1.0, -2.0, 0.5)))
    plan = e.RandomPlan(4)
    assert f32.orbit_rows(system, system.sample_measure(3, plan), 2).dtype == np.float32
    args = ([8, 64, 256], 1.0, 50, plan)
    assert _spectral_scan(system, f32, *args) == _spectral_scan(system, TABLE, *args)


@pytest.mark.parametrize("bad", [None, np.nan])
def test_summary_repeated_rows_equal_full_matrix(bad):
    # repeated columns beside distinct ones, as no orbit of an invariant
    # measure reads them; a nan in the read makes every lag sum nan
    X, _ = _orbit_read("rotation", 40, 12)
    X = np.ascontiguousarray(X[:, [0, 1, 0, 2, 1, 0, 3, 4, 3, 5, 6, 7, 0]])
    if bad is not None:
        X[5, [0, 2]] = bad
    for rows in ROWS:
        D, centers, summaries = _check_scan(X, 0.5, (2, 3, 6, 13), rows)
        assert np.isnan(D).all() == (bad is not None)
        if bad is not None:
            assert centers == list(range(13))
            assert all(np.isnan(summaries[h]).all() for h in (2, 3, 6, 13))


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
            rows = np.stack([_distance_row(kind, feats, i) for i in range(70)])
            assert np.array_equal(rows, D)
            idx = [2, 5, 6, 30, 69]
            assert np.array_equal(_distance_matrix(kind, feats[idx]), D[np.ix_(idx, idx)])
