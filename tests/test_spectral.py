import tracemalloc
from bisect import bisect_left
from dataclasses import replace

import numpy as np
import pytest

import ergolab as e
import lag_reference as ref
from ergolab import observables, systems
from ergolab.observables import eval_many
from ergolab.cli import main
from ergolab.report import config_from_json, run_experiment
from ergolab.spectral import (
    _TAG_L2,
    OrbitGeometry,
    _lag_correlation,
    _lag_distances,
    _row_block,
    _spectral_scan,
)
from ergolab.systems import make_system

PLAN = e.RandomPlan(31337)
SYS_R = make_system(e.rotation(e.GOLDEN))
SYS_D = make_system(e.doubling())
SYS_I = make_system(e.identity())


def test_koopman_identity_system():
    f = e.Character(1)
    for n in (-3, 0, 5):
        assert e.koopman_value(SYS_I, f, n, 0.3) == pytest.approx(
            np.exp(2j * np.pi * 0.3)
        )


def test_koopman_rotation_eigen_relation():
    f = e.Character(1)
    x = 0.123
    lam = np.exp(2j * np.pi * SYS_R.theta)
    assert e.koopman_value(SYS_R, f, 1, x) == pytest.approx(lam * f.eval(SYS_R, x))


def test_koopman_doubling_doubles_frequency():
    x = SYS_D.sample_measure(1, PLAN)[0]
    v = e.koopman_value(SYS_D, e.Character(1), 1, x)
    assert v == pytest.approx(complex(e.Character(2).eval(SYS_D, x)), abs=1e-9)


def test_l2_distance_identical_zero():
    f = e.Character(1)
    assert e.l2_distance(SYS_R, f, f, 1000, PLAN) == 0.0


def test_l2_distance_constants():
    assert e.l2_distance(SYS_R, e.Constant(1.0), e.Constant(3.5), 1000, PLAN) == 2.5


def test_l2_orthonormal_characters():
    d = e.l2_distance(SYS_R, e.Character(1), e.Character(2), 10**5, PLAN)
    assert d == pytest.approx(np.sqrt(2), abs=0.02)


def test_l2_symmetric():
    f, g = e.Character(1), e.Character(3)
    assert e.l2_distance(SYS_R, f, g, 5000, PLAN) == e.l2_distance(
        SYS_R, g, f, 5000, PLAN
    )


def test_eigen_residual_rotation_character():
    lam = np.exp(2j * np.pi * SYS_R.theta)
    assert e.eigen_residual(SYS_R, e.Character(1), lam, 4096, PLAN) <= 1e-10


def test_eigen_residual_identity():
    assert e.eigen_residual(SYS_I, e.Character(1), 1.0, 1000, PLAN) <= 1e-12


def test_eigen_residual_doubling_not_eigen():
    # Uf = character(2) is orthogonal to f: residual near sqrt(2)
    r = e.eigen_residual(SYS_D, e.Character(1), 1.0, 4000, PLAN)
    assert r == pytest.approx(np.sqrt(2), abs=0.05)


def test_eigen_residual_unit_circle_check():
    with pytest.raises(e.InvalidParameterError):
        e.eigen_residual(SYS_R, e.Character(1), 2.0, 100, PLAN)


def test_orbit_cover_trivial_radius():
    f = e.Character(1)
    og = e.orbit_covering_number(SYS_R, f, 50, 2.5, 500, PLAN)
    assert og.covering_count == 1  # radius exceeds the orbit diameter


def test_orbit_cover_doubling_orthonormal():
    og = e.orbit_covering_number(SYS_D, e.Character(1), 64, 1.0, 800, PLAN)
    assert og.covering_count == 64
    assert og.dist_min == pytest.approx(np.sqrt(2), abs=0.1)


def test_orbit_cover_monotone():
    f = e.Character(1)
    small_r = e.orbit_covering_number(SYS_R, f, 128, 0.25, 500, PLAN).covering_count
    big_r = e.orbit_covering_number(SYS_R, f, 128, 1.0, 500, PLAN).covering_count
    assert small_r >= big_r
    short = e.orbit_covering_number(SYS_R, f, 32, 0.5, 500, PLAN).covering_count
    long = e.orbit_covering_number(SYS_R, f, 256, 0.5, 500, PLAN).covering_count
    assert long >= short


def test_rotation_covering_stabilizes():
    """The rotation orbit {lambda^n f} is totally bounded: counts match
    between N=100 and N=2000."""
    f = e.Character(1)
    c1 = e.orbit_covering_number(SYS_R, f, 100, 0.5, 400, PLAN).covering_count
    c2 = e.orbit_covering_number(SYS_R, f, 2000, 0.5, 400, PLAN).covering_count
    assert c1 == c2


def test_koopman_isometry():
    # measure invariance: distances between shifted observables persist
    f, g = e.Character(1), e.Character(2)
    base = e.l2_distance(SYS_R, f, g, 20000, PLAN)
    # U^n multiplies both by unimodular constants; distance is unchanged
    og = e.orbit_covering_number(SYS_R, f, 8, 3.0, 20000, PLAN)
    assert og.covering_count == 1
    assert base == pytest.approx(np.sqrt(2), abs=3 / np.sqrt(20000) * 3)


def test_classify_rotation_ap():
    v = e.classify_almost_periodic(SYS_R, e.Character(1), [64, 256, 1024], 0.5, 500, PLAN)
    assert v == "ap"


def test_classify_doubling_not_ap():
    v = e.classify_almost_periodic(SYS_D, e.Character(1), [16, 32, 64], 1.0, 500, PLAN)
    assert v == "not_ap"


def test_classify_constant_ap():
    v = e.classify_almost_periodic(SYS_R, e.Constant(1.0), [8, 16, 32], 0.5, 200, PLAN)
    assert v == "ap"


def test_classify_validation():
    with pytest.raises(e.InvalidParameterError):
        e.classify_almost_periodic(SYS_R, e.Character(1), [8, 16], 0.5, 100, PLAN)
    with pytest.raises(e.InvalidParameterError):
        e.classify_almost_periodic(SYS_R, e.Character(1), [8, 16, 32], -1.0, 100, PLAN)


def test_orbit_geometry_json():
    og = e.orbit_covering_number(SYS_R, e.Character(1), 32, 0.5, 200, PLAN)
    obj = og.to_json()
    assert obj["covering_count"] == og.covering_count
    assert 1 <= og.covering_count <= 32


# ---------------------------------------------------------------------------
# One scan against a rebuild at every horizon.  The reference reads the
# orbit matrix one sample at a time with orbit_values and takes the direct
# O(m N^2) lag sums over it (lag_reference).
# FFT rounding moves D^2 by up to about 1e-13 N (see test_lazy_readers), so
# the summaries are compared within the root of that.


def _ref_orbit_matrix(system, f, samples, N):
    return np.stack([f.orbit_values(system, x, N) for x in samples])


def _ref_verdict(counts, horizons):
    if counts[-1] == counts[-2]:
        return "ap"
    if counts[-2] > 0 and counts[-1] / counts[-2] >= 0.5 * horizons[-1] / horizons[-2]:
        return "not_ap"
    return "inconclusive"


def _ref_geometry(D, h, radius, m):
    return OrbitGeometry(h, radius, bisect_left(ref.greedy(D, radius), h),
                         *ref.summary(D, h), m)


def _assert_geometry(got, want):
    """Equal but for the distance summary, which agrees within the root of
    the rounding of D^2."""
    dists = ("dist_min", "dist_median", "dist_max")
    zero = dict.fromkeys(dists, 0.0)
    assert replace(got, **zero) == replace(want, **zero)
    assert np.allclose([getattr(got, k) for k in dists], [getattr(want, k) for k in dists],
                       rtol=0, atol=np.sqrt(1e-13 * got.horizon))


SCAN_CASES = [
    (e.rotation(e.GOLDEN), e.Character(1), 0.5),
    (e.doubling(), e.Character(1), 1.0),
    (e.sturmian(e.GOLDEN), e.CellIndicator(e.cylinder([0], 2), 0), 0.5),
]


@pytest.mark.parametrize("spec, f, radius", SCAN_CASES)
def test_one_scan_matches_rebuild_per_horizon(spec, f, radius):
    # the scan reads every horizon from the lag distances at the largest;
    # orbit_covering_number at one horizon reads those at that horizon
    system, horizons, m = make_system(spec), [7, 50, 601], 40
    plan = e.RandomPlan(2024)
    samples = system.sample_measure(m, plan.child(_TAG_L2))
    X = _ref_orbit_matrix(system, f, samples, horizons[-1])
    D = ref.distances(X)
    want = [_ref_geometry(D, h, radius, m) for h in horizons]
    verdict = _ref_verdict([g.covering_count for g in want], horizons)

    got_verdict, got = _spectral_scan(system, f, horizons, radius, m, plan)
    assert got_verdict == verdict
    for g, w in zip(got, want):
        _assert_geometry(g, w)
    assert e.classify_almost_periodic(system, f, horizons, radius, m, plan) == verdict
    for h in horizons:
        _assert_geometry(e.orbit_covering_number(system, f, h, radius, m, plan),
                         _ref_geometry(ref.distances(X[:, :h]), h, radius, m))


def test_spectral_run_builds_orbit_matrix_once(monkeypatch):
    """One sample set, and orbit_rows reads of consecutive blocks of it, each
    up to the largest horizon, that hold every sample exactly once."""
    monkeypatch.setattr(systems, "_CHUNK_BYTES", 1 << 14)  # blocks of 4 rows
    calls = {"sample_measure": [], "orbit_rows": [], "orbit_values": []}

    def counting(cls, name, record):
        orig = getattr(cls, name)

        def wrapper(*args, **kwargs):
            out = orig(*args, **kwargs)
            calls[name].append(record(args, kwargs, out))
            return out

        monkeypatch.setattr(cls, name, wrapper)

    counting(systems.DoublingSystem, "sample_measure", lambda a, k, out: out)
    counting(observables.Character, "orbit_rows", lambda a, k, out: (a[2], a[3:], k))
    counting(observables.Observable, "orbit_values", lambda a, k, out: 1)
    cfg = {"task": "spectral", "system": {"family": "doubling"},
           "target": {"observable": {"kind": "character", "k": 1}},
           "params": {"horizons": [8, 16, 100], "radius": 1.0, "samples": 30},
           "seed": 3}
    bundle = run_experiment(config_from_json(cfg))
    assert [g.horizon for _, g in bundle.geometries] == [8, 16, 100]
    # one sample set, no per-sample read, and blocks of it that follow each
    # other, read from column 0 to the largest horizon
    (samples,) = calls["sample_measure"]
    assert len(samples) == 30 and calls["orbit_values"] == []
    reads = calls["orbit_rows"]
    assert len(reads) == 8 and {(n, str(k)) for _, n, k in reads} == {((100,), "{}")}
    blocks = [block for block, _, _ in reads]
    assert np.array_equal(np.concatenate([b.keys for b in blocks]), samples.keys)
    assert np.array_equal(np.concatenate([b.offsets for b in blocks]), samples.offsets)


# ---------------------------------------------------------------------------
# The lag estimate: closed forms and block sizes


@pytest.mark.parametrize("theta", [e.GOLDEN, 0.3])
def test_rotation_lag_distances_closed_form(theta):
    # every sample gives the same lag products e(k theta): at m = 200 and
    # N = 1024, D(k)^2 = 4 sin^2(pi k theta) within 1e-11 at every lag (D
    # itself, near its zeros, only within the root of that)
    system, m, N = make_system(e.rotation(theta)), 200, 1024
    samples = system.sample_measure(m, PLAN.child(_TAG_L2))
    X = e.Character(1).orbit_rows(system, samples, N)
    D = _lag_distances(_lag_correlation(lambda a, b: X[a:b], m, N, _row_block(N)))
    k = np.arange(N)
    assert np.abs(D**2 - 4 * np.sin(np.pi * k * system.theta) ** 2).max() <= 1e-11


def test_doubling_lag_distances_near_sqrt2():
    # U^k f for k >= 1 is orthogonal to f, so D(k) = sqrt 2; at m = 400 and
    # N = 64 the estimate is within 0.1 at every lag (the last lag pools
    # only m products)
    m, N = 400, 64
    samples = SYS_D.sample_measure(m, PLAN.child(_TAG_L2))
    X = e.Character(1).orbit_rows(SYS_D, samples, N)
    D = _lag_distances(_lag_correlation(lambda a, b: X[a:b], m, N, _row_block(N)))
    assert D[0] == 0.0
    assert np.abs(D[1:] - np.sqrt(2)).max() <= 0.1


def test_nonergodic_rotation_counts():
    # rotation by 1/4 is not ergodic; the orbit of e(x) is the 4 points
    # i^k e(x), at distances 0, sqrt 2 and 2: 4 balls of radius 0.5 at
    # m = 200 and N = 64, 256, 1024
    horizons = [64, 256, 1024]
    verdict, geoms = _spectral_scan(make_system(e.rotation(0.25)), e.Character(1),
                                    horizons, 0.5, 200, PLAN)
    assert [g.covering_count for g in geoms] == [4, 4, 4] and verdict == "ap"
    for g in geoms:
        assert np.allclose((g.dist_min, g.dist_median, g.dist_max), (0, np.sqrt(2), 2),
                           rtol=0, atol=1e-6)


BLOCK_CASES = [
    (SYS_R, e.Character(1), 0.5),
    (SYS_D, e.Character(1), 1.0),
    (make_system(e.sturmian(e.GOLDEN)), e.CellIndicator(e.cylinder([0], 2), 0), 0.5),
]


@pytest.mark.parametrize("system, f, radius", BLOCK_CASES)
def test_lag_estimate_same_for_any_block_size(monkeypatch, system, f, radius):
    """c^, D, counts and summaries are bit-identical under any chunk size and
    any row block: the power spectra are added in sample order."""
    m, horizons = 70, [8, 100, 600]
    N = horizons[-1]
    samples = system.sample_measure(m, PLAN.child(_TAG_L2))

    def results(rows):
        c = _lag_correlation(lambda a, b: f.orbit_rows(system, samples[a:b], N), m, N, rows)
        return c, _lag_distances(c), _spectral_scan(system, f, horizons, radius, m, PLAN)

    want = results(_row_block(N))
    for chunk in (1, 4096, systems._CHUNK_BYTES):
        monkeypatch.setattr(systems, "_CHUNK_BYTES", chunk)
        for rows in (_row_block(N), 1, 3, 64, m):
            c, D, scan = results(rows)
            assert np.array_equal(c, want[0]) and np.array_equal(D, want[1])
            assert scan == want[2], (chunk, rows)


def test_one_column_spectra_add_in_sample_order():
    # numpy sums a one-column axis-0 reduce pairwise, so the spectra of a
    # one-column read are two bins wide and still add in sample order
    rng = np.random.default_rng(0)
    X = rng.random((300, 1)) * 10.0 ** rng.integers(-8, 8, (300, 1))
    c = [_lag_correlation(lambda a, b: X[a:b], 300, 1, rows) for rows in (1, 7, 300)]
    assert np.array_equal(c[0], c[1]) and np.array_equal(c[0], c[2])


def _old_step_values(system, samples):
    if system.spec.family == "rotation":
        return (samples + system.theta) % 1.0
    return samples % 1.0


@pytest.mark.parametrize("spec", [e.rotation(e.GOLDEN), e.rotation(0.3), e.identity()])
def test_eigen_residual_array_step_bit_exact(spec):
    system = make_system(spec)
    table = e.TableObservable(e.circle_intervals([0.0, 0.3, 0.7]), (1.0, -2.0, 0.5))
    fs = [e.Character(1), e.Character(3), e.CellIndicator(e.halves(), 0), table,
          e.Constant(2.0)]
    for f in fs:
        for lam in (1.0, np.exp(2j * np.pi * e.GOLDEN), np.exp(0.7j)):
            samples = system.sample_measure(777, PLAN.child(_TAG_L2))
            fx = eval_many(f, system, samples)
            fx1 = eval_many(f, system, _old_step_values(system, samples))
            want = float(np.sqrt(np.mean(np.abs(fx1 - lam * fx) ** 2)))
            assert e.eigen_residual(system, f, lam, 777, PLAN) == want


def _traced_peak(run) -> int:
    """Peak traced bytes of run(), called once before to leave imports and
    caches out of the measure."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectral_scan_holds_under_half_the_orbit_read():
    # 1500 samples read in blocks of 16 rows: the scan holds one block, its
    # spectrum and its power spectrum beside the summed spectrum, never the
    # 1500 x 1024 read
    m, horizons, f = 1500, [64, 256, 1024], e.Character(1)
    peak = _traced_peak(lambda: _spectral_scan(SYS_R, f, horizons, 0.5, m, PLAN))
    assert peak < m * horizons[-1] * 16 / 2


def test_all_centers_scan_holds_no_more_than_the_orbit_read():
    # every lag is a center: the greedy keeps only the center list, and the
    # scan holds one block of rows at a time, as with 8 centers
    m, horizons, f = 1000, [64, 256, 1024], e.Character(1)
    N = horizons[-1]
    _, geoms = _spectral_scan(SYS_D, f, horizons, 1.0, m, PLAN)
    assert [g.covering_count for g in geoms] == horizons
    samples = SYS_D.sample_measure(m, PLAN.child(_TAG_L2))
    block = _traced_peak(lambda: f.orbit_rows(SYS_D, samples[: _row_block(N)], N))
    peak = _traced_peak(lambda: _spectral_scan(SYS_D, f, horizons, 1.0, m, PLAN))
    assert peak <= m * N * 16 + block


@pytest.mark.parametrize("run", ["api", "cli"])
def test_spectral_store_is_charged_before_it_grows(run, monkeypatch, tmp_path, capsys):
    # 50 samples and horizon 32 (L = 64): one block of the 50 rows, its
    # spectrum and power spectrum, and the summed spectrum are charged
    # 16 * (50 * (32 + 2 * 64) + 64) = 129024 bytes before the first read
    monkeypatch.setattr(systems, "_MATRIX_BYTES", 129_023)
    command = ["spectral", "--system", "rotation:golden", "--target", "character:1",
               "--horizons", "8,16,32", "--radius", "0.5", "--samples", "50"]
    out = tmp_path / "out"
    if run == "cli":
        assert main(["--out", str(out), *command]) == 3
        assert "lag spectrum of a Koopman orbit needs 129024 bytes" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
    else:
        reads, orbit_rows = [], observables.Character.orbit_rows
        monkeypatch.setattr(observables.Character, "orbit_rows",
                            lambda *a, **k: reads.append(a) or orbit_rows(*a, **k))
        with pytest.raises(e.BudgetExhaustedError):
            e.orbit_covering_number(SYS_R, e.Character(1), 32, 0.5, 50, PLAN)
        assert reads == []  # refused before the first read
    monkeypatch.setattr(systems, "_MATRIX_BYTES", 129_024)  # exactly enough
    assert main(["--out", str(out), *command]) == 0
