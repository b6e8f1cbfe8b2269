from bisect import bisect_left

import numpy as np
import pytest

import ergolab as e
from ergolab import observables, systems
from ergolab.observables import eval_many
from ergolab.report import config_from_json, run_experiment
from ergolab.spectral import _TAG_L2, OrbitGeometry, _spectral_scan
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
# One scan against a rebuild at every horizon.  The _old_* helpers copy the
# spectral code from before the single scan: sample set, orbit matrix,
# greedy and distance summary built afresh for each horizon.


def _old_orbit_matrix(system, f, samples, N):
    return np.stack([f.orbit_values(system, x, N) for x in samples]).T


def _old_greedy(V, r):
    covered = np.zeros(V.shape[0], dtype=bool)
    centers = []
    for i in range(V.shape[0]):
        if covered[i]:
            continue
        d = np.sqrt(np.mean(np.abs(V - V[i]) ** 2, axis=1))
        covered |= d <= r
        centers.append(i)
    return centers


def _old_summary(V):
    N = V.shape[0]
    if N < 2:
        return 0.0, 0.0, 0.0
    if N > 512:
        V = V[np.unique(np.linspace(0, N - 1, 256).astype(int))]
        N = V.shape[0]
    dists = [np.sqrt(np.mean(np.abs(V[i + 1:] - V[i]) ** 2, axis=1))
             for i in range(N - 1)]
    flat = np.concatenate(dists)
    return float(flat.min()), float(np.median(flat)), float(flat.max())


def _old_geometry(system, f, h, radius, m, plan):
    samples = system.sample_measure(m, plan.child(_TAG_L2))
    V = _old_orbit_matrix(system, f, samples, h)
    return OrbitGeometry(h, radius, len(_old_greedy(V, radius)), *_old_summary(V), m)


def _old_verdict(counts, horizons):
    if counts[-1] == counts[-2]:
        return "ap"
    if counts[-2] > 0 and counts[-1] / counts[-2] >= 0.5 * horizons[-1] / horizons[-2]:
        return "not_ap"
    return "inconclusive"


SCAN_CASES = [
    (e.rotation(e.GOLDEN), e.Character(1), 0.5),
    (e.doubling(), e.Character(1), 1.0),
    (e.sturmian(e.GOLDEN), e.CellIndicator(e.cylinder([0], 2), 0), 0.5),
]


@pytest.mark.parametrize("spec, f, radius", SCAN_CASES)
def test_one_scan_matches_rebuild_per_horizon(spec, f, radius):
    system, horizons, m = make_system(spec), [7, 50, 601], 40
    plan = e.RandomPlan(2024)
    want = [_old_geometry(system, f, h, radius, m, plan) for h in horizons]
    counts = [g.covering_count for g in want]
    # the rebuilt counts nest, as the prefix-stable greedy promises
    samples = system.sample_measure(m, plan.child(_TAG_L2))
    centers = _old_greedy(_old_orbit_matrix(system, f, samples, horizons[-1]), radius)
    assert counts == [bisect_left(centers, h) for h in horizons]
    verdict = _old_verdict(counts, horizons)

    assert _spectral_scan(system, f, horizons, radius, m, plan) == (verdict, want)
    assert e.classify_almost_periodic(system, f, horizons, radius, m, plan) == verdict
    for h, g in zip(horizons, want):
        assert e.orbit_covering_number(system, f, h, radius, m, plan) == g


def test_spectral_run_builds_orbit_matrix_once(monkeypatch):
    calls = {"sample_measure": [], "orbit_rows": [], "orbit_values": []}

    def counting(cls, name, size):
        orig = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name].append(size(args))
            return orig(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counting(systems.DoublingSystem, "sample_measure", lambda a: a[1])
    counting(observables.Character, "orbit_rows", lambda a: len(a[2]))
    counting(observables.Observable, "orbit_values", lambda a: 1)
    cfg = {"task": "spectral", "system": {"family": "doubling"},
           "target": {"observable": {"kind": "character", "k": 1}},
           "params": {"horizons": [8, 16, 32], "radius": 1.0, "samples": 30},
           "seed": 3}
    bundle = run_experiment(config_from_json(cfg))
    assert [g.horizon for _, g in bundle.geometries] == [8, 16, 32]
    # one sample set, one batched read of all 30 orbits, no per-sample read
    assert calls == {"sample_measure": [30], "orbit_rows": [30], "orbit_values": []}


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
