import sys
import tracemalloc

import numpy as np
import pytest

import ergolab as e
import old_kernels
from ergolab import cover, equicont, observables, systems
from ergolab.report import config_from_json, run_experiment
from ergolab.systems import make_system

PLAN = e.RandomPlan(7)
SYS_R = make_system(e.rotation(e.GOLDEN))
SYS_D = make_system(e.doubling())
SYS_B = make_system(e.bernoulli_shift(0.5))


def test_constant_observable_single_cluster():
    samples = SYS_R.sample_measure(50, PLAN)
    ep = e.find_equipartition(SYS_R, e.Constant(2.0), 0.3, samples, 64)
    assert isinstance(ep, e.EquiPartition)
    assert ep.k == 1
    assert ep.covered_mass == 1.0
    assert ep.diameter_bound == 0.0


def test_rotation_character_succeeds_small_k():
    """Clusters are arcs where 2|sin pi t| < eps/2; greedy needs few of them."""
    samples = SYS_R.sample_measure(500, PLAN)
    ep = e.find_equipartition(SYS_R, e.Character(1), 0.5, samples, 128)
    assert isinstance(ep, e.EquiPartition)
    assert ep.k <= 30
    assert ep.covered_mass > 0.5


def test_cluster_soundness_reevaluated():
    # exact re-check: every within-cluster pair below eps, not statistical
    samples = SYS_R.sample_measure(300, PLAN)
    f = e.Character(1)
    ep = e.find_equipartition(SYS_R, f, 0.5, samples, 128)
    for cluster in ep.clusters:
        for i in cluster:
            for j in cluster:
                assert e.fbar_n(SYS_R, f, samples[i], samples[j], 128) < 0.5
    assert ep.diameter_bound < ep.eps


def test_doubling_indicator_fails():
    samples = SYS_D.sample_measure(400, PLAN)
    f = e.CellIndicator(e.halves(), 0)
    out = e.find_equipartition(SYS_D, f, 0.4, samples, 256, k_max=100)
    assert isinstance(out, e.EquipartitionFailure)
    assert out.k is None
    assert out.covered_mass <= 0.6


def test_hamming_equipartition_trivial_partition():
    samples = SYS_R.sample_measure(100, PLAN)
    ep = e.hamming_equipartition(SYS_R, e.trivial(), 0.3, samples, 32)
    assert ep.k == 1


def test_hamming_equipartition_rotation_halves():
    samples = SYS_R.sample_measure(500, PLAN)
    ep = e.hamming_equipartition(SYS_R, e.halves(), 0.2, samples, 256)
    assert isinstance(ep, e.EquiPartition)
    assert ep.k <= 50


def test_hamming_equipartition_bernoulli_fails():
    samples = SYS_B.sample_measure(400, PLAN)
    out = e.hamming_equipartition(SYS_B, e.cylinder([0], 2), 0.2, samples, 64, k_max=200)
    assert isinstance(out, e.EquipartitionFailure)


def test_monotone_in_eps():
    # success at eps implies success at larger eps with no more clusters
    samples = SYS_R.sample_measure(400, PLAN)
    f = e.Character(1)
    ep1 = e.find_equipartition(SYS_R, f, 0.5, samples, 128)
    ep2 = e.find_equipartition(SYS_R, f, 0.8, samples, 128)
    assert isinstance(ep1, e.EquiPartition) and isinstance(ep2, e.EquiPartition)
    assert ep2.k <= ep1.k


def test_cover_consistency_cross_check():
    """Equipartition with k clusters forces cover number <= k on same samples."""
    samples = SYS_R.sample_measure(400, PLAN)
    f = e.Character(1)
    ep = e.find_equipartition(SYS_R, f, 0.5, samples, 128)
    cover = e.estimate_cover_number(samples, 128, 0.5, e.FbarKind(f), system=SYS_R)
    assert cover.count <= ep.k


def test_verify_modes():
    samples = SYS_R.sample_measure(200, PLAN)
    f = e.Character(1)
    ep = e.find_equipartition(SYS_R, f, 0.5, samples, 128)
    rep_u = e.verify_equipartition(ep, SYS_R, f, samples, mode="uniform")
    rep_l = e.verify_equipartition(ep, SYS_R, f, samples, mode="limsup")
    assert rep_u.passed and rep_l.passed
    assert rep_u.max_pairwise < 0.5


@pytest.mark.parametrize("mode", ["limsup", "uniform"])
@pytest.mark.parametrize("horizons", [[-3, 0, 16], [16, 4]])
def test_verify_checks_horizon_ladder_in_both_modes(mode, horizons):
    samples = SYS_R.sample_measure(100, PLAN)
    f = e.Character(1)
    ep = e.find_equipartition(SYS_R, f, 0.5, samples, 16)
    with pytest.raises(e.InvalidParameterError):
        e.verify_equipartition(ep, SYS_R, f, samples, horizons, mode=mode)


def test_verify_detects_merged_far_clusters():
    # antipodal character values sit at distance 2; a merged cluster fails
    samples = [0.0, 0.5]
    ep = e.EquiPartition(
        clusters=((0, 1),), eps=1.0, covered_mass=1.0, horizon=64, diameter_bound=0.0
    )
    rep = e.verify_equipartition(ep, SYS_R, e.Character(1), samples, mode="uniform")
    assert not rep.passed
    assert rep.max_pairwise == pytest.approx(2.0, abs=1e-9)


def test_expansivity_constant_zero():
    est = e.mean_expansivity_estimate(SYS_R, e.Constant(1.0), 0.1, 200, 64, PLAN)
    assert est.value == 0.0


def test_expansivity_validation():
    with pytest.raises(e.InvalidParameterError):
        e.mean_expansivity_estimate(SYS_R, e.Constant(1.0), 0.1, 10, 64, PLAN)
    with pytest.raises(e.InvalidParameterError):
        e.mean_expansivity_estimate(SYS_R, e.Constant(1.0), -1.0, 200, 64, PLAN)


def test_expansivity_doubling_high_rate():
    f = e.CellIndicator(e.halves(), 0)
    est = e.mean_expansivity_estimate(SYS_D, f, 0.4, 500, 2048, PLAN)
    assert est.value >= 0.97
    assert 0.0 <= est.nonconverged_fraction <= 1.0


@pytest.mark.parametrize("system", [SYS_R, SYS_D], ids=["rotation", "doubling"])
@pytest.mark.parametrize("k", [1, 2, -3])
def test_character_gap_rows_match_orbit_rows(system, k):
    # the orbit_rows path rounds each exp argument 2 pi k a (below 19 for
    # |k| = 3) to half an ulp, at most 1.8e-15; two such roundings put the
    # two paths within about 4e-15 of each other
    f = e.Character(k)
    xs = system.sample_measure(300, PLAN.child(1))
    ys = system.sample_measure(300, PLAN.child(2))
    gaps = f.gap_rows(system, xs, ys, 200)
    want = np.abs(f.orbit_rows(system, xs, 200) - f.orbit_rows(system, ys, 200))
    assert gaps.shape == want.shape == (300, 200)
    assert np.max(np.abs(gaps - want)) <= 4e-15


def test_character_gap_rows_need_a_circle_family():
    xs = SYS_B.sample_measure(10, PLAN)
    with pytest.raises(e.IncompatibleObservableError, match="need a circle family"):
        e.Character(1).gap_rows(SYS_B, xs, xs, 8)


def test_rotation_character_expansivity_closed_form():
    # a rotation keeps x - y, so every gap of a pair is 2 sin(pi arc(x, y))
    pairs, delta = 2000, 0.4
    est = e.mean_expansivity_estimate(SYS_R, e.Character(1), delta, pairs, 1024, PLAN)
    xs = SYS_R.sample_measure(pairs, PLAN.child(equicont._TAG_PAIR_LEFT))
    ys = SYS_R.sample_measure(pairs, PLAN.child(equicont._TAG_PAIR_RIGHT))
    arc = np.abs(xs - ys)
    arc = np.minimum(arc, 1.0 - arc)
    assert est.value == np.count_nonzero(2.0 * np.sin(np.pi * arc) > delta) / pairs
    assert est.nonconverged_fraction == 0.0


def test_character_expansivity_run_reads_no_orbit_rows(monkeypatch):
    def unreachable(*args):
        raise AssertionError("Character.orbit_rows was called")

    monkeypatch.setattr(observables.Character, "orbit_rows", unreachable)
    cfg = {"task": "expansivity", "system": {"family": "rotation", "params": {"theta": 0.1}},
           "target": {"observable": {"kind": "character", "k": 1}},
           "params": {"delta": 0.4, "pairs": 200, "horizon": 64}, "seed": 3}
    bundle = run_experiment(config_from_json(cfg))
    assert bundle.tables[0][0] == "expansivity"


def test_equipartition_json():
    samples = SYS_R.sample_measure(50, PLAN)
    ep = e.find_equipartition(SYS_R, e.Character(1), 0.8, samples, 64)
    obj = ep.to_json()
    assert sum(len(c) for c in obj["clusters"]) <= 50


def test_cluster_blocks_charged_before_they_are_built(monkeypatch):
    # a cluster's block, like a pairwise distance matrix, is charged 12 bytes
    # per entry: float64 distances beside float32 Hamming agreement counts
    system = make_system(e.identity())
    samples = system.sample_measure(300, PLAN)
    ep = e.hamming_equipartition(system, e.halves(), 0.2, samples, 8)
    c = max(map(len, ep.clusters))
    calls = [
        lambda: e.hamming_equipartition(system, e.halves(), 0.2, samples, 8),
        lambda: e.verify_equipartition(ep, system, e.halves(), samples, [2, 4, 8]),
        lambda: e.pairwise_distances(e.HammingKind(e.halves()), system, samples[:c], 8),
    ]
    monkeypatch.setattr(systems, "_MATRIX_BYTES", 12 * c * c - 1)
    for call in calls:
        with pytest.raises(e.BudgetExhaustedError, match=f"a distance matrix of {c} samples"):
            call()
    monkeypatch.setattr(systems, "_MATRIX_BYTES", 12 * c * c)  # exactly enough
    assert calls[0]() == ep
    assert calls[1]().passed
    assert calls[2]().shape == (c, c)


@pytest.mark.parametrize("spec, kind", [
    (e.identity(), e.HammingKind(e.halves())),
    (e.doubling(), e.HammingKind(e.circle_intervals([0.0, 0.3, 0.7]))),
    (e.rotation(e.GOLDEN), e.FbarKind(e.Character(1))),
    (e.doubling(), e.FbarKind(e.Character(1))),
])
def test_cluster_block_peak_within_its_charge(spec, kind):
    system = make_system(spec)
    c = 1000
    feats = cover._sample_features(kind, system, system.sample_measure(c, PLAN), 64)
    tracemalloc.start()
    try:
        equicont._cluster_maxima(kind, feats, [tuple(range(c))])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if isinstance(kind, e.HammingKind):
        # the agreement counts, charged 12 bytes per entry, and 1 MB for the
        # feature copy and the plane blocks
        assert peak < 12 * c * c + (1 << 20)
    else:
        # the fbar pivot screen builds no block: the cluster's complex
        # feature copy (1 KB per sample at horizon 64) and pivot rows grow
        # with c, the screen tiles and pair chunks do not; 3.29 MB measured
        # on rotation, 4.37 MiB on doubling, whose screen leaves most tiles
        # open
        assert peak < 2048 * c + (3 << 20)


def _bits(maxima):
    # each distance as its bytes: nan matches nan, and only itself
    return [(i, j, np.float64(d).tobytes()) for i, j, d in maxima]


def _cluster_cases(system, kind, m=64, eps=0.5):
    """Features of m samples at horizon 64 and clusters to read in them: the
    greedy's, an empty one, one of 1 and 2 samples, a pair and a cluster
    listed out of ascending order, a cluster that lists each sample twice
    (each farthest pair then comes four times) and every sample."""
    feats = cover._sample_features(kind, system, system.sample_measure(m, PLAN.child(11)), 64)
    clusters, _ = equicont._greedy_clusters(kind, feats, eps, m, cover._units_needed(m, eps))
    big = max(clusters, key=len)
    twice = tuple(i for i in big for _ in range(2))
    return feats, [*clusters, (), (5,), (3, 9), (9, 3), big[::-1], twice, tuple(range(m))]


@pytest.mark.parametrize("chunk", [1, 4096, systems._CHUNK_BYTES])
@pytest.mark.parametrize("metric", [e.FbarKind, e.FhatKind])
@pytest.mark.parametrize("spec", [e.rotation(e.GOLDEN), e.doubling()],
                         ids=["rotation", "doubling"])
def test_cluster_maxima_equal_full_block(monkeypatch, spec, metric, chunk):
    # the pivot screen settles most pairs of a rotation and few of doubling;
    # either way the triples are the block's, bit for bit
    system = make_system(spec)
    kind = metric(e.Character(1))
    feats, clusters = _cluster_cases(system, kind)
    monkeypatch.setattr(systems, "_CHUNK_BYTES", chunk)
    want = _bits(old_kernels.cluster_maxima(kind, feats, clusters))
    assert _bits(equicont._cluster_maxima(kind, feats, clusters)) == want


@pytest.mark.parametrize("metric", [e.FbarKind, e.FhatKind])
def test_cluster_maxima_first_pair_wins_a_tie(metric):
    # every distance of a constant is 0: the first pair in row order wins
    kind = metric(e.Constant(2.0))
    feats = cover._sample_features(kind, SYS_R, SYS_R.sample_measure(50, PLAN), 64)
    clusters = [tuple(range(50)), (7, 3, 5)]
    got = equicont._cluster_maxima(kind, feats, clusters)
    assert got == [(0, 1, 0.0), (7, 3, 0.0)]
    assert _bits(got) == _bits(old_kernels.cluster_maxima(kind, feats, clusters))


@pytest.mark.parametrize("metric", [e.FbarKind, e.FhatKind])
def test_cluster_maxima_nan_pair_matches_block(metric):
    # fixed points in the nan cell of the table read nan at every step
    system = make_system(e.identity())
    kind = metric(e.TableObservable(e.halves(), (0.25, np.nan)))
    feats = cover._sample_features(kind, system, system.sample_measure(60, PLAN), 16)
    finite = tuple(np.flatnonzero(np.isfinite(feats[:, 0])))
    assert 0 < len(finite) < 60
    clusters = [tuple(range(60)), tuple(range(59, -1, -1)), finite]
    got = equicont._cluster_maxima(kind, feats, clusters)
    assert np.isnan(got[0][2]) and np.isnan(got[1][2]) and got[2][2] == 0.0
    assert _bits(got) == _bits(old_kernels.cluster_maxima(kind, feats, clusters))


@pytest.mark.parametrize("metric", [e.FbarKind, e.FhatKind])
def test_cluster_maxima_ties_across_screen_tiles(monkeypatch, metric):
    # constant rows at 0 and at four points of the unit circle: the two
    # diameters (5, 50) and (10, 30) tie at 2 exactly, and so does (5, 55);
    # with 22-row tiles the row band of rows 0-21 meets (10, 30) in an
    # earlier column tile than the first pair in row order, (5, 50)
    feats = np.zeros((66, 4), dtype=complex)
    for row, point in ((5, 1), (10, 1j), (30, -1j), (50, -1), (55, -1)):
        feats[row] = point
    monkeypatch.setattr(systems, "_CHUNK_BYTES", 4096)
    kind = metric(None)
    clusters = [tuple(range(66))]
    got = equicont._cluster_maxima(kind, feats, clusters)
    assert got[0][:2] == (5, 50)
    assert _bits(got) == _bits(old_kernels.cluster_maxima(kind, feats, clusters))


def test_cluster_maxima_screen_reduces_few_pairs(monkeypatch):
    # on a rotation cluster the pivot bounds leave few pairs that could be
    # the farthest; count the distances the kernel reduces, pivot rows too
    reduced = []

    def counted(read):
        def wrapped(*args):
            out = read(*args)
            reduced.append(out.size)
            return out
        return wrapped

    def unreachable(*args):
        raise AssertionError("the screen built the whole block")

    monkeypatch.setattr(cover, "_distance_row", counted(cover._distance_row))
    monkeypatch.setattr(cover, "_distance_pairs", counted(cover._distance_pairs))
    monkeypatch.setattr(cover, "_distance_matrix", unreachable)
    samples = SYS_R.sample_measure(1000, PLAN.child(12))
    for metric in (e.FbarKind, e.FhatKind):
        kind = metric(e.Character(1))
        feats = cover._sample_features(kind, SYS_R, samples, 64)
        clusters, _ = equicont._greedy_clusters(kind, feats, 1.0, 1000,
                                                cover._units_needed(1000, 1.0))
        big = max(clusters, key=len)
        s = len(big)
        reduced.clear()
        assert equicont._cluster_maxima(kind, feats, [big]) == \
            old_kernels.cluster_maxima(kind, feats, [big])
        assert s > 100 and sum(reduced) < 0.05 * s * (s - 1) / 2


_NO_BLOCK_CASES = [
    *[pytest.param(spec, metric(e.Character(1)), id=f"{spec.family}-{metric.__name__}")
      for spec in (e.rotation(e.GOLDEN), e.doubling()) for metric in (e.FbarKind, e.FhatKind)],
    *[pytest.param(e.identity(), metric(f), id=f"identity-{name}-{metric.__name__}")
      for name, f in (
          ("nan-table", e.TableObservable(e.halves(), (0.25, np.nan))),
          ("constant", e.Constant(2.0)),
          ("int-table", e.TableObservable(e.halves(), (0, 3))),  # no pivot bound
      ) for metric in (e.FbarKind, e.FhatKind)],
    pytest.param(e.identity(), e.HammingKind(e.halves()), id="identity-halves"),
    pytest.param(e.doubling(), e.HammingKind(e.circle_intervals([0.0, 0.3, 0.7])),
                 id="doubling-cuts3"),
]


@pytest.mark.parametrize("chunk", [4096, systems._CHUNK_BYTES])
@pytest.mark.parametrize("spec, kind", _NO_BLOCK_CASES)
def test_cluster_maxima_build_no_distance_matrix(monkeypatch, spec, kind, chunk):
    # screened or not, Hamming or fbar/fhat, no farthest pair reads a whole
    # float distance matrix, and every triple is the block's, bit for bit
    def unreachable(*args):
        raise AssertionError("a cluster read built a distance matrix")

    matrix = cover._distance_matrix
    for name, module in list(sys.modules.items()):
        if name.startswith("ergolab") and getattr(module, "_distance_matrix", None) is matrix:
            monkeypatch.setattr(module, "_distance_matrix", unreachable)
    monkeypatch.setattr(systems, "_CHUNK_BYTES", chunk)
    feats, clusters = _cluster_cases(make_system(spec), kind)
    want = _bits(old_kernels.cluster_maxima(kind, feats, clusters))
    assert _bits(equicont._cluster_maxima(kind, feats, clusters)) == want


def _screen_at_lb(kind, feats) -> int:
    """Walk the tiles of feats at r = LB, the largest pivot distance, and
    check that every pair above the diagonal is proved inside or left open,
    none proved outside; the count of pairs proved inside."""
    a = cover._pivot_rows(kind, feats)
    proved = 0
    for rows, cols, inside, i, j, _ in cover._screened_pairs(kind, feats, a, float(a.max())):
        h, w = inside.shape
        above = h * w - (h * (h + 1) // 2 if rows == cols else 0)
        assert np.count_nonzero(inside) + i.size == above, (rows, cols)
        proved += np.count_nonzero(inside)
    return proved


@pytest.mark.parametrize("chunk", [4096, systems._CHUNK_BYTES])
@pytest.mark.parametrize("spec, kind", [
    case for case in _NO_BLOCK_CASES if not isinstance(case.values[1], e.HammingKind)])
def test_no_pair_proved_beyond_the_largest_pivot_distance(monkeypatch, spec, kind, chunk):
    # the farthest pair reduces every pair the screen leaves open at r = LB:
    # that is every pair not proved below LB only if none is proved beyond
    monkeypatch.setattr(systems, "_CHUNK_BYTES", chunk)
    feats, clusters = _cluster_cases(make_system(spec), kind)
    for cluster in clusters:
        if len(cluster) > 1:
            _screen_at_lb(kind, feats[list(cluster)])


def test_no_pair_proved_beyond_lb_on_tight_triangles():
    # rows t * v on a line meet the triangle inequality with equality
    rng = np.random.default_rng(11)
    t = np.concatenate([[0.0], np.sort(rng.random(149)), [1.0]])
    for v in (rng.random(37), np.exp(2j * np.pi * rng.random(37))):
        for kind in (e.FbarKind(None), e.FhatKind(None)):
            assert _screen_at_lb(kind, t[:, None] * v) > 0


@pytest.mark.parametrize("build", [
    lambda samples: e.find_equipartition(SYS_R, e.Character(1), 0.5, samples, 8),
    lambda samples: e.hamming_equipartition(SYS_R, e.halves(), 0.5, samples, 8),
], ids=["fbar", "hamming"])
def test_equipartition_of_no_samples_raises(build):
    with pytest.raises(e.InvalidParameterError, match="need at least one sample"):
        build(np.array([]))
