import tracemalloc

import numpy as np
import pytest

import ergolab as e
from ergolab import cover, equicont, systems
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
    # 12 bytes per entry, and 1 MB for the feature copy and the tiles
    assert peak < 12 * c * c + (1 << 20)
