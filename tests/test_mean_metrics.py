import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergolab as e
from ergolab.systems import make_system

PLAN = e.RandomPlan(2024)
SYS_R = make_system(e.rotation(e.GOLDEN))
SYS_B = make_system(e.bernoulli_shift(0.5))


def test_hamming_avg_basic():
    a = e.NameWord((0, 1, 0, 1), 2)
    b = e.NameWord((0, 1, 1, 1), 2)
    assert e.hamming_avg(a, b) == 0.25
    assert e.hamming_avg(a, a) == 0.0


def test_hamming_length_mismatch():
    a = e.NameWord((0, 1), 2)
    b = e.NameWord((0, 1, 0), 2)
    with pytest.raises(e.LengthMismatchError):
        e.hamming_avg(a, b)


def test_fbar_constant_observable_zero():
    f = e.Constant(3.5)
    assert e.fbar_n(SYS_R, f, 0.1, 0.9, 100) == 0.0
    assert e.fhat_n(SYS_R, f, 0.1, 0.9, 100) == 0.0


def test_fbar_rotation_character_closed_form():
    """|e^{2pi i x} - e^{2pi i y}| = 2|sin(pi(x-y))|, n-independent for rotations."""
    f = e.Character(1)
    x, y = 0.1, 0.35
    expect = 2 * abs(np.sin(np.pi * (x - y)))
    for n in (1, 7, 500):
        assert e.fbar_n(SYS_R, f, x, y, n) == pytest.approx(expect, abs=1e-12)


def test_fhat_is_running_max():
    f = e.CellIndicator(e.halves(), 0)
    x, y = 0.0, 0.26
    means = e.fbar_prefix_means(SYS_R, f, x, y, 200)
    assert e.fhat_n(SYS_R, f, x, y, 200) == means.max()
    # monotone in n by construction
    hats = [e.fhat_n(SYS_R, f, x, y, n) for n in (1, 5, 25, 125)]
    assert all(b >= a for a, b in zip(hats, hats[1:]))


def test_fbar_fhat_equal_cover_kernel_bitwise():
    # fbar_n and fhat_n are the entries of the covers' distance matrices, and
    # fhat_n is the maximum of fbar_prefix_means, at every ordered pair
    samples = SYS_R.sample_measure(60, e.RandomPlan(3))
    f, n = e.Character(1), 64
    for kind, read in ((e.FbarKind(f), e.fbar_n), (e.FhatKind(f), e.fhat_n)):
        mat = e.pairwise_distances(kind, SYS_R, samples, n)
        got = np.array([[read(SYS_R, f, x, y, n) for y in samples] for x in samples])
        assert np.array_equal(got, mat)
    for x, y in ((samples[0], samples[1]), (samples[7], samples[42])):
        assert e.fhat_n(SYS_R, f, x, y, n) == e.fbar_prefix_means(SYS_R, f, x, y, n).max()


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_metric_axioms_random_triples(seed):
    plan = e.RandomPlan(seed)
    x, y, z = SYS_R.sample_measure(3, plan)
    f = e.Character(1)
    n = 32
    dxy = e.fbar_n(SYS_R, f, x, y, n)
    dyx = e.fbar_n(SYS_R, f, y, x, n)
    dxz = e.fbar_n(SYS_R, f, x, z, n)
    dzy = e.fbar_n(SYS_R, f, z, y, n)
    assert dxy == dyx
    assert dxy <= dxz + dzy + 1e-12
    assert e.fbar_n(SYS_R, f, x, x, n) == 0.0


def test_hamming_triangle_on_shift():
    part = e.cylinder([0], 2)
    xs = SYS_B.sample_measure(3, PLAN)
    words = [e.name_word(SYS_B, part, x, 64) for x in xs]
    d01 = e.hamming_avg(words[0], words[1])
    d02 = e.hamming_avg(words[0], words[2])
    d21 = e.hamming_avg(words[2], words[1])
    assert d01 <= d02 + d21 + 1e-15


def test_limit_estimate_converged_flag():
    est = e.limit_estimate([0.5, 0.501, 0.5005], [10, 100, 1000], tolerance=0.01)
    assert est.converged
    assert est.value == 0.5005
    est2 = e.limit_estimate([0.1, 0.3, 0.6], [10, 100, 1000], tolerance=0.01)
    assert not est2.converged
    assert est2.spread == pytest.approx(0.5)


def test_limit_estimate_validation():
    with pytest.raises(e.InvalidParameterError):
        e.limit_estimate([1.0, 2.0], [10, 100])
    with pytest.raises(e.InvalidParameterError):
        e.limit_estimate([1.0, 2.0, 3.0], [10, 100, 100])
    with pytest.raises(e.LengthMismatchError):
        e.limit_estimate([1.0, 2.0], [10, 100, 1000])


_EP = e.EquiPartition(clusters=((0, 1),), eps=0.5, covered_mass=1.0, horizon=16,
                      diameter_bound=0.0)
# every entry point that reads a horizon ladder, called with the ladder alone
_LADDER_READERS = {
    "complexity_curve": lambda h: e.complexity_curve(
        SYS_R, e.HammingKind(e.halves()), h, 0.2, 10, PLAN),
    "classify_almost_periodic": lambda h: e.classify_almost_periodic(
        SYS_R, e.Character(1), h, 0.5, 10, PLAN),
    "limit_estimate": lambda h: e.limit_estimate(lambda n: 0.0, h),
    "verify_equipartition": lambda h: e.verify_equipartition(
        _EP, SYS_R, e.Character(1), [0.1, 0.2], h),
}


@pytest.mark.parametrize("horizons", [[8, 16], [64, 16, 4]])
@pytest.mark.parametrize("reader", sorted(_LADDER_READERS))
def test_every_ladder_reader_rejects_a_bad_ladder_alike(reader, horizons):
    with pytest.raises(e.InvalidParameterError) as info:
        _LADDER_READERS[reader](horizons)
    assert str(info.value) == "need >= 3 strictly increasing horizons"


@pytest.mark.parametrize("horizons", [[0, 1, 2], [-4, 2, 8]])
@pytest.mark.parametrize("reader", sorted(_LADDER_READERS))
def test_every_ladder_reader_rejects_a_horizon_below_1(reader, horizons):
    with pytest.raises(e.InvalidParameterError) as info:
        _LADDER_READERS[reader](horizons)
    assert str(info.value) == "horizon must be >= 1"


def test_geometric_horizons():
    assert e.geometric_horizons(4096) == (256, 1024, 4096)
    hs = e.geometric_horizons(10)
    assert len(hs) == 3 and hs[-1] == 10
    for n in range(3, 2049):
        hs = e.geometric_horizons(n)
        assert len(hs) == 3 and hs[-1] == n and 1 <= hs[0] < hs[1] < hs[2]
        if n >= 16:  # the ladders that goldens and benchmarks use
            assert hs == (n // 16, n // 4, n)
    assert [e.geometric_horizons(n) for n in (3, 4, 7, 8, 15)] == [
        (1, 2, 3), (1, 2, 4), (1, 3, 7), (2, 4, 8), (3, 7, 15)]
    for n in (-1, 0, 1, 2):
        with pytest.raises(e.InvalidParameterError):
            e.geometric_horizons(n)


def test_default_tolerance_floor():
    assert e.default_tolerance(10**8) == 0.005
    assert e.default_tolerance(100) == pytest.approx(0.2)


def test_birkhoff_average_rotation_hamming():
    """Equidistribution: names of x and x+t disagree with density 2t (small t)."""
    t = 0.01
    w1 = e.name_word(SYS_R, e.halves(), 0.0, 200000)
    w2 = e.name_word(SYS_R, e.halves(), t, 200000)
    assert e.hamming_avg(w1, w2) == pytest.approx(2 * t, abs=0.002)
