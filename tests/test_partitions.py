import numpy as np
import pytest

import ergolab as e
from ergolab.systems import make_system

PLAN = e.RandomPlan(99)
SYS_R = make_system(e.rotation(e.GOLDEN))


def test_halves_classify():
    part = e.halves()
    assert e.classify(SYS_R, part, 0.1) == 0
    assert e.classify(SYS_R, part, 0.6) == 1
    # boundary points fall into the right-open cell
    assert e.classify(SYS_R, part, 0.5) == 1
    assert e.classify(SYS_R, part, 0.0) == 0


def test_circle_intervals_sorted_and_wrapped():
    part = e.circle_intervals([0.7, 0.2, 1.2])  # 1.2 wraps to 0.2, deduped order
    assert part.cuts == (0.2, 0.2 % 1.0, 0.7) or len(part.cuts) == 3
    assert e.classify(SYS_R, part, 0.1) == 2  # wraps into the last cell


def test_circle_intervals_fold_a_cut_at_one_to_zero():
    """-1e-20 % 1.0 rounds up to 1.0; the cut is at 0.0, inside [0, 1)."""
    assert -1e-20 % 1.0 == 1.0
    part = e.circle_intervals([-1e-20, 0.5])
    assert part.cuts == (0.0, 0.5)
    assert [e.classify(SYS_R, part, x) for x in (0.0, 0.25, 0.5, 0.75)] == [0, 0, 1, 1]


def test_cylinder_labels_little_endian():
    sys_b = make_system(e.bernoulli_shift(0.5))
    part = e.cylinder([0, 1], 2)
    x = sys_b.point(symbols=(1, 0, 1, 1), seed=5)
    # label = s(0) + 2*s(1)
    assert e.classify(sys_b, part, x) == 1
    assert e.classify(sys_b, part, sys_b.step(x)) == 0 + 2 * 1


def test_classify_incompatible():
    with pytest.raises(e.IncompatiblePartitionError):
        e.classify(SYS_R, e.cylinder([0], 2), 0.3)
    sys_b = make_system(e.bernoulli_shift(0.5))
    x = sys_b.sample_measure(1, PLAN)[0]
    with pytest.raises(e.IncompatiblePartitionError):
        e.classify(sys_b, e.halves(), x)


def test_rotation_name_word():
    sys_r = make_system(e.rotation(0.25))
    w = e.name_word(sys_r, e.halves(), 0.0, 8)
    assert w.symbols == (0, 0, 1, 1) * 2
    assert w.cell_count == 2


def test_doubling_name_is_binary_expansion():
    sys_d = make_system(e.doubling())
    w = e.name_word(sys_d, e.halves(), 3 / 8, 4)
    assert w.symbols == (0, 1, 1, 0)


def test_name_fast_path_matches_fallback():
    """Vectorized circle naming equals step-classify naming."""
    sys_r = make_system(e.rotation(e.GOLDEN))
    part = e.circle_intervals([0.0, 0.3, 0.77])
    x = 0.123
    fast = e.name_symbols(sys_r, part, x, 50)
    slow = [e.classify(sys_r, part, sys_r.step(x, i)) for i in range(50)]
    np.testing.assert_array_equal(fast, slow)


def test_shift_name_fast_path():
    sys_b = make_system(e.bernoulli_shift(0.5))
    x = sys_b.sample_measure(1, PLAN)[0]
    part = e.cylinder([0, 2], 2)
    fast = e.name_symbols(sys_b, part, x, 30)
    slow = [e.classify(sys_b, part, sys_b.step(x, i)) for i in range(30)]
    np.testing.assert_array_equal(fast, slow)


def test_trivial_partition_names():
    sys_r = make_system(e.rotation(0.1))
    w = e.name_word(sys_r, e.trivial(), 0.5, 10)
    assert w.symbols == (0,) * 10


def test_refine_rotation_cell_count():
    """N-fold refinement of halves under rotation has 2N cells (irrational angle)."""
    sys_r = make_system(e.rotation(e.GOLDEN))
    for N in (2, 3, 5):
        ref = e.refine(e.halves(), sys_r, N)
        assert ref.cell_count == 2 * N


def test_refine_separates_names():
    # points in the same refined cell share their length-N name
    sys_r = make_system(e.rotation(e.GOLDEN))
    N = 4
    ref = e.refine(e.halves(), sys_r, N)
    pts = sys_r.sample_measure(300, PLAN)
    labels = [e.classify(sys_r, ref, float(x)) for x in pts]
    names = [tuple(e.name_symbols(sys_r, e.halves(), float(x), N)) for x in pts]
    by_label = {}
    for lab, nm in zip(labels, names):
        by_label.setdefault(lab, set()).add(nm)
    assert all(len(s) == 1 for s in by_label.values())


def test_refine_doubling_dyadic_cuts():
    sys_d = make_system(e.doubling())
    ref = e.refine(e.halves(), sys_d, 3)
    assert ref.cell_count == 8  # dyadic intervals of length 1/8


def test_refine_cylinder_shift():
    sys_b = make_system(e.bernoulli_shift(0.5))
    ref = e.refine(e.cylinder([0], 2), sys_b, 4)
    assert ref.coords == (0, 1, 2, 3)
    assert ref.cell_count == 16


def test_refine_unsupported():
    sys_o = make_system(e.odometer(2))
    with pytest.raises(e.UnsupportedRefinementError):
        e.refine(e.halves(), sys_o, 2)
    for spec in (e.sturmian(e.GOLDEN), e.bernoulli_shift(0.5)):
        with pytest.raises(e.UnsupportedRefinementError,
                           match=f"not supported for {spec.family}$"):
            e.refine(e.halves(), make_system(spec), 2)


def _ladder_cuts(partition, system, N):
    """Reference: the refined cuts from the per-family ladder written inline."""
    family = system.spec.family
    cuts = set()
    for c in partition.cuts:
        for i in range(N):
            if family == "rotation":
                cuts.add((c - i * system.theta) % 1.0)
            elif family == "identity":
                cuts.add(c)
            elif family == "doubling":
                for j in range(2**i):
                    cuts.add((c + j) / 2**i)
    merged = []
    for c in sorted(cuts):
        if not merged or c - merged[-1] > 1e-12:
            merged.append(c)
    if len(merged) > 1 and (merged[0] + 1.0) - merged[-1] <= 1e-12:
        merged.pop()
    return tuple(merged)


@pytest.mark.parametrize("spec", [e.rotation(e.GOLDEN), e.rotation(0.25),
                                  e.rotation(0.0), e.identity(), e.doubling()])
def test_refine_cuts_match_family_ladder(spec):
    system = make_system(spec)
    for part in (e.halves(), e.circle_intervals([0.0, 0.3, 0.7]),
                 e.circle_intervals([0.1, 0.55])):
        assert e.refine(part, system, 1) == part
        for N in range(2, 7):
            assert e.refine(part, system, N).cuts == _ladder_cuts(part, system, N)


def test_partition_json_roundtrip():
    for part in [e.halves(), e.cylinder([0, 3], 3), e.trivial()]:
        assert e.partition_from_json(part.to_json()) == part


def test_name_length_validation():
    sys_r = make_system(e.rotation(0.1))
    with pytest.raises(e.InvalidParameterError):
        e.name_word(sys_r, e.halves(), 0.0, 0)
