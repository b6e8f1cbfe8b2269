import itertools
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

import ergolab as e
from ergolab.cover import (
    _CHUNK,
    _ball_members,
    _greedy_cover,
    _mass_units,
    _pairwise_fbar,
    _pairwise_fhat,
    _pairwise_hamming,
)
from ergolab.errors import BudgetExhaustedError
from ergolab.systems import make_system

PLAN = e.RandomPlan(4242)
SYS_R = make_system(e.rotation(e.GOLDEN))
SYS_B = make_system(e.bernoulli_shift(0.5))

WORDS4 = [tuple(w) for w in itertools.product((0, 1), repeat=4)]


def brute_force_min_cover(words, masses, n, eps):
    """Independent oracle: try every center subset in increasing size,
    summing the masses as exact fractions."""
    balls = []
    for w in words:
        ball = [
            j
            for j, v in enumerate(words)
            if sum(a != b for a, b in zip(w, v)) / n < eps
        ]
        balls.append(frozenset(ball))
    for k in range(1, len(words) + 1):
        for combo in itertools.combinations(range(len(words)), k):
            covered = frozenset().union(*(balls[c] for c in combo))
            if sum(Fraction(masses[j]) for j in covered) > 1 - Fraction(eps):
                return k
    raise AssertionError("uncoverable")


def test_exact_cover_against_brute_force():
    masses = [1 / 16] * 16
    dist = list(zip(WORDS4, masses))
    for eps in (0.25, 0.3, 0.5, 0.8):
        expect = brute_force_min_cover(WORDS4, masses, 4, eps)
        assert e.exact_cover_number_small(dist, 4, eps) == expect


def test_exact_cover_known_values():
    dist = [(w, 1 / 16) for w in WORDS4]
    assert e.exact_cover_number_small(dist, 4, 0.25) == 13
    assert e.exact_cover_number_small(dist, 4, 0.3) == 3


def test_exact_cover_nonuniform_masses():
    # one heavy word: a single ball around it may already suffice
    masses = [0.85] + [0.15 / 15] * 15
    expect = brute_force_min_cover(WORDS4, masses, 4, 0.3)
    dist = list(zip(WORDS4, masses))
    assert e.exact_cover_number_small(dist, 4, 0.3) == expect


def _random_masses(rng, k):
    m = rng.random(k)
    return (m / m.sum()).tolist()


_RNG = np.random.default_rng(7)
_TERNARY = list(itertools.product((0, 1, 2), repeat=4))
_TERNARY = [_TERNARY[i] for i in sorted(_RNG.choice(len(_TERNARY), 20, replace=False))]
_NEGATIVE = list(itertools.product((-2, 5), repeat=4))
_SPARSE = list(itertools.product((0, 3, 9), repeat=3))[::2]
_TINY = [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 1, 1), (0, 1, 1, 1)]
_WORDS5 = list(itertools.product((0, 1), repeat=5))
# uniform 16-word subsets on which the greedy cover takes one ball more
# than the optimum, so the branch and bound alone decides the answer
_GAP_A = [_WORDS5[i] for i in (3, 4, 5, 9, 11, 13, 14, 15, 16, 17, 20, 21, 22, 26, 29, 31)]
_GAP_B = [_WORDS5[i] for i in (0, 1, 3, 4, 5, 6, 8, 10, 15, 16, 18, 21, 24, 28, 29, 31)]
_BRUTE_CASES = [
    (_TERNARY, _random_masses(_RNG, 20), 4, 0.3),
    (_TERNARY, _random_masses(_RNG, 20), 4, 0.5),
    (_NEGATIVE, _random_masses(_RNG, 16), 4, 0.3),
    (_NEGATIVE, _random_masses(_RNG, 16), 4, 0.5),
    (_SPARSE, _random_masses(_RNG, 14), 3, 0.3),
    (_SPARSE, _random_masses(_RNG, 14), 3, 0.5),
    # the 1e-30 word lifts ball(0000) strictly above 1/2 (one ball where
    # mass 0 needs two); its unit scale exceeds 2**63
    (_TINY, [0.5, 1e-30, 0.25, 0.25], 4, 0.5),
    (_TINY, [0.5, 0.0, 0.25, 0.25], 4, 0.5),
    (_GAP_A, [1 / 16] * 16, 5, 0.25),
    (_GAP_B, [1 / 16] * 16, 5, 0.3),
    # the optimal two balls are disjoint and cover exactly the least mass
    # above 1 - eps, so the prune's bound meets the target with equality
    ([WORDS4[i] for i in (0, 5, 6, 9, 11, 12, 13, 14)],
     [w / 16 for w in (2, 2, 1, 2, 3, 2, 2, 2)], 4, 0.3),
]


@pytest.mark.parametrize("words, masses, n, eps", _BRUTE_CASES, ids=[
    "ternary-0.3", "ternary-0.5", "negative-0.3", "negative-0.5",
    "sparse-0.3", "sparse-0.5", "tiny-mass", "zero-mass", "greedy-gap-0.25",
    "greedy-gap-0.3", "bound-tie"])
def test_exact_cover_random_masses_against_brute_force(words, masses, n, eps):
    expect = brute_force_min_cover(words, masses, n, eps)
    assert e.exact_cover_number_small(list(zip(words, masses)), n, eps) == expect


def test_exact_cover_word_cap():
    with pytest.raises(e.InstanceTooLargeError):
        e.exact_cover_number_small([((0,), 1 / 4097)] * 4097, 1, 0.5)


def _fraction_units(weights):
    """The Fraction/lcm conversion of float weights to integer units."""
    fracs = [Fraction(float(w)) for w in weights]
    denom = lcm(*(f.denominator for f in fracs))
    return [int(f * denom) for f in fracs], denom


def test_mass_units_equal_fraction_lcm():
    rng = np.random.default_rng(11)
    for size in (1, 2, 17, 300):
        weights = rng.random(size) * 10.0 ** rng.integers(-40, 5, size)
        weights[rng.random(size) < 0.1] = 0.0
        assert _mass_units(weights) == _fraction_units(weights)
    assert _mass_units([0.1, 1e-30, 0.5]) == _fraction_units([0.1, 1e-30, 0.5])


def test_exact_cover_validation():
    with pytest.raises(e.InvalidParameterError):
        e.exact_cover_number_small([(w, 0.01) for w in WORDS4], 4, 0.3)
    with pytest.raises(e.InvalidParameterError):
        e.exact_cover_number_small([], 4, 0.3)


def test_greedy_upper_bounds_exact():
    words = [e.NameWord(w, 2) for w in WORDS4]
    kind = e.HammingKind(e.cylinder([0], 2))
    weights = [1 / 16] * 16
    for eps in (0.25, 0.3, 0.5):
        greedy = e.estimate_cover_number(words, 4, eps, kind, weights=weights)
        exact = e.exact_cover_number_small(list(zip(WORDS4, weights)), 4, eps)
        assert greedy.count >= exact


def test_greedy_strict_mass_boundary():
    """12/16 = 0.75 is not > 0.75: boundary ties resolve to not covered."""
    words = [e.NameWord(w, 2) for w in WORDS4]
    kind = e.HammingKind(e.cylinder([0], 2))
    res = e.estimate_cover_number(words, 4, 0.25, kind, weights=[1 / 16] * 16)
    assert res.count == 13
    assert res.covered_mass > 0.75


def test_greedy_deterministic_and_budget():
    samples = SYS_R.sample_measure(200, PLAN)
    kind = e.HammingKind(e.halves())
    r1 = e.estimate_cover_number(samples, 64, 0.1, kind, system=SYS_R)
    r2 = e.estimate_cover_number(samples, 64, 0.1, kind, system=SYS_R)
    assert r1.centers == r2.centers
    with pytest.raises(e.BudgetExhaustedError) as exc:
        e.estimate_cover_number(samples, 64, 0.1, kind, system=SYS_R, max_centers=1)
    assert exc.value.covered_mass is not None


def test_greedy_centers_pairwise_separated():
    # greedy picks centers among uncovered samples only -> pairwise >= eps
    samples = SYS_R.sample_measure(300, PLAN)
    kind = e.HammingKind(e.halves())
    res = e.estimate_cover_number(samples, 128, 0.15, kind, system=SYS_R)
    D = e.pairwise_distances(kind, SYS_R, samples, 128)
    for a, b in itertools.combinations(res.centers, 2):
        assert D[a, b] >= 0.15


def _naive_hamming(labels):
    return (labels[:, None, :] != labels[None, :, :]).mean(axis=2)


def test_pairwise_hamming_matches_naive():
    rng = np.random.default_rng(0)
    cases = [
        rng.integers(0, 3, size=(40, 57)),
        rng.integers(0, 16, size=(33, 101)),
        rng.integers(0, 5, size=(1, 9)),  # a single row
        2 * rng.integers(0, 2, size=(20, 31)),  # symbol 1 never occurs
    ]
    for labels in cases:
        D = _pairwise_hamming(labels)
        assert np.array_equal(D, _naive_hamming(labels))
        assert np.array_equal(D, D.T) and np.all(np.diag(D) == 0)


def test_pairwise_hamming_binary_odd_length():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, size=(130, 101))
    assert np.array_equal(_pairwise_hamming(labels), _naive_hamming(labels))


def _full_rows(values, reduce):
    """Unmirrored reference: every row against all rows, one row at a time."""
    return np.concatenate(
        [reduce(np.abs(values[i : i + 1, None, :] - values[None, :, :]))
         for i in range(len(values))]
    )


def test_pairwise_fbar_fhat_tiles_match_full_rows():
    rng = np.random.default_rng(2)
    m, n = 2 * _CHUNK + 5, 37
    inv = 1.0 / np.arange(1, n + 1)
    for values in (np.exp(2j * np.pi * rng.random((m, n))), rng.normal(size=(m, n))):
        assert np.array_equal(
            _pairwise_fbar(values), _full_rows(values, lambda g: g.mean(axis=2))
        )
        assert np.array_equal(
            _pairwise_fhat(values),
            _full_rows(values, lambda g: (np.cumsum(g, axis=2) * inv).max(axis=2)),
        )


def test_pairwise_fbar_fhat_match_scalar():
    f = e.Character(1)
    samples = SYS_R.sample_measure(10, PLAN)
    Db = _pairwise_fbar(np.stack([f.orbit_values(SYS_R, x, 16) for x in samples]))
    Dh = _pairwise_fhat(np.stack([f.orbit_values(SYS_R, x, 16) for x in samples]))
    for i in range(10):
        for j in range(i):
            assert Db[i, j] == pytest.approx(e.fbar_n(SYS_R, f, samples[i], samples[j], 16))
            assert Dh[i, j] == pytest.approx(e.fhat_n(SYS_R, f, samples[i], samples[j], 16))
    assert np.all(Dh >= Db - 1e-15)  # running max dominates the mean


def test_ball_member_strict():
    a = e.NameWord((0, 0, 0, 0), 2)
    b = e.NameWord((1, 0, 0, 0), 2)
    kind = e.HammingKind(e.cylinder([0], 2))
    assert not e.ball_member(a, b, 4, 0.25, kind)  # distance exactly 0.25
    assert e.ball_member(a, b, 4, 0.26, kind)


def test_complexity_curve_and_classify():
    curve = e.complexity_curve(
        SYS_R, e.HammingKind(e.halves()), [16, 64, 256], 0.2, 300, PLAN
    )
    assert e.classify_boundedness(curve) == "bounded"
    for p in curve.points:
        assert p.k_lo <= p.k_est <= p.k_hi
        assert not p.budget_hit
    rows = e.curve_csv_rows(curve)
    assert rows[0] == ["n", "K_est", "K_lo", "K_hi", "eps", "samples", "seed", "budget_hit"]
    assert len(rows) == 4


def test_classify_ceiling_not_bounded():
    # every ball a singleton: K pinned at the least k with k/600 > 0.9
    ests = [527, 540, 540, 540]
    points = tuple(
        e.CurvePoint(n=n, k_est=k, k_lo=k, k_hi=k, budget_hit=False, covered_mass=0.9)
        for n, k in zip([8, 16, 32, 64], ests)
    )
    curve = e.ComplexityCurve(
        points=points, eps=0.1, metric_label="hamming", sample_count=600, seed=42
    )
    assert e.classify_boundedness(curve) == "inconclusive"
    assert e.classify_boundedness(ests) == "bounded"  # no sample count: old rule


def test_classify_growing_and_inconclusive():
    assert e.classify_boundedness([5, 5, 6, 5]) == "bounded"
    assert e.classify_boundedness([10, 20, 40, 80]) == "growing"
    assert e.classify_boundedness([10, 40, 20, 80]) == "inconclusive"
    with pytest.raises(e.InvalidParameterError):
        e.classify_boundedness([1, 2])


def test_curve_monotone_under_eps():
    # smaller radius can only need more balls (same samples/seed)
    samples = SYS_R.sample_measure(200, PLAN)
    kind = e.HammingKind(e.halves())
    k_small = e.estimate_cover_number(samples, 64, 0.05, kind, system=SYS_R).count
    k_big = e.estimate_cover_number(samples, 64, 0.3, kind, system=SYS_R).count
    assert k_small >= k_big


def test_budget_hit_recorded_not_fatal():
    curve = e.complexity_curve(
        SYS_B,
        e.HammingKind(e.cylinder([0], 2)),
        [8, 16, 32],
        0.1,
        150,
        PLAN,
        max_centers=20,
    )
    assert [p.k_est for p in curve.points] == [20, 20, 20]
    assert all(p.budget_hit for p in curve.points)
    # a tail held flat by the center budget is no evidence of boundedness
    assert e.classify_boundedness(curve) == "inconclusive"


def _argmax_greedy(balls, counts, eps, max_centers):
    """Reference: the previous engine, an argmax lazy greedy over a bool
    ball matrix with float gain bounds and a 1e-9 slack."""

    def exceeds(covered, total):
        feps = Fraction(eps)
        return covered * feps.denominator > total * (feps.denominator - feps.numerator)

    m = balls.shape[0]
    total = int(counts.sum())
    uncovered = np.ones(m, dtype=bool)
    gains = balls @ counts.astype(np.float64)
    covered = 0
    centers = []
    while not exceeds(covered, total):
        masked = np.where(uncovered, gains, -1.0)
        while True:
            i = int(np.argmax(masked))
            if masked[i] < 0:
                raise BudgetExhaustedError(
                    "no uncovered candidate can extend the cover",
                    centers=centers,
                    covered_mass=covered / total,
                )
            true_gain = int(counts[balls[i] & uncovered].sum())
            if true_gain >= masked[i] - 1e-9:
                break
            gains[i] = true_gain
            masked[i] = true_gain
        if len(centers) >= max_centers:
            raise BudgetExhaustedError(
                f"center budget {max_centers} exhausted",
                centers=centers,
                covered_mass=covered / total,
            )
        centers.append(i)
        covered += true_gain
        uncovered &= ~balls[i]
    return centers, covered, total


def _outcome(greedy, *args):
    try:
        return greedy(*args)
    except BudgetExhaustedError as exc:
        return str(exc), exc.centers, exc.covered_mass


def test_heap_greedy_matches_argmax_greedy():
    rng = np.random.default_rng(5)
    paths = set()
    for trial in range(150):
        m = int(rng.integers(1, 60))
        x = rng.random((m, int(rng.integers(1, 4))))
        D = np.abs(x[:, None, :] - x[None, :, :]).max(axis=2)  # symmetric, 0 diagonal
        radius = float(rng.choice([0.05, 0.2, 0.5, 1.5]))
        mode = trial % 3
        if mode == 0:
            counts = np.ones(m, dtype=np.int64)
        elif mode == 1:  # bootstrap counts, zeros included
            counts = np.bincount(rng.integers(0, m, m), minlength=m)
        else:  # integer weights, as int64 or as Python ints in an object array
            counts = rng.integers(0, 10, m)
            counts[0] += 1  # positive total
            if trial % 2:
                counts = counts.astype(object)
        eps = float(rng.choice([0.0, 0.1, 0.3, 0.5]))  # 0: cover never suffices
        budget = int(rng.integers(0, 4)) if trial % 4 == 0 else m
        balls = D < radius
        members = _ball_members(balls)
        want = _outcome(_argmax_greedy, balls, counts, eps, budget)
        gains = [sum(counts[j] for j in mem) for mem in members]
        got = _outcome(_greedy_cover, members, counts.tolist(), gains, eps, budget)
        assert got == want
        paths.add(want[0] if isinstance(want[0], str) else "covered")
    assert any("budget" in p for p in paths)
    assert "no uncovered candidate can extend the cover" in paths
    assert "covered" in paths
