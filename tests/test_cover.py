import itertools
import re
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

import ergolab as e
import old_kernels
from ergolab import cover, observables, systems
from ergolab.cover import (
    FbarKind,
    FhatKind,
    HammingKind,
    _agreements,
    _ball_matrix,
    _components,
    _distance_matrix,
    _distance_pairs,
    _greedy_cover,
    _mass_units,
    _sample_features,
    _units_needed,
)
from ergolab.errors import BudgetExhaustedError, InvalidParameterError
from ergolab.report import config_from_json, run_experiment
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


def test_exact_cover_deep_instance():
    # singleton balls: the cover takes 1946 of the 2048 words, deeper than
    # Python's recursion limit; the sorted-mass bound meets the greedy count
    words = list(itertools.product((0, 1), repeat=11))
    assert e.exact_cover_number_small([(w, 1 / 2048) for w in words], 11, 0.05) == 1946


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
    with pytest.raises(InvalidParameterError):
        e.estimate_cover_number(samples, 64, 0.1, kind, system=SYS_R, max_centers=-1)


@pytest.mark.parametrize("eps", [0.0, -0.1, float("nan"), float("inf")])
def test_non_finite_or_nonpositive_radius_rejected(eps):
    samples = SYS_R.sample_measure(20, PLAN)
    kind = e.HammingKind(e.halves())
    word = e.NameWord((0, 1), 2)
    with pytest.raises(InvalidParameterError):
        e.estimate_cover_number(samples, 8, eps, kind, system=SYS_R)
    with pytest.raises(InvalidParameterError):
        e.complexity_curve(SYS_R, kind, [4, 8, 16], eps, 20, PLAN)
    with pytest.raises(InvalidParameterError):
        e.ball_member(word, word, 2, eps, kind)


@pytest.mark.parametrize("weights, message", [
    ([0.5, 0.5], "need one weight per sample, got 2 for 4"),
    ([0.25] * 5, "need one weight per sample, got 5 for 4"),
    ([0.52, 0.25, 0.25, -0.02], "weights must be finite, nonnegative and not all 0"),
    ([0.5, 0.5, 0.0, float("nan")], "weights must be finite, nonnegative and not all 0"),
    ([0.5, 0.5, 0.0, float("inf")], "weights must be finite, nonnegative and not all 0"),
    ([0.0] * 4, "weights must be finite, nonnegative and not all 0"),
])
def test_bad_weights_rejected(weights, message):
    words = [e.NameWord(w, 2) for w in [(0, 0), (0, 1), (1, 0), (1, 1)]]
    kind = e.HammingKind(e.cylinder([0], 2))
    with pytest.raises(InvalidParameterError, match=re.escape(message)):
        e.estimate_cover_number(words, 2, 0.3, kind, weights=weights)


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


HAM = HammingKind(None)  # the kernel reads only the kind's type


def test_pairwise_hamming_matches_naive():
    rng = np.random.default_rng(0)
    cases = [
        rng.integers(0, 3, size=(40, 57)),
        rng.integers(0, 16, size=(33, 101)),
        rng.integers(0, 5, size=(1, 9)),  # a single row
        2 * rng.integers(0, 2, size=(20, 31)),  # symbol 1 never occurs
    ]
    for labels in cases:
        D = _distance_matrix(HAM, labels)
        assert np.array_equal(D, _naive_hamming(labels))
        assert np.array_equal(D, old_kernels.pairwise_hamming(labels))
        assert np.array_equal(D, _distance_matrix(HAM, labels.astype(np.uint8)))
        assert np.array_equal(D, D.T) and np.all(np.diag(D) == 0)


def test_pairwise_hamming_binary_odd_length():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, size=(130, 101))
    D = _distance_matrix(HAM, labels)
    assert np.array_equal(D, _naive_hamming(labels))
    assert np.array_equal(D, old_kernels.pairwise_hamming(labels))


def _full_rows(values, reduce):
    """Unmirrored reference: every row against all rows, one row at a time."""
    return np.concatenate(
        [reduce(np.abs(values[i : i + 1, None, :] - values[None, :, :]))
         for i in range(len(values))]
    )


def test_pairwise_fbar_fhat_tiles_match_full_rows():
    rng = np.random.default_rng(2)
    m, n = 69, 37  # two old 32-row tiles and a partial one
    for values in (np.exp(2j * np.pi * rng.random((m, n))), rng.normal(size=(m, n))):
        for kind, reduce in ((FbarKind(None), old_kernels.fbar_reduce),
                             (FhatKind(None), old_kernels.fhat_reduce)):
            D = _distance_matrix(kind, values)
            assert np.array_equal(D, _full_rows(values, reduce))
            assert np.array_equal(D, old_kernels.distance_matrix(kind, values))


def test_pairwise_fbar_fhat_match_scalar():
    f = e.Character(1)
    samples = SYS_R.sample_measure(10, PLAN)
    values = np.stack([f.orbit_values(SYS_R, x, 16) for x in samples])
    Db = _distance_matrix(FbarKind(f), values)
    Dh = _distance_matrix(FhatKind(f), values)
    for i in range(10):
        for j in range(i):
            assert Db[i, j] == pytest.approx(e.fbar_n(SYS_R, f, samples[i], samples[j], 16))
            assert Dh[i, j] == pytest.approx(e.fhat_n(SYS_R, f, samples[i], samples[j], 16))
    assert np.all(Dh >= Db - 1e-15)  # running max dominates the mean


@pytest.mark.parametrize("chunk_bytes", [1 << 12, systems._CHUNK_BYTES, 1 << 40])
def test_distance_matrix_equals_old_tiles(monkeypatch, chunk_bytes):
    # the old kernels at their fixed 32/16-row tiles are the reference, read
    # before the byte budget changes; at 1 << 40 every matrix is one block
    rng = np.random.default_rng(3)
    for m in (1, 2, 33, 65, 301):
        for n in (1, 2, 16, 37, 256):
            if chunk_bytes == 1 << 40 and m * m * n > 10**7:
                continue  # one 301 x 301 x 256 complex gap block is ~0.4 GB
            for values in (np.exp(2j * np.pi * rng.random((m, n))),
                           rng.normal(size=(m, n))):
                for kind in (FbarKind(None), FhatKind(None)):
                    want = old_kernels.distance_matrix(kind, values)
                    with monkeypatch.context() as mp:
                        mp.setattr(systems, "_CHUNK_BYTES", chunk_bytes)
                        got = _distance_matrix(kind, values)
                    assert np.array_equal(got, want), (m, n, kind.label)


def test_hamming_labels_narrowed():
    halves = HammingKind(e.halves())
    feats = _sample_features(halves, SYS_R, SYS_R.sample_measure(5, PLAN), 8)
    assert feats.dtype == np.uint8 and feats.shape == (5, 8)
    empty = _sample_features(halves, SYS_R, [], 8)
    assert empty.shape == (0, 8) and empty.dtype == np.uint8
    assert _distance_matrix(halves, empty).shape == (0, 0)
    # 300 cells: labels >= 256 need uint16, and the distances do not change
    cells = HammingKind(e.circle_intervals(np.arange(300) / 300))
    samples = SYS_R.sample_measure(40, PLAN)
    labels = _sample_features(cells, SYS_R, samples, 50)
    assert labels.dtype == np.uint16 and labels.max() >= 256
    wide = e.name_rows(SYS_R, cells.partition, samples, 50)
    assert wide.dtype == np.int64 and np.array_equal(labels, wide)
    D = _distance_matrix(cells, labels)
    assert np.array_equal(D, old_kernels.pairwise_hamming(wide))
    assert np.array_equal(D, _naive_hamming(wide))
    words = [e.NameWord(tuple(int(v) for v in row), 300) for row in wide]
    assert _sample_features(cells, None, words, 50).dtype == np.uint16


@pytest.mark.parametrize("chunk_bytes", [64, systems._CHUNK_BYTES])
@pytest.mark.parametrize("m", [0, 1, 2, 31, 300])
def test_agreements_equal_plane_loop(monkeypatch, chunk_bytes, m):
    # 64 bytes gives blocks of m plane columns: several blocks once n > m
    # (two symbols) or n > m / L; the default gives one block at m <= 31
    monkeypatch.setattr(systems, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(m)
    for n in sorted({1, 2, 7, m - 1, m, m + 1, 3 * m} - {-1, 0}):
        for alphabet in (1, 2, 3, 16, 300):
            if alphabet == 300 and m * n > 10**4:
                continue  # the old loop's 300 products take seconds at m = 300
            wide = rng.integers(0, alphabet, size=(m, n))
            narrow = wide.astype(np.min_scalar_type(alphabet - 1))
            assert narrow.dtype == (np.uint16 if alphabet == 300 else np.uint8)
            want = old_kernels.agreements(wide)
            for labels in (narrow, wide):  # the oracle's labels are int64
                got = _agreements(labels)
                assert got.dtype == np.float32 and np.array_equal(got, want), (n, alphabet)
            # added in place to the counts of other columns
            head = rng.integers(0, alphabet, size=(m, 5))
            agree = old_kernels.agreements(head)
            assert _agreements(narrow, agree) is agree
            assert np.array_equal(agree, old_kernels.agreements(np.hstack([head, wide])))


SYS_B16 = make_system(e.bernoulli_shift(0.5, 4))
_LADDER = [1, 2, 3, 8, 40]


@pytest.mark.parametrize("system, kind, eps", [
    # eps is the distance of 1 of 2, 4 of 8 and 20 of 40 disagreements
    (SYS_R, HammingKind(e.halves()), 0.5),
    # ... of 1 of 3 disagreements, on doubling's integer label read
    (make_system(e.doubling()), HammingKind(e.circle_intervals([0.0, 0.3, 0.7])), 1 / 3),
    # ... of 7 of 8 and 35 of 40 disagreements, over 16 symbols
    (SYS_B16, HammingKind(e.cylinder([0, 1], 4)), 0.875),
    (SYS_R, FbarKind(e.Character(1)), 0.3),
    (make_system(e.doubling()), FhatKind(e.Character(1)), 0.5),
], ids=["hamming2", "hamming3", "hamming16", "fbar", "fhat"])
def test_curve_ladder_balls_equal_fresh_reads(monkeypatch, system, kind, eps):
    # every rung's balls, built from the one read at the top horizon, are
    # the balls of a fresh read at that horizon
    seen = []
    greedy = cover._greedy_cover

    def recording(balls, *args):
        seen.append(balls.copy())
        return greedy(balls, *args)

    monkeypatch.setattr(cover, "_greedy_cover", recording)
    plan = e.RandomPlan(31)
    e.complexity_curve(system, kind, _LADDER, eps, 70, plan)
    samples = system.sample_measure(70, plan.child(cover._TAG_CURVE_SAMPLES))
    assert len(seen) == len(_LADDER)
    on_boundary = []
    for n, balls in zip(_LADDER, seen):
        feats = _sample_features(kind, system, samples, n)
        D = _distance_matrix(kind, feats)
        assert np.array_equal(balls, D < eps), n
        on_boundary.append(bool(np.any(D == eps)))
    # a pair at distance exactly eps is met, and left out of its ball
    assert any(on_boundary) or not isinstance(kind, HammingKind)


@pytest.mark.parametrize("target, reader", [
    ({"partition": {"kind": "circle_intervals", "cuts": [0.0, 0.5]}}, "name_rows"),
    ({"observable": {"kind": "character", "k": 1}}, "orbit_rows"),
])
def test_complexity_run_reads_features_once(monkeypatch, target, reader):
    reads = []
    if reader == "name_rows":
        read = cover.name_rows
        monkeypatch.setattr(cover, "name_rows", lambda system, part, samples, n: (
            reads.append((len(samples), n)) or read(system, part, samples, n)))
    else:
        read = observables.Character.orbit_rows
        monkeypatch.setattr(observables.Character, "orbit_rows", lambda f, system, samples, n: (
            reads.append((len(samples), n)) or read(f, system, samples, n)))
    cfg = {"task": "complexity", "system": {"family": "rotation", "params": {"theta": 0.1}},
           "target": target,
           "params": {"eps": 0.2, "horizons": [4, 16, 64], "samples": 30}, "seed": 3}
    bundle = run_experiment(config_from_json(cfg))
    assert [p.n for p in bundle.curves[0].points] == [4, 16, 64]
    assert reads == [(30, 64)]


# ---------------------------------------------------------------------------
# Ball matrices: the pivot screen decides exactly as the whole matrix


SYS_D = make_system(e.doubling())
_CELLS = e.circle_intervals([0.0, 0.3, 0.7])


def _entry_eps(D):
    """eps at a middle positive entry of D and one ulp to either side."""
    vals = np.sort(D[D > 0])
    entry = vals[len(vals) // 2]
    return [entry, np.nextafter(entry, 0.0), np.nextafter(entry, np.inf)]


def _assert_balls_match(kind, feats, eps_list):
    D = _distance_matrix(kind, feats)
    for eps in eps_list:
        assert np.array_equal(_ball_matrix(kind, feats, eps), D < eps), (kind.label, eps)


@pytest.mark.parametrize("chunk_bytes", [1 << 10, systems._CHUNK_BYTES])
@pytest.mark.parametrize("system", [SYS_R, SYS_D], ids=["rotation", "doubling"])
def test_ball_matrix_equals_distance_matrix(monkeypatch, chunk_bytes, system):
    # 1 << 10 bytes gives one-row strips and, at n = 64, 1 x 1 tiles
    monkeypatch.setattr(systems, "_CHUNK_BYTES", chunk_bytes)
    samples = system.sample_measure(90, PLAN.child(5))
    kinds = [FbarKind(e.Character(1)), FhatKind(e.Character(1)),
             FbarKind(e.CellIndicator(_CELLS, 1)), FhatKind(e.CellIndicator(_CELLS, 1)),
             HammingKind(_CELLS)]
    for kind in kinds:
        for n in (1, 9, 64):
            feats = _sample_features(kind, system, samples, n)
            D = _distance_matrix(kind, feats)
            _assert_balls_match(kind, feats, [0.05, 0.3, 1.0, 3.0, *_entry_eps(D)])


def test_ball_matrix_on_tight_triangles():
    # rows t * v lie on a line, so |d(i, p) - d(j, p)| = d(i, j) in exact
    # arithmetic: only the rounding margin of the screen keeps it from
    # settling a pair on the wrong side of an eps at a matrix entry
    rng = np.random.default_rng(11)
    t = np.concatenate([[0.0], np.sort(rng.random(149)), [1.0]])
    for v in (rng.random(37), np.exp(2j * np.pi * rng.random(37))):
        feats = t[:, None] * v
        for kind in (FbarKind(None), FhatKind(None)):
            D = _distance_matrix(kind, feats)
            for j in range(1, 151, 5):
                _assert_balls_match(kind, feats, [D[0, j], np.nextafter(D[0, j], 0.0),
                                                  np.nextafter(D[0, j], np.inf)])


def test_ball_matrix_degenerate_rows():
    rng = np.random.default_rng(12)
    for m in (1, 2, 3, 40):  # fewer rows than pivots, and more
        values = np.exp(2j * np.pi * rng.random((m, 16)))
        nan_row = values.copy()
        nan_row[m // 2, 3] = np.nan
        nan_first = values.copy()
        nan_first[0] = np.nan  # the first pivot's row
        inf_row = values.real.copy()
        inf_row[m - 1, 5] = np.inf
        huge = values.real * 2.0**1020  # some gap sums overflow to inf
        ints = rng.integers(-3, 4, size=(m, 16))
        cases = [values, np.repeat(values[:1], m, axis=0), nan_row, nan_first,
                 values.real.copy(), inf_row, huge, ints, ints.astype(np.float32)]
        for feats in cases:
            for kind in (FbarKind(None), FhatKind(None)):
                with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, overflow
                    _assert_balls_match(kind, feats, [2.0**-1010, 1e-3, 0.5, 1.3, 2.0**890,
                                                      2.0**950, np.inf, np.nan])
        words = rng.integers(0, 3, size=(m, 16))
        for labels in (words, np.repeat(words[:1], m, axis=0)):
            _assert_balls_match(HAM, labels, [1e-3, 1 / 16, np.nextafter(1 / 16, 1.0),
                                              0.5, 1.0, 2.0, np.inf, np.nan])
    empty = np.zeros((0, 5))
    for kind in (FbarKind(None), FhatKind(None), HAM):
        assert _ball_matrix(kind, empty, 0.5).shape == (0, 0)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 127, 128, 129, 1000])
def test_distance_pairs_equal_tile_entries(n):
    # the pairs the screen leaves open are reduced one contiguous row at a
    # time; numpy's pairwise sum blocks at 8 and 128 items
    rng = np.random.default_rng(n)
    i, j = np.nonzero(np.ones((12, 12), dtype=bool))
    for feats in (rng.normal(size=(12, n)), np.exp(2j * np.pi * rng.random((12, n)))):
        for kind in (FbarKind(None), FhatKind(None)):
            D = _distance_matrix(kind, feats)
            assert np.array_equal(_distance_pairs(kind, feats, i, j), D[i, j])


def test_ball_matrix_screen_settles_most_pairs(monkeypatch):
    # on a rotation the triangle inequality through four pivots decides
    # most pairs; count the pairs the kernel still reduces
    reduced = []

    def counted(read):
        def wrapped(*args):
            out = read(*args)
            reduced.append(out.size)
            return out
        return wrapped

    for name in ("_distance_rows", "_distance_pairs"):
        monkeypatch.setattr(cover, name, counted(getattr(cover, name)))
    samples = SYS_R.sample_measure(400, PLAN.child(6))
    for kind in (FbarKind(e.Character(1)), FhatKind(e.Character(1))):
        reduced.clear()
        feats = _sample_features(kind, SYS_R, samples, 64)
        _ball_matrix(kind, feats, 0.2)
        assert sum(reduced) < 0.2 * 400 * 401 / 2


def test_ball_matrix_drops_a_screen_that_settles_little(monkeypatch):
    # doubling puts fbar distances near their mean, so the first tile's pairs
    # stay mostly open: every block is reduced whole and no pair alone
    alone = []
    monkeypatch.setattr(cover, "_distance_pairs", lambda *args: alone.append(args))
    samples = SYS_D.sample_measure(300, PLAN.child(7))
    kind = FbarKind(e.Character(1))
    feats = _sample_features(kind, SYS_D, samples, 64)
    assert np.array_equal(_ball_matrix(kind, feats, 0.5), _distance_matrix(kind, feats) < 0.5)
    assert not alone


def test_ball_member_strict():
    a = e.NameWord((0, 0, 0, 0), 2)
    b = e.NameWord((1, 0, 0, 0), 2)
    kind = e.HammingKind(e.cylinder([0], 2))
    assert not e.ball_member(a, b, 4, 0.25, kind)  # distance exactly 0.25
    assert e.ball_member(a, b, 4, 0.26, kind)
    with pytest.raises(InvalidParameterError):
        e.ball_member(a, b, 5, 0.26, kind)  # words shorter than the horizon


@pytest.mark.parametrize("label", ["hamming", "fbar", "fhat"])
def test_ball_member_agrees_with_cover_kernel(label):
    # a per-pair fhat that divides where the kernel multiplies by 1/k
    # put some pairs inside the ball at eps = D[i, j] itself
    f = e.Character(1)
    kind = {"hamming": HammingKind(e.circle_intervals([0.0, 0.3, 0.7])),
            "fbar": FbarKind(f), "fhat": FhatKind(f)}[label]
    samples = SYS_R.sample_measure(30, PLAN)
    D = e.pairwise_distances(kind, SYS_R, samples, 64)
    for i, x in enumerate(samples):
        for j, y in enumerate(samples):
            if i != j and D[i, j] > 0:
                assert not e.ball_member(x, y, 64, D[i, j], kind, SYS_R), (i, j)
            assert e.ball_member(x, y, 64, np.nextafter(D[i, j], 2), kind, SYS_R), (i, j)


def test_ball_member_mixed_word_and_point():
    kind = HammingKind(e.halves())
    x, y = SYS_R.sample_measure(2, PLAN)
    d = e.pairwise_distances(kind, SYS_R, [x, y], 64)[0, 1]
    assert d > 0
    wy = e.name_word(SYS_R, kind.partition, y, 64)
    for center, cand in ((x, wy), (wy, x)):
        assert not e.ball_member(center, cand, 64, d, kind, SYS_R)
        assert e.ball_member(center, cand, 64, np.nextafter(d, 2), kind, SYS_R)


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


def test_classify_any_budget_hit_in_tail_not_bounded():
    # a K that hit the center budget is a lower bound, so one capped point in
    # the last three already makes a flat tail say nothing
    points = tuple(
        e.CurvePoint(n=n, k_est=13, k_lo=13.0, k_hi=13.0, budget_hit=hit, covered_mass=0.9)
        for n, hit in zip([4, 8, 16], [False, True, True])
    )
    curve = e.ComplexityCurve(
        points=points, eps=0.1, metric_label="hamming", sample_count=200, seed=7
    )
    assert e.classify_boundedness(curve) == "inconclusive"
    assert e.classify_boundedness(curve.estimates) == "bounded"  # the bare numbers


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


def _batched(balls, counts, eps, budget):
    """_greedy_cover's rows in the form _outcome gives the reference."""
    return [(failure, centers, covered / total) if failure else (centers, covered, total)
            for centers, covered, total, failure in _greedy_cover(balls, counts, eps, budget)]


def _reference(balls, counts, eps, budget):
    return [_outcome(_argmax_greedy, balls, row, eps, budget) for row in counts]


def test_batched_greedy_matches_argmax_greedy():
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
        want = _outcome(_argmax_greedy, balls, counts, eps, budget)
        assert _batched(balls, counts[None], eps, budget) == [want]
        paths.add(want[0] if isinstance(want[0], str) else "covered")
    assert any("budget" in p for p in paths)
    assert "no uncovered candidate can extend the cover" in paths
    assert "covered" in paths


def _cluster_balls(rng, m, lone):
    """A symmetric ball matrix of m samples in a few random clusters, with
    `lone` of them forced far from every other sample."""
    x = rng.random((m, 2)) * rng.choice([1.0, 4.0, 12.0])
    x[rng.choice(m, lone, replace=False)] = 100.0 + 10.0 * np.arange(lone)[:, None]
    D = np.abs(x[:, None, :] - x[None, :, :]).max(axis=2)
    return D < float(rng.choice([0.3, 1.0, 2.5]))


def _bfs_components(balls):
    seen, comps = set(), []
    for s in range(len(balls)):
        if s not in seen:
            comp, todo = {s}, [s]
            while todo:
                new = set(np.flatnonzero(balls[todo.pop()]).tolist()) - comp
                comp |= new
                todo += new
            seen |= comp
            comps.append(sorted(comp))
    return comps


def test_components_match_bfs():
    rng = np.random.default_rng(8)
    for trial in range(60):
        m = int(rng.integers(1, 80))
        balls = _cluster_balls(rng, m, int(rng.integers(0, m + 1)))
        nodes, starts = _components(balls)
        got = [c.tolist() for c in np.split(nodes, starts[1:])] if nodes.size else []
        assert sorted(got) == [c for c in _bfs_components(balls) if len(c) > 1]
    assert _components(np.ones((0, 0), dtype=bool))[0].size == 0


def test_batched_rows_match_argmax_greedy_row_by_row():
    # several rows of one batch, on ball graphs with isolated samples; each
    # row must be the reference run on that row alone
    rng = np.random.default_rng(9)
    paths = set()
    for trial in range(120):
        m = int(rng.integers(1, 70))
        balls = _cluster_balls(rng, m, int(rng.integers(0, m + 1)))
        rows = int(rng.integers(1, 7))
        counts = np.stack([np.ones(m, dtype=np.int64)] + [
            np.bincount(rng.integers(0, m, m), minlength=m) for _ in range(rows - 1)])
        if trial % 3 == 1:  # zero counts beside large ones
            counts = counts * rng.integers(0, 3, (rows, m)) * 1000
            counts[:, 0] += 1
        eps = float(rng.choice([0.0, 0.05, 0.1, 0.3]))
        budget = [0, 1, 2, 3, m][trial % 5]
        want = _reference(balls, counts, eps, budget)
        assert _batched(balls, counts, eps, budget) == want
        paths.update(w[0] if isinstance(w[0], str) else "covered" for w in want)
    assert {"covered", "center budget 0 exhausted", "center budget 3 exhausted",
            "no uncovered candidate can extend the cover"} <= paths


def test_batched_greedy_ties_across_components():
    # copies of one component at interleaved indices: equal gains in every
    # copy, so each step's tie is broken by the lowest index across them
    rng = np.random.default_rng(10)
    for trial in range(60):
        size, copies = int(rng.integers(2, 10)), int(rng.integers(2, 5))
        # random intervals, or a path on which a copy picks equal gains in a row
        x = rng.random((size, 1)) * 3 if trial % 2 else 0.6 * np.arange(size)[:, None]
        block = np.abs(x - x.T) < 1.0
        m = size * copies
        place = rng.permutation(m).reshape(copies, size)
        balls = np.zeros((m, m), dtype=bool)
        for idx in place:
            balls[np.ix_(idx, idx)] = block
        lone = int(rng.integers(0, 3))  # isolated samples tie with them too
        balls = np.pad(balls, (0, lone))
        balls[m:, m:] = np.eye(lone, dtype=bool)
        counts = np.ones((2, m + lone), dtype=np.int64)
        counts[1, :m] = 2
        for eps in (0.0, 0.1, 0.2, 0.3, 0.5):
            for budget in (1, m + lone):
                assert _batched(balls, counts, eps, budget) == _reference(
                    balls, counts, eps, budget)


def test_batched_greedy_waits_for_an_equal_gain_at_a_lower_index():
    # a path 0-1-2-3-4-5 and a triangle 7, 8, 9 (6 alone): the first step
    # picks 1 and 7, both of gain 3; the path's next pick, 4, also gains 3
    # and must come before 7
    balls = np.eye(10, dtype=bool)
    for i in range(5):
        balls[i, i + 1] = balls[i + 1, i] = True
    balls[7:, 7:] = True
    counts = np.ones((1, 10), dtype=np.int64)
    assert _greedy_cover(balls, counts, 0.45, 10) == [([1, 4], 6, 10, None)]
    assert _batched(balls, counts, 0.45, 10) == _reference(balls, counts, 0.45, 10)


def test_batched_greedy_empty_balls():
    # a sample with a nan distance lies in no ball, its own included: it is
    # never covered and its own ball gains nothing
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(60):
        m = int(rng.integers(3, 50))
        balls = _cluster_balls(rng, m, int(rng.integers(0, m // 2 + 1)))
        empty = rng.choice(m, int(rng.integers(1, 3)), replace=False)
        balls[empty, :] = balls[:, empty] = False
        counts = np.stack([np.ones(m, dtype=np.int64),
                           np.bincount(rng.integers(0, m, m), minlength=m)])
        eps = float(rng.choice([0.1, 0.3, 0.5]))
        # the reference would pick an empty ball forever once nothing else helps
        ok = [_units_needed(int(c.sum()), eps) <= c.sum() - c[empty].sum() for c in counts]
        got = _batched(balls, counts, eps, m)
        want = _reference(balls, counts, eps, m)
        assert [g for g, k in zip(got, ok) if k] == [w for w, k in zip(want, ok) if k]
        checked += sum(ok)
    assert checked > 60


def test_batched_greedy_exact_beyond_float():
    # totals past 2**24 take float64 gains, past 2**53 Python ints; the
    # counts are multiples of a power of two, so the float reference is exact
    rng = np.random.default_rng(12)
    for trial in range(40):
        m = int(rng.integers(2, 40))
        balls = _cluster_balls(rng, m, int(rng.integers(0, m // 2 + 1)))
        scale = [2**30, 2**64, 2**100][trial % 3]
        counts = rng.integers(0, 5, (3, m)).astype(object) * scale
        counts[:, 0] += scale
        if scale == 2**30:
            counts = counts.astype(np.int64)
        for eps in (0.0, 0.2):
            assert _batched(balls, counts, eps, m) == _reference(balls, counts, eps, m)


def _python_greedy(balls, counts, eps, budget):
    """Reference in Python ints: every step sums every candidate's ball."""
    left = [int(c) for c in counts]
    members = [np.flatnonzero(row).tolist() for row in balls]
    total, covered, centers = sum(left), 0, []
    cand = [True] * len(left)
    while covered < _units_needed(total, eps):
        gains = [sum(left[j] for j in members[i]) if cand[i] else -1 for i in range(len(left))]
        if max(gains, default=-1) < 0:
            return "no uncovered candidate can extend the cover", centers, covered / total
        if len(centers) >= budget:
            return f"center budget {budget} exhausted", centers, covered / total
        i = gains.index(max(gains))
        centers.append(i)
        covered += gains[i]
        for j in members[i]:
            left[j], cand[j] = 0, False
    return centers, covered, total


def test_batched_greedy_exact_big_counts():
    # arbitrary integers up to 2**90: Python-int gains, summed in limbs
    rng = np.random.default_rng(13)
    for trial in range(30):
        m = int(rng.integers(2, 40))
        balls = _cluster_balls(rng, m, int(rng.integers(0, m // 2 + 1)))
        counts = np.array([[int(v) for v in rng.integers(0, 2**30, m)] for _ in range(3)],
                          dtype=object)
        counts = counts * counts * (counts % 1024) + rng.integers(0, 2, (3, m))
        counts[:, 0] += 1
        eps, budget = float(rng.choice([0.0, 0.1, 0.4])), int(rng.choice([2, m]))
        want = [_python_greedy(balls, row, eps, budget) for row in counts]
        assert _batched(balls, counts, eps, budget) == want


def test_estimate_cover_centers_match_reference():
    samples = SYS_R.sample_measure(300, PLAN)
    kind = e.HammingKind(e.circle_intervals([0.0, 0.3, 0.7]))
    for n, eps in ((8, 0.1), (64, 0.1), (64, 0.3)):
        balls = e.pairwise_distances(kind, SYS_R, samples, n) < eps
        want, covered, total = _argmax_greedy(balls, np.ones(300, dtype=np.int64), eps, 300)
        res = e.estimate_cover_number(samples, n, eps, kind, system=SYS_R)
        assert list(res.centers) == want
        assert res.covered_mass == covered / total
