"""The in-place circle feature reads against the forms they replaced.

Circle values are reduced mod 1 as v - floor(v) in place (`systems._frac`),
cell labels are counted one cut comparison at a time in the narrowest
unsigned type and wrap through a lookup table, doubling labels of shallow
dyadic cuts come from a table of every window's label, a character read is
one complex buffer, and the splitmix64 and zigzag steps run in place, the
stream hash in one output and one scratch array.  Each must equal its old
form bit for bit, leave the caller's arrays alone and not depend on the
chunk size.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergolab as e
import old_kernels
from ergolab import rng, systems
from ergolab.systems import Points, make_system

PLAN = e.RandomPlan(314)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and \
        np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------------------
# v - floor(v) is v % 1.0


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_frac_equals_remainder_on_finite_floats(xs):
    v = np.array(xs, dtype=np.float64)
    assert _same_bits(systems._frac(v.copy()), v % 1.0)


@pytest.mark.parametrize("x", [
    -0.0, 0.0, 5e-324, -5e-324, -1e-300, -2.0**-54,
    2.0**52 + 0.5, -(2.0**52 + 0.5), 2.0**52 - 0.5, -(2.0**52 - 0.5),
    1 - 2.0**-53, -(1 - 2.0**-53), 1e308, -1e308, 3.0, -3.0,
    0.123 + 10**6 * e.GOLDEN,  # the rotation value x + j theta at j = 10^6
])
def test_frac_equals_remainder_at_edges(x):
    v = np.array([x, x])
    got = systems._frac(v)
    assert got is v  # in place
    assert _same_bits(got, np.array([x, x]) % 1.0)


# ---------------------------------------------------------------------------
# The counted labels through the wrap table are (searchsorted - 1) % L


LABEL_CUTS = {
    "one": (0.0,),
    "one-inside": (0.6,),
    "two": (0.0, 0.5),
    "three": (0.0, 0.3, 0.7),
    "not-at-zero": (0.3, 0.7),  # below 0.3 is the last cell
    "refine7": e.refine(e.halves(), make_system(e.doubling()), 7).cuts,  # 128 cuts
    "refine9": e.refine(e.halves(), make_system(e.doubling()), 9).cuts,  # 512: past uint8
}


def _values_at_cuts(cuts):
    near = [v for c in cuts for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
    return [v for v in near + [0.0, 1 - 2.0**-53] if 0.0 <= v < 1.0]


@pytest.mark.parametrize("name", sorted(LABEL_CUTS))
def test_label_wrap_equals_remainder_formula(name):
    cuts = np.asarray(LABEL_CUTS[name])
    values = np.concatenate([np.random.default_rng(3).random((50, 30)).ravel(),
                             _values_at_cuts(cuts)])
    got = systems._circle_labels(cuts, values)
    # the count's narrowest type holds len(cuts): uint16 for 512 cuts
    assert got.dtype == np.min_scalar_type(len(cuts))
    assert np.array_equal(got, old_kernels.circle_labels(cuts, values))
    # the rotation route: labels of the float values of rows
    rot = make_system(e.rotation(e.GOLDEN))
    pts = np.concatenate([rot.sample_measure(40, PLAN), _values_at_cuts(cuts)])
    want = old_kernels.circle_labels(cuts, rot.rows(pts, 0, 50))
    assert np.array_equal(rot.circle_labels(pts, cuts, 50), want)
    # the doubling route: labels of K-bit integer windows
    dbl = make_system(e.doubling())
    pts = dbl.sample_measure(40, PLAN)
    for v in _values_at_cuts(cuts):
        pts = pts + dbl.point(v)
    want = old_kernels.circle_labels(cuts, dbl.rows(pts, 0, 50))
    assert np.array_equal(dbl.circle_labels(pts, cuts, 50), want)


# ---------------------------------------------------------------------------
# Doubling labels from a table of every K-bit window equal the counted ones


def _dyadic_cuts(depth, at_zero):
    """Sorted cuts of dyadic depth `depth`: odd multiples of 2^-depth, the
    first and last among them, and 0 if asked."""
    odd = np.arange(1, 2**depth, 2)
    pick = np.random.default_rng(depth).choice(odd, size=min(4, len(odd)), replace=False)
    nums = sorted({int(odd[0]), int(odd[-1]), *map(int, pick)} | ({0} if at_zero else set()))
    return np.array(nums) / 2.0**depth


def _doubling_points(dbl, cuts):
    pts = dbl.sample_measure(30, PLAN)
    for v in _values_at_cuts(cuts)[:6]:
        pts = pts + dbl.point(v)
    return pts + pts[::4].step(-5)  # bits at negative indices too


def _word_labels(dbl, pts, cuts, n):
    """The labels of the K-bit window words among the thresholds
    ceil(c 2^K), counted word by word with no table."""
    ratios = [float(c).as_integer_ratio() for c in cuts]
    depth = min(53, max(1, max(den.bit_length() - 1 for _, den in ratios)))
    thresholds = np.array([-((-num << depth) // den) for num, den in ratios])
    bits = dbl._bits(pts, pts.offsets, n + depth - 1)
    return systems._circle_labels(thresholds, systems._window_words(bits, n, depth))


def _label_calls(monkeypatch):
    """The value arrays that systems._circle_labels is called with."""
    calls = []
    count = systems._circle_labels

    def spy(cuts, values):
        calls.append(np.array(values))
        return count(cuts, values)

    monkeypatch.setattr(systems, "_circle_labels", spy)
    return calls


@pytest.mark.parametrize("at_zero", [True, False])
@pytest.mark.parametrize("depth", range(1, 17))
def test_table_labels_equal_searched_labels(depth, at_zero, monkeypatch):
    dbl = make_system(e.doubling())
    cuts = _dyadic_cuts(depth, at_zero)
    pts = _doubling_points(dbl, cuts)
    want = _word_labels(dbl, pts, cuts, 40)
    assert np.array_equal(want, old_kernels.circle_labels(cuts, dbl.rows(pts, 0, 40)))
    calls = _label_calls(monkeypatch)
    got = dbl.circle_labels(pts, cuts, 40)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    # one count, over every word
    assert len(calls) == 1 and np.array_equal(calls[0], np.arange(2**depth))
    monkeypatch.setattr(systems, "_CHUNK_BYTES", 64)
    assert np.array_equal(dbl.circle_labels(pts, cuts, 40), want)


@pytest.mark.parametrize("cuts", [
    (0.0, 1 / 2**17, 0.5),  # depth 17, one past the table
    (0.25, 0.5 + 2.0**-20),
    (0.0, 0.3, 0.7),  # not dyadic: depth 53
    (0.1, 0.6),
])
def test_deep_cuts_keep_searching(cuts, monkeypatch):
    """Past systems._TABLE_DEPTH every chunk's window words are labelled
    against the thresholds directly, with no table."""
    dbl = make_system(e.doubling())
    cuts = np.array(cuts)
    pts = _doubling_points(dbl, cuts)
    want = old_kernels.circle_labels(cuts, dbl.rows(pts, 0, 40))
    calls = _label_calls(monkeypatch)
    assert np.array_equal(dbl.circle_labels(pts, cuts, 40), want)
    assert calls and all(c.shape == (len(pts), 40) for c in calls)
    monkeypatch.setattr(systems, "_CHUNK_BYTES", 64)
    assert np.array_equal(dbl.circle_labels(pts, cuts, 40), want)


# ---------------------------------------------------------------------------
# The in-place hash equals its old expressions


_U64_ARRAY = np.array([0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15, 12345], dtype=np.uint64)
_I64_ARRAY = np.array([0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63)], dtype=np.int64)


def _no_warnings(f, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return f(*args)


def _check_equal_and_untouched(new, old, arg):
    keep = arg.copy() if isinstance(arg, np.ndarray) else arg
    got = _no_warnings(new, arg)
    assert type(got) is type(old(keep)) and _same_bits(got, old(keep))
    if isinstance(arg, np.ndarray):
        assert _same_bits(arg, keep)


@pytest.mark.parametrize("z", [
    _U64_ARRAY, _U64_ARRAY.reshape(2, 3), _U64_ARRAY[::2], np.array(7, dtype=np.uint64),
    np.uint64(0), np.uint64(2**64 - 1), 0, 5, 2**63, 2**64 - 1,
])
def test_mix_equals_old_form(z):
    _check_equal_and_untouched(rng._mix, old_kernels.mix, z)


@pytest.mark.parametrize("i", [
    _I64_ARRAY, _I64_ARRAY.reshape(1, 7), _I64_ARRAY[1::3], np.array(-5, dtype=np.int64),
    np.arange(-40, 40, dtype=np.int64), [3, -4, 0], np.int64(-9), np.int64(2**61), 0, 7, -7, -(2**61),
])
def test_zigzag_equals_old_form(i):
    # in place on an int64 copy of i (0-d for a scalar), returned as uint64
    work = np.array(i, dtype=np.int64)
    want = old_kernels.zigzag(work.copy())
    got = _no_warnings(rng.zigzag, work, np.empty_like(work))
    assert _same_bits(got, want) and np.shares_memory(got, work)


@pytest.mark.parametrize("parts", [
    (42,), (42, 7, 3), (2**64 - 1, -1, 0), (np.uint64(9), np.int64(-4)),
    (99, 7, _U64_ARRAY), (99, 7, np.array(3, dtype=np.uint64)),
    (_U64_ARRAY[:, None], 7, old_kernels.zigzag(np.arange(-3, 5).reshape(1, 8))),
])
def test_hash64_equals_old_form(parts):
    keep = [p.copy() if isinstance(p, np.ndarray) else p for p in parts]
    got = _no_warnings(rng.hash64, *parts)
    want = old_kernels.hash64(*keep)
    assert type(got) is type(want) and _same_bits(got, want)
    for p, k in zip(parts, keep):
        if isinstance(p, np.ndarray):
            assert _same_bits(p, k)


@pytest.mark.parametrize("starts", [
    [0, -1, -5, -1000, 2**40, -(2**40), 7],
    [-3],
    [],
])
def test_stream_hash_equals_old_form(starts):
    keys = np.resize(_U64_ARRAY, len(starts))
    starts = np.array(starts, dtype=np.int64)
    keep_keys, keep_starts = keys.copy(), starts.copy()
    got = _no_warnings(rng.stream_hash, keys, systems._TAG_SYMBOL, starts, 9)
    idx = starts[:, None] + np.arange(9)
    want = old_kernels.hash64(keys[:, None], systems._TAG_SYMBOL, old_kernels.zigzag(idx))
    assert _same_bits(got, want)
    assert _same_bits(keys, keep_keys) and _same_bits(starts, keep_starts)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1, -1])
@pytest.mark.parametrize("tag", [0, 7, 101, -3])
def test_scalar_hashes_unchanged(seed, tag):
    want = old_kernels.hash64(seed, tag)
    assert type(rng.hash64(seed, tag)) is type(want) and rng.hash64(seed, tag) == want
    assert e.RandomPlan(seed).child(tag).master_seed == int(want)
    assert rng.hash64(seed, tag, 5) == old_kernels.hash64(seed, tag, 5)


# ---------------------------------------------------------------------------
# The reads leave their samples alone and do not depend on the chunk size


CUTS3 = (0.0, 0.3, 0.7)


def _samples(name):
    if name in ("rotation", "identity"):
        system = make_system(e.rotation(e.GOLDEN) if name == "rotation" else e.identity())
        # float64 already, so np.asarray would hand back this very array
        x = np.concatenate([system.sample_measure(20, PLAN), [0.0, 0.999, -0.25, 3.75, -1e-300]])
        return system, x
    if name == "doubling":
        system = make_system(e.doubling())
        return system, system.sample_measure(20, PLAN) + system.point(0.375)
    system = make_system(e.sturmian(e.GOLDEN))
    pts = system.sample_measure(20, PLAN)
    return system, pts + system.step(pts[:3], -7)


def _reads(system, pts):
    out = {"rows": system.rows(pts, 0, 33)}
    if isinstance(pts, np.ndarray):
        out["circle_value"] = systems.circle_value(pts)
    if system.has_circle_values:
        out["circle_labels"] = system.circle_labels(pts, CUTS3, 33)
        out["character"] = e.Character(3).orbit_rows(system, pts, 33)
    return out


def _arrays(pts):
    return [pts] if isinstance(pts, np.ndarray) else [pts.keys, pts.offsets]


@pytest.mark.parametrize("name", ["rotation", "identity", "doubling", "sturmian"])
def test_reads_leave_samples_alone_and_ignore_chunk_size(name, monkeypatch):
    system, pts = _samples(name)
    keep = [a.copy() for a in _arrays(pts)]
    whole = _reads(system, pts)
    monkeypatch.setattr(systems, "_CHUNK_BYTES", 64)
    small = _reads(system, pts)
    for a, k in zip(_arrays(pts), keep):
        assert _same_bits(a, k)
    for key, got in small.items():
        assert _same_bits(got, whole[key]), key
    if isinstance(pts, Points):
        return
    assert (whole["rows"] < 1.0).all() and (whole["circle_value"] < 1.0).all()
