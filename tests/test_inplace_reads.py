"""The in-place circle feature reads against the forms they replaced.

Circle values are reduced mod 1 as v - floor(v) in place (`systems._frac`),
cell labels are counted one cut comparison at a time in the narrowest
unsigned type and wrap through a lookup table, doubling labels of shallow
dyadic cuts come from a table of every window's label, and a power-of-two
window word is a view of its bits.  A character read writes cos and sin of
its phase into the two halves of one complex buffer, and an indicator's
gaps are one xor of its two masks.  The splitmix64 steps run in place, the
stream hash in one output, whose zigzagged index is one add with the
negative entries inverted, and one scratch array; the doubling bits skip
splitmix64's last step.  Each must equal its old form bit for bit, leave
the caller's arrays alone and not depend on the chunk size.  A read that
fits in one chunk is the result itself, copied only when it is read-only,
strided or of another type.
"""

import tracemalloc
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
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    word = f"u{min(a.dtype.itemsize, 8)}"  # uint64 halves of a complex
    return np.array_equal(a.view(word), b.view(word))


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


STREAM_STARTS = {
    "edges": [0, -1, -5, -1000, 2**40, -(2**40), 2**62 - 3, -(2**62)],
    # rows that cross 0 at every width past 1
    "crossing": [-1, -3, -150, -299],
    "one": [-3],
    "none": [],
}


def _old_stream_hash(keys, starts, width):
    idx = starts[:, None] + np.arange(width)
    return old_kernels.hash64(keys[:, None], systems._TAG_SYMBOL, old_kernels.zigzag(idx))


@pytest.mark.parametrize("width", [1, 9, 300])
@pytest.mark.parametrize("name", sorted(STREAM_STARTS))
def test_stream_hash_equals_old_form(name, width):
    """The index is 2 starts[k] + 2j, wrapping mod 2^64 (the 2^62 - 3 row
    past width 3), with the entries whose starts[k] + j is negative
    inverted: keyed on the sign of 2i, the wrapped entries would be too."""
    starts = np.array(STREAM_STARTS[name], dtype=np.int64)
    keys = np.resize(_U64_ARRAY, len(starts))
    keep_keys, keep_starts = keys.copy(), starts.copy()
    want = _old_stream_hash(keys, starts, width)
    got = _no_warnings(rng.stream_hash, keys, systems._TAG_SYMBOL, starts, width)
    assert _same_bits(got, want)
    bits = _no_warnings(rng.stream_bits, keys, systems._TAG_SYMBOL, starts, width)
    assert _same_bits(bits, (want >> np.uint64(63)).astype(np.int64))
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
    specs = {"sturmian": e.sturmian(e.GOLDEN), "bernoulli": e.bernoulli_shift(0.3, 3),
             "odometer": e.odometer(3)}
    system = make_system(specs[name])
    pts = system.sample_measure(20, PLAN)
    return system, pts + system.step(pts[:3], -7)


def _reads(system, pts):
    out = {"rows": system.rows(pts, 0, 33)}
    if isinstance(pts, np.ndarray):
        out["circle_value"] = systems.circle_value(pts)
    if system.has_circle_values:
        out["circle_labels"] = system.circle_labels(pts, CUTS3, 33)
        out["halves"] = e.name_rows(system, e.halves(), pts, 33, np.uint8)
        out["character"] = e.Character(3).orbit_rows(system, pts, 33)
    else:
        # one coordinate: a strided column, copied; two: a fresh sum
        out["cylinder"] = e.name_rows(system, e.cylinder([0], 3), pts, 33, np.uint8)
        out["cylinder2"] = e.name_rows(system, e.cylinder([0, 2], 3), pts, 33)
    return out


def _arrays(pts):
    return [pts] if isinstance(pts, np.ndarray) else [pts.keys, pts.offsets]


@pytest.mark.parametrize("name", ["rotation", "identity", "doubling", "sturmian", "bernoulli",
                                  "odometer"])
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


# ---------------------------------------------------------------------------
# Characters from cos and sin of the phase, indicator gaps from one xor and
# power-of-two window words as views equal their old forms


EDGE_VALUES = [0.0, 5e-324, 1 - 2.0**-53, 0.5, 0.25]


def _edge_samples(name):
    if name == "doubling":
        system = make_system(e.doubling())
        pts = system.sample_measure(20, PLAN)
        for v in EDGE_VALUES:
            pts = pts + system.point(v)
        return system, pts
    system = make_system(e.rotation(e.GOLDEN) if name == "rotation" else e.identity())
    return system, np.concatenate([system.sample_measure(20, PLAN), EDGE_VALUES])


@pytest.mark.parametrize("k", [-3, -1, 1, 2])
@pytest.mark.parametrize("name", ["rotation", "identity", "doubling"])
def test_character_rows_equal_complex_exp(name, k):
    """At x = 0 the phase 2 pi k x is -0.0 for k < 0, and both forms give a
    -0.0 imaginary part: the uint64 views tell the zeros apart."""
    system, pts = _edge_samples(name)
    got = e.Character(k).orbit_rows(system, pts, 40)
    want = old_kernels.character_rows(k, system.rows(pts, 0, 40))
    assert _same_bits(got, want)
    assert got.flags.c_contiguous and got.dtype == np.complex128


@pytest.mark.parametrize("name, partition, label", [
    ("doubling", e.halves(), 1),
    ("doubling", CUTS3, 0),
    ("rotation", CUTS3, 2),
    ("bernoulli", e.cylinder([-1, 0, 2], 2), 5),
    ("bernoulli3", e.cylinder([0], 3), 2),
])
def test_indicator_gaps_equal_orbit_row_gaps(name, partition, label):
    specs = {"doubling": e.doubling(), "rotation": e.rotation(e.GOLDEN),
             "bernoulli": e.bernoulli_shift(0.3), "bernoulli3": e.bernoulli_shift(0.6, 3)}
    system = make_system(specs[name])
    if not isinstance(partition, e.Partition):
        partition = e.circle_intervals(partition)
    f = e.CellIndicator(partition, label)
    xs, ys = system.sample_measure(60, PLAN), system.sample_measure(60, PLAN.child(1))
    want = np.abs(f.orbit_rows(system, xs, 50) - f.orbit_rows(system, ys, 50))
    assert _same_bits(f.gap_rows(system, xs, ys, 50), want)
    assert 0 < want.sum() < want.size


@pytest.mark.parametrize("width", [1, 2, 4, 8, 16, 32, 3, 7, 53])
def test_window_words_equal_shifted_copies(width):
    bits = np.random.default_rng(width).integers(0, 2, size=(30, 40 + width - 1))
    keep = bits.copy()
    got = systems._window_words(bits, 40, width)
    assert _same_bits(got, old_kernels.window_words(keep, 40, width))
    assert got.flags.c_contiguous
    if width == 1:  # one window of the bits themselves
        assert np.shares_memory(got, bits)
    else:
        assert _same_bits(bits, keep)


# ---------------------------------------------------------------------------
# A read of one chunk is the result itself


def test_one_chunk_read_is_the_result():
    rot = make_system(e.rotation(e.GOLDEN))
    pts = rot.sample_measure(30, PLAN)
    made = []

    def read(a, b):
        made.append(rot._rows(pts[a:b], 0, 50))
        return made[-1]

    got = systems._batched(30, (50,), np.float64, read)
    assert got is made[0] and len(made) == 1
    rows = rot.rows(pts, 0, 50)
    assert rows.flags.writeable and rows.flags.c_contiguous and rows.dtype == np.float64
    assert not np.shares_memory(rows, pts)
    assert _same_bits(rows, got)


@pytest.mark.parametrize("view", ["read-only", "strided", "int32"])
def test_one_chunk_view_is_copied(view):
    base = np.arange(30 * 100, dtype=np.int64).reshape(30, 100)
    chunk = {"read-only": base[:, :50], "strided": base[:, ::2], "int32": base[:, :50]}[view]
    if view == "read-only":
        chunk = np.lib.stride_tricks.as_strided(chunk, writeable=False)
    dtype = np.int32 if view == "int32" else np.int64
    got = systems._batched(30, (50,), dtype, lambda a, b: chunk)
    assert got.flags.writeable and got.flags.c_contiguous and got.dtype == dtype
    assert not np.shares_memory(got, base)
    assert np.array_equal(got, chunk)


@pytest.mark.parametrize("name", ["bernoulli", "odometer"])
def test_one_coordinate_cylinder_labels_are_copied(name, monkeypatch):
    """One-coordinate cylinder labels are a strided column: of a read-only
    sliding window on a shift, of the digit array on an odometer."""
    system = make_system(e.bernoulli_shift(0.4) if name == "bernoulli" else e.odometer(2))
    pts = system.sample_measure(25, PLAN)
    got = e.name_rows(system, e.cylinder([1], 2), pts, 30)
    assert got.flags.writeable and got.flags.c_contiguous and got.dtype == np.int64
    assert _same_bits(got, system.cylinder_rows(pts, (1,), 30)[:, :, 0])
    monkeypatch.setattr(systems, "_CHUNK_BYTES", 64)
    assert _same_bits(e.name_rows(system, e.cylinder([1], 2), pts, 30), got)


def test_no_rows_read_nothing():
    def read(a, b):
        raise AssertionError(f"read({a}, {b})")

    got = systems._batched(0, (7, 3), np.uint8, read)
    assert got.shape == (0, 7, 3) and got.dtype == np.uint8
    rot = make_system(e.rotation(e.GOLDEN))
    assert rot.rows(np.array([]), 0, 9).shape == (0, 9)


def test_one_chunk_read_holds_one_temporary():
    """64 x 1024 rotation values fill one 512 KiB chunk.  Beyond the result
    the read holds one array of its size, the floor that `systems._frac`
    subtracts; a copy of the chunk into a second output would be one more."""
    rot = make_system(e.rotation(e.GOLDEN))
    pts = rot.sample_measure(64, PLAN)
    assert systems._chunk_rows(1024) == 64
    rot.rows(pts, 0, 1024)
    tracemalloc.start()
    try:
        rows = rot.rows(pts, 0, 1024)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.nbytes == 1 << 19
    assert peak - rows.nbytes < 1.25 * rows.nbytes
