"""The batched (samples x horizon) read against the per-point code it replaced.

The _old_* helpers are copies of the per-point reads from before the batched
layer: loops over stream indices, the odometer's digit-by-digit carry, the
per-point name and orbit reads with their step-and-classify fallback, and the
per-pair expansivity loop.  Every batched row must equal them bit for bit,
for every chunk size.
"""

import functools
from dataclasses import dataclass

import numpy as np
import pytest

import ergolab as e
import old_kernels
from ergolab import equicont, systems
from ergolab.partitions import CIRCLE_INTERVALS, CYLINDER, TRIVIAL
from ergolab.rng import hash64, uniform01
from ergolab.spectral import _TAG_L2
from ergolab.systems import FloatBits, PrefixSymbols, make_system

PLAN = e.RandomPlan(99)
_BIT_WEIGHTS = 0.5 ** np.arange(1, 54)


# ---------------------------------------------------------------------------
# The per-point code from before the batched layer


@dataclass(frozen=True)
class _OldHashBits:
    """The fair-bit stream of a sampled doubling point."""

    seed: int


@dataclass(frozen=True)
class _OldHashSymbols:
    """The i.i.d. symbol stream keyed by seed: symbol i from hash(seed, i)."""

    seed: int
    thresholds: tuple  # cumulative probabilities, length alphabet-1


@dataclass(frozen=True)
class _OldPrefixSymbols:
    """A finite symbol buffer at indices >= 0 over a symbol stream."""

    prefix: tuple
    tail: _OldHashSymbols


@dataclass(frozen=True)
class _OldPoint:
    """One point as the per-point code held it: a stream and its origin (its
    shift, on an odometer), or a sturmian angle and its origin."""

    source: object
    offset: int


def _old_points(system, pts):
    """The points of a batch, one per-point object each."""
    if system.spec.family in ("rotation", "identity"):
        return list(pts)
    own = dict(pts.own)
    out = []
    for k, (key, offset) in enumerate(zip(pts.keys, pts.offsets)):
        if isinstance(own.get(k), PrefixSymbols):
            src = _OldPrefixSymbols(own[k].prefix, _OldHashSymbols(int(key), system.thresholds))
        elif k in own:
            src = own[k]
        elif system.spec.family == "sturmian":
            src = float(key)
        elif system.spec.family == "doubling":
            src = _OldHashBits(int(key))
        else:
            src = _OldHashSymbols(int(key), system.thresholds)
        out.append(_OldPoint(src, int(offset)))
    return out


def _old_step(system, x, k):
    if isinstance(x, _OldPoint):
        return _OldPoint(x.source, x.offset + k)
    return system.step(x, k)


def _old_stream(src, lo, hi):
    if isinstance(src, _OldHashSymbols):
        idx = old_kernels.zigzag(np.arange(lo, hi, dtype=np.int64))
        u = uniform01(hash64(src.seed, systems._TAG_SYMBOL, idx))
        out = np.zeros(hi - lo, dtype=np.int64)
        for t in src.thresholds:
            out += u >= t
        return out
    if isinstance(src, _OldPrefixSymbols):
        out = _old_stream(src.tail, lo, hi)
        for j in range(max(lo, 0), min(hi, len(src.prefix))):
            out[j - lo] = src.prefix[j]
        return out
    if isinstance(src, _OldHashBits):
        idx = old_kernels.zigzag(np.arange(lo, hi, dtype=np.int64))
        return (hash64(src.seed, systems._TAG_SYMBOL, idx) >> np.uint64(63)).astype(np.int64)
    out = np.zeros(hi - lo, dtype=np.int64)
    for j in range(max(lo, 0), min(hi, src.exponent)):
        out[j - lo] = (src.numerator >> (src.exponent - 1 - j)) & 1
    return out


def _old_digits(base, p, n):
    raw = _old_stream(p.source, 0, n)
    out = np.empty(n, dtype=np.int64)
    carry = p.offset
    for i in range(n):
        total = int(raw[i]) + carry
        out[i] = total % base
        carry = total // base
    return out


def _old_symbols(system, p, lo, hi):
    fam = system.spec.family
    if fam == "bernoulli_shift":
        return _old_stream(p.source, p.offset + lo, p.offset + hi)
    if fam == "sturmian":
        k = np.arange(p.offset + lo, p.offset + hi)
        pos = (p.source + k * system.theta) % 1.0
        return (pos >= 1.0 - system.theta).astype(np.int64)
    return _old_digits(system.base, p, hi)[lo:hi]


def _old_value_orbit(system, x, n):
    fam = system.spec.family
    if fam == "rotation":
        return (systems.circle_value(x) + np.arange(n) * system.theta) % 1.0
    if fam == "identity":
        return np.full(n, systems.circle_value(x))
    bits = _old_stream(x.source, x.offset, x.offset + n + 52).astype(np.float64)
    return np.lib.stride_tricks.sliding_window_view(bits, 53) @ _BIT_WEIGHTS


def _old_classify(system, partition, x):
    if partition.kind == TRIVIAL:
        return 0
    if partition.kind == CIRCLE_INTERVALS:
        cuts = np.asarray(partition.cuts)
        value = _old_value_orbit(system, x, 1)[0]
        return int(old_kernels.circle_labels(cuts, value))
    row = np.array([_old_symbols(system, x, c, c + 1)[0] for c in partition.coords])
    assert (row < partition.alphabet).all()
    return int(row @ (partition.alphabet ** np.arange(len(row))))


def _old_name(system, partition, x, n):
    if partition.kind == TRIVIAL:
        return np.zeros(n, dtype=np.int64)
    if partition.kind == CIRCLE_INTERVALS and system.has_circle_values:
        cuts = np.asarray(partition.cuts)
        return old_kernels.circle_labels(cuts, _old_value_orbit(system, x, n))
    if partition.kind == CYLINDER and system.kind == "shift":
        lo, hi = partition.coords[0], partition.coords[-1]
        window = _old_symbols(system, x, lo, hi + n)
        cols = [window[c - lo : c - lo + n] for c in partition.coords]
        return np.stack(cols, axis=-1) @ (partition.alphabet ** np.arange(len(cols)))
    # generic fallback: step and classify
    return np.array([_old_classify(system, partition, _old_step(system, x, i))
                     for i in range(n)], dtype=np.int64)


def _old_orbit_values(f, system, x, n):
    if isinstance(f, e.Character):
        return np.exp(2j * np.pi * f.k * _old_value_orbit(system, x, n))
    if isinstance(f, e.CellIndicator):
        return (_old_name(system, f.partition, x, n) == f.label).astype(float)
    if isinstance(f, e.TableObservable):
        return np.asarray(f.values)[_old_name(system, f.partition, x, n)]
    if isinstance(f, e.CoordinateRead):
        return _old_symbols(system, x, f.index, f.index + n).astype(float)
    return np.full(n, f.value)


def _old_expansivity(system, f, delta, pairs, horizon, plan):
    xs = system.sample_measure(pairs, plan.child(equicont._TAG_PAIR_LEFT))
    ys = system.sample_measure(pairs, plan.child(equicont._TAG_PAIR_RIGHT))
    horizons = e.geometric_horizons(horizon)
    exceed = nonconv = 0
    for x, y in zip(_old_points(system, xs), _old_points(system, ys)):
        gaps = np.abs(_old_orbit_values(f, system, x, horizon)
                      - _old_orbit_values(f, system, y, horizon))
        cums = np.cumsum(gaps)
        est = e.limit_estimate([cums[h - 1] / h for h in horizons], horizons)
        exceed += est.value > delta
        nonconv += not est.converged
    return exceed / pairs, nonconv / pairs


def _old_eigen_residual(system, f, lam, m, plan):
    samples = system.sample_measure(m, plan.child(_TAG_L2))
    pairs = np.stack([_old_orbit_values(f, system, x, 2) for x in _old_points(system, samples)])
    return float(np.sqrt(np.mean(np.abs(pairs[:, 1] - lam * pairs[:, 0]) ** 2)))


# ---------------------------------------------------------------------------
# Cases: (system, points, partitions, observables)


def _cat(batches):
    return functools.reduce(lambda a, b: a + b, batches)


def _stepped(system, pts, shifts):
    """Point k of pts stepped by shifts[k], one point at a time."""
    return _cat([system.step(pts[k], s) for k, s in enumerate(shifts)])


def _circle_case(spec):
    system = make_system(spec)
    pts = system.sample_measure(40, PLAN)
    return system, pts


def _doubling_points():
    system = make_system(e.doubling())
    sampled = system.sample_measure(30, PLAN)
    floats = _cat([system.point(v) for v in (0.0, 0.375, 0.1, 1 / 3, 0.9999)])
    stepped = _stepped(system, sampled[:6] + floats, [1, 5, -3, 60, 2, 7, 1, 3, 70, 2, 9])
    return system, sampled + floats + stepped + system.point(0.3) + system.point(0.625)


def _bernoulli_points(alphabet):
    system = make_system(e.bernoulli_shift(0.4, alphabet))
    sampled = system.sample_measure(30, PLAN)
    prefixed = _cat([system.point(symbols=(1, 0, alphabet - 1, 1, 0, 0, 1), seed=s) for s in (3, 8)])
    pts = sampled + prefixed
    return system, pts + _stepped(system, pts[:8] + prefixed, [1, -4, 9, 0, 2, 3, -1, 6, -2, 3])


def _sturmian_points():
    system = make_system(e.sturmian(e.GOLDEN))
    pts = system.sample_measure(30, PLAN) + system.point(0.2)
    return system, pts + _stepped(system, pts[:5] + pts[-1:], [1, -7, 100, 3, 10**6, 5])


def _odometer_points(base):
    system = make_system(e.odometer(base))
    sampled = system.sample_measure(30, PLAN)
    chain = system.point(digits=(base - 1,) * 9, seed=4) + system.point(digits=(0,) * 6, seed=5)
    pts = sampled + chain
    shifts = [1, -1, -5, 17, 2, base**5, -(base**4) - 3, 0, 1, -1]
    return system, pts + _stepped(system, pts[:8] + chain, shifts)


CUTS3 = e.circle_intervals([0.0, 0.3, 0.7])
HALVES = e.halves()
TABLE3 = e.TableObservable(CUTS3, (1.0, -2.0, 0.5))

CIRCLE_CASES = {
    "rotation": (lambda: _circle_case(e.rotation(e.GOLDEN)), [HALVES, CUTS3, e.trivial()],
                 [e.Character(1), e.Character(3), e.CellIndicator(CUTS3, 2), TABLE3, e.Constant(2.0)]),
    "identity": (lambda: _circle_case(e.identity()), [HALVES, CUTS3],
                 [e.Character(2), e.CellIndicator(HALVES, 0), TABLE3]),
    "doubling": (_doubling_points, [HALVES, CUTS3, e.trivial()],
                 [e.Character(1), e.CellIndicator(HALVES, 1), TABLE3, e.Constant(1j)]),
}


def _symbolic_cases():
    out = {}
    for a in (2, 3):
        out[f"bernoulli{a}"] = (
            lambda a=a: _bernoulli_points(a),
            [e.cylinder([0], a), e.cylinder([0, 2], a), e.cylinder([-1, 0, 1], a)],
            [e.CoordinateRead(0), e.CoordinateRead(-2), e.CellIndicator(e.cylinder([1, 3], a), 1)],
        )
    out["sturmian"] = (_sturmian_points, [e.cylinder([0], 2), e.cylinder([0, 1, 4], 2)],
                       [e.CoordinateRead(1), e.CellIndicator(e.cylinder([0, 1], 2), 3)])
    for b in (2, 3):
        out[f"odometer{b}"] = (
            lambda b=b: _odometer_points(b),
            [e.cylinder([0, 1, 2], b), e.cylinder([1, 3], b)],
            [e.CellIndicator(e.cylinder([0, 1, 2], b), 1),
             e.TableObservable(e.cylinder([1, 3], b), tuple(range(b * b)))],
        )
    return out


CASES = {**CIRCLE_CASES, **_symbolic_cases()}
NS = [1, 9, 70]


@pytest.fixture(params=["all", 1, 7])
def chunk(request, monkeypatch):
    """Run the test with chunks of every row, one row or seven rows."""
    if request.param != "all":
        rows = request.param
        monkeypatch.setattr(systems, "_chunk_rows", lambda width: rows)
        monkeypatch.setattr(equicont, "_chunk_rows", lambda width: rows)
    else:
        monkeypatch.setattr(systems, "_CHUNK_BYTES", 1 << 40)
        monkeypatch.setattr(equicont, "_chunk_rows", lambda width: 10**9)
    return request.param


@functools.lru_cache(maxsize=None)
def _reference(name):
    """The per-point reads of one case, computed once for all chunk sizes."""
    make, partitions, observables = CASES[name]
    system, pts = make()
    old = _old_points(system, pts)
    names = {(part, n): np.stack([_old_name(system, part, x, n) for x in old])
             for part in partitions for n in NS}
    values = {(f, n): np.stack([_old_orbit_values(f, system, x, n) for x in old])
              for f in observables for n in NS}
    return system, pts, names, values


@pytest.mark.parametrize("name", sorted(CASES))
def test_name_and_orbit_rows_equal_per_point_reads(name, chunk):
    system, pts, names, values = _reference(name)
    for (part, n), want in names.items():
        got = e.name_rows(system, part, pts, n)
        assert got.dtype == np.int64 and np.array_equal(got, want), (part, n)
        assert np.array_equal(e.name_symbols(system, part, pts[-1], n), want[-1])
    for (f, n), want in values.items():
        got = f.orbit_rows(system, pts, n)
        assert got.dtype == want.dtype and np.array_equal(got, want), (f, n)
        assert np.array_equal(f.orbit_values(system, pts[0], n), want[0])
        assert np.array_equal(e.eval_many(f, system, pts), want[:, 0])


@pytest.mark.parametrize("name", sorted(CASES))
def test_narrow_name_rows_equal_int64_reads(name, chunk):
    """name_rows stored in the narrowest type of a partition's cell indices
    equals its int64 read, for every partition of the case and one of more
    than 256 cells, which needs uint16."""
    system, pts = _reference(name)[:2]
    partitions = CASES[name][1]
    wide = (e.circle_intervals(np.arange(300) / 300) if name in CIRCLE_CASES
            else e.cylinder(range(9), partitions[0].alphabet))
    assert np.min_scalar_type(wide.cell_count - 1) == np.uint16
    for part in partitions + [wide]:
        narrow = np.min_scalar_type(part.cell_count - 1)
        for n in NS:
            got = e.name_rows(system, part, pts, n, dtype=narrow)
            want = e.name_rows(system, part, pts, n)
            assert got.dtype == narrow and np.array_equal(got, want), (part, n)


@pytest.mark.parametrize("name", sorted(CASES))
def test_handle_rows_equal_per_point_reads(name, chunk):
    system, pts = CASES[name][0]()
    old = _old_points(system, pts)
    if system.has_circle_values:
        got = system.rows(pts, 0, 70)
        want = np.stack([_old_value_orbit(system, x, 70) for x in old])
        assert got.dtype == np.float64 and np.array_equal(got, want)
        return
    lo = 0 if system.kind == "odometer" else -5
    for hi in (lo + 1, 64):
        got = system.rows(pts, lo, hi)
        want = np.stack([_old_symbols(system, x, lo, hi) for x in old])
        assert got.dtype == np.int64 and np.array_equal(got, want)
    for x, y, ox, oy in zip(pts, pts[::-1], old, old[::-1]):
        diff = np.nonzero(_old_symbols(system, ox, 0, 64) != _old_symbols(system, oy, 0, 64))[0]
        assert system.metric(x, y) == (2.0 ** -int(diff[0]) if diff.size else 0.0)


@pytest.mark.parametrize("name", ["doubling", "bernoulli2", "bernoulli3", "sturmian",
                                  "odometer2", "odometer3"])
def test_batch_rows_commute_with_slices_and_steps(name, chunk):
    """rows(batch[a:b]) is rows(batch)[a:b], and stepping a batch by k moves
    its reads by k; on an odometer T^i is the cylinder read i steps ahead."""
    system, pts = CASES[name][0]()
    assert isinstance(pts, systems.Points)
    m = len(pts)
    odometer = system.kind == "odometer"
    lo, hi = (0, 20) if odometer else (-3, 20)
    whole = system.rows(pts, lo, hi)
    for a, b in ((0, m), (0, 1), (5, 12), (m - 7, m), (m - 1, m)):
        assert np.array_equal(system.rows(pts[a:b], lo, hi), whole[a:b])
    assert np.array_equal(system.rows(pts[m - 1], lo, hi), whole[m - 1 :])
    assert np.array_equal(system.rows(pts[::-1], lo, hi), whole[::-1])
    for k in (0, 1, 7) if odometer else (0, 1, 7, -2):
        if odometer:
            got = system.cylinder_rows(system.step(pts, k), (0, 1, 3), 9)
            want = system.cylinder_rows(pts, (0, 1, 3), 9 + k)[:, k:]
        else:
            got = system.rows(system.step(pts, k), lo, hi)
            want = system.rows(pts, lo + k, hi + k)
        assert np.array_equal(got, want), k


@pytest.mark.parametrize("base", [2, 3])
def test_odometer_digits_equal_carry_loop(base):
    system, pts = _odometer_points(base)
    for x, p in zip(pts, _old_points(system, pts)):
        for k in (0, 1, -1, 7, -base**6, 10**9, -(10**9)):
            q = system.step(x, k)
            for n in (0, 1, 5, 40):
                want = _old_digits(base, _OldPoint(p.source, p.offset + k), n)
                assert np.array_equal(system.rows(q, 0, n)[0], want)
    with pytest.raises(e.InvalidParameterError):
        system.rows(system.sample_measure(2, PLAN), -1, 3)


def test_stream_reads_equal_index_loops():
    rng = np.random.default_rng(5)
    for v in list(rng.random(40)) + [0.0, 0.5, 2.0**-1074, 1 - 2.0**-53]:
        src = FloatBits.from_float(float(v))
        for lo, hi in ((0, 60), (-7, 3), (50, 1100), (1070, 1080), (-3, -1)):
            # the tail past the float is zero, whatever the stream row holds
            assert np.array_equal(src.read(lo, hi, np.full(hi - lo, -1)), _old_stream(src, lo, hi))
    odd = FloatBits(2**70 + 12345, 75)  # a numerator wider than a float's
    assert np.array_equal(odd.read(-2, 80, np.full(82, -1)), _old_stream(odd, -2, 80))
    # a prefix point reads the stream keyed by its seed, the seed taken mod 2^64
    system = make_system(e.bernoulli_shift(0.7, 3))  # thresholds 0.3, 0.65
    for seed in (11, -1, 2**63 + 5, 2**64 + 11):
        for prefix in ((), (2,), (1, 0, 2, 2, 1)):
            pt = system.point(symbols=prefix, seed=seed)
            old = _OldPrefixSymbols(prefix, _OldHashSymbols(seed, system.thresholds))
            for lo, hi in ((-4, 9), (2, 4), (5, 12), (-3, -1)):
                assert np.array_equal(system.rows(pt, lo, hi)[0], _old_stream(old, lo, hi))


_HALF_DOWN, _HALF_UP = np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)
DOUBLING_CUTS = {
    "halves": HALVES.cuts,
    "quarters": (0.0, 0.25, 0.5, 0.75),
    "refine6": e.refine(HALVES, make_system(e.doubling()), 6).cuts,  # 64 cuts
    "cuts3": CUTS3.cuts,
    "0.1": (0.1,),
    "top": (1 - 2.0**-53,),
    "next-to-half": (_HALF_DOWN, _HALF_UP),
    "below-half": (_HALF_DOWN,),
    "above-half": (_HALF_UP,),
    "zero": (0.0,),
}


@pytest.mark.parametrize("cuts", sorted(DOUBLING_CUTS))
def test_doubling_labels_equal_float_window_read(cuts, chunk):
    """The integer labels of doubling equal the searchsorted labels of the
    53-bit float window values, on sampled, stepped and own points at and
    next to a cut."""
    part = e.circle_intervals(DOUBLING_CUTS[cuts])
    system, pts = _doubling_points()
    near = [v for c in part.cuts for v in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))
            if 0.0 <= v < 1.0]
    pts = pts + _cat([system.point(v) for v in near])
    old = _old_points(system, pts)
    edges = np.asarray(part.cuts)
    for n in NS:
        values = np.stack([_old_value_orbit(system, x, n) for x in old])
        want = old_kernels.circle_labels(edges, values)
        got = e.name_rows(system, part, pts, n)
        assert got.dtype == np.int64 and np.array_equal(got, want), n
        narrow = e.name_rows(system, part, pts, n, dtype=np.min_scalar_type(len(edges) - 1))
        assert narrow.dtype == np.uint8 and np.array_equal(narrow, want), n


@pytest.mark.parametrize("spec, f", [
    (e.doubling(), e.Character(1)),
    (e.doubling(), e.CellIndicator(CUTS3, 0)),
    (e.sturmian(e.GOLDEN), e.CellIndicator(e.cylinder([0, 1], 2), 2)),
    (e.bernoulli_shift(0.3, 3), e.CoordinateRead(0)),
    (e.odometer(3), e.CellIndicator(e.cylinder([0, 1], 3), 4)),
])
def test_eigen_residual_equals_per_point_loop(spec, f):
    system = make_system(spec)
    for lam in (1.0, np.exp(0.7j)):
        assert e.eigen_residual(system, f, lam, 333, PLAN) == \
            _old_eigen_residual(system, f, lam, 333, PLAN)


EXPANSIVITY_CASES = [  # system, observable, delta, horizon
    (e.rotation(e.GOLDEN), e.Character(1), 0.4, 96),
    (e.doubling(), e.CellIndicator(HALVES, 0), 0.5, 96),  # ties at delta
    (e.doubling(), e.Character(2), 0.9, 96),
    (e.bernoulli_shift(0.5), e.CellIndicator(e.cylinder([0], 2), 0), 0.5, 96),
    (e.odometer(2), e.CellIndicator(e.cylinder([0, 1], 2), 3), 0.2, 40),
    (e.rotation(e.GOLDEN), e.Character(3), 1.0, 96),
    (e.doubling(), e.Character(1), 1.2, 96),
]


@functools.lru_cache(maxsize=None)
def _old_expansivity_case(i):
    spec, f, delta, horizon = EXPANSIVITY_CASES[i]
    return _old_expansivity(make_system(spec), f, delta, 100, horizon, PLAN)


@pytest.mark.parametrize("i", range(len(EXPANSIVITY_CASES)))
def test_mean_expansivity_equals_per_pair_loop(i, chunk):
    spec, f, delta, horizon = EXPANSIVITY_CASES[i]
    est = e.mean_expansivity_estimate(make_system(spec), f, delta, 100, horizon, PLAN)
    assert (est.value, est.nonconverged_fraction) == _old_expansivity_case(i)


def test_cylinder_alphabet_checked_on_every_symbolic_family():
    for spec, part in [(e.bernoulli_shift(0.5, 3), e.cylinder([0], 2)),
                       (e.odometer(3), e.cylinder([0, 1], 2))]:
        system = make_system(spec)
        with pytest.raises(e.IncompatiblePartitionError, match="exceed the cylinder alphabet"):
            e.name_rows(system, part, system.sample_measure(50, PLAN), 20)


def _old_verify_limsup(ep, system, target, samples, horizons):
    kind = e.HammingKind if isinstance(target, e.Partition) else e.FbarKind
    mats = {n: e.pairwise_distances(kind(target), system, samples, n) for n in horizons}
    worst, per_cluster = 0.0, []
    for ci, cluster in enumerate(ep.clusters):
        if len(cluster) < 2:
            per_cluster.append((ci, cluster[0] if cluster else -1, -1, 0.0))
            continue
        idx = np.array(cluster)
        subs = [mats[n][np.ix_(idx, idx)] for n in horizons]
        flat = np.triu_indices(len(idx), k=1)
        vals = [e.limit_estimate([s[flat[0][p], flat[1][p]] for s in subs], horizons).value
                for p in range(flat[0].size)]
        pos = int(np.argmax(vals))
        worst = max(worst, float(vals[pos]))
        per_cluster.append((ci, int(idx[flat[0][pos]]), int(idx[flat[1][pos]]), float(vals[pos])))
    return worst, tuple(per_cluster)


@pytest.mark.parametrize("spec, target, eps", [
    (e.rotation(e.GOLDEN), e.Character(1), 0.5),
    (e.rotation(e.GOLDEN), CUTS3, 0.3),
    (e.identity(), TABLE3, 0.8),
])
def test_verify_limsup_equals_per_pair_loop(spec, target, eps):
    system = make_system(spec)
    samples = system.sample_measure(150, PLAN)
    if isinstance(target, e.Partition):
        ep = e.hamming_equipartition(system, target, eps, samples, 64)
    else:
        ep = e.find_equipartition(system, target, eps, samples, 64)
    assert isinstance(ep, e.EquiPartition) and max(map(len, ep.clusters)) > 2
    for horizons in ([4, 16, 64], [10, 20, 30, 90]):
        rep = e.verify_equipartition(ep, system, target, samples, horizons)
        assert (rep.max_pairwise, rep.pair_maxima) == \
            _old_verify_limsup(ep, system, target, samples, horizons)
    with pytest.raises(e.InvalidParameterError):
        e.verify_equipartition(ep, system, target, samples, [64, 16, 4])
