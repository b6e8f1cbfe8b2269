"""Catalog of concrete invertible measure-preserving systems.

Each handle bundles the map T (with inverse), a compatible metric d, and a
deterministic sampler for the invariant measure.  Supported families:

* ``rotation(theta)``      -- circle rotation, Lebesgue measure
* ``doubling``             -- angle doubling realized on its natural
                              extension (two-sided fair-bit streams), so
                              negative iterates are well defined
* ``bernoulli_shift(p,k)`` -- two-sided i.i.d. shift on k symbols
* ``sturmian(theta)``      -- rotation coded by the partition
                              {[0,1-theta), [1-theta,1)}, seen as a subshift
* ``odometer(base)``       -- +1 adding machine with uniform digit measure
* ``identity``             -- identity on the circle

Symbolic points are lazy two-sided streams keyed by (seed, index): repeated
reads of the same index always return the same symbol, and the backward
direction exists, which keeps every catalog map invertible.  Sample sets
are arrays: an ndarray of circle values for rotation and identity, a
``Points`` batch for the stream families.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import BudgetExhaustedError, InvalidParameterError, UnsupportedRefinementError
from .rng import _MASK, RandomPlan, hash64, stream_hash, uniform01

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# comparison window of the first-difference metric on symbol streams
DEFAULT_WINDOW = 64

_TAG_POINT = 101
_TAG_SYMBOL = 7


# ---------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class SystemSpec:
    family: str
    params: tuple = ()
    description: str = ""

    def to_json(self) -> dict:
        names = inspect.signature(_family(self.family).constructor).parameters
        return {"family": self.family, "params": dict(zip(names, self.params))}


def spec_from_json(obj: dict) -> SystemSpec:
    """The spec whose to_json is obj: the family's constructor called with
    the JSON params as keyword arguments."""
    return _family(obj["family"]).constructor(**obj.get("params", {}))


def rotation(theta: float) -> SystemSpec:
    if not 0.0 <= theta < 1.0:
        raise InvalidParameterError(f"rotation angle must lie in [0,1), got {theta}")
    return SystemSpec("rotation", (float(theta),), f"circle rotation by {theta}")


def doubling() -> SystemSpec:
    return SystemSpec("doubling", (), "angle doubling (natural extension)")


def _check_size(size, what: str) -> None:
    """An alphabet size or base: an integer >= 2, never truncated from a float."""
    if not isinstance(size, (int, np.integer)) or size < 2:
        raise InvalidParameterError(f"{what} must be an integer >= 2, got {size!r}")


def bernoulli_shift(p: float, alphabet_size: int = 2) -> SystemSpec:
    if not 0.0 < p < 1.0:
        raise InvalidParameterError(f"bernoulli p must lie in (0,1), got {p}")
    _check_size(alphabet_size, "alphabet_size")
    return SystemSpec(
        "bernoulli_shift",
        (float(p), int(alphabet_size)),
        f"bernoulli({p}) shift on {alphabet_size} symbols",
    )


def sturmian(theta: float) -> SystemSpec:
    if not 0.0 <= theta < 1.0:
        raise InvalidParameterError(f"sturmian angle must lie in [0,1), got {theta}")
    return SystemSpec("sturmian", (float(theta),), f"sturmian coding of rotation by {theta}")


def odometer(base: int) -> SystemSpec:
    _check_size(base, "odometer base")
    return SystemSpec("odometer", (int(base),), f"base-{base} odometer")


def identity() -> SystemSpec:
    return SystemSpec("identity", (), "identity map on the circle")


def is_rational_angle(theta: float, max_den: int = 1000, tol: float = 1e-9) -> bool:
    """Whether theta is indistinguishable from a small-denominator rational.

    Every float is rational; the useful question is whether the orbit
    closes up at working precision.  A continued-fraction convergent with
    denominator <= max_den landing within tol is taken as a yes; badly
    approximable angles (e.g. the golden mean) stay 'irrational'.
    """
    frac = Fraction(theta).limit_denominator(max_den)
    return bool(abs(theta - float(frac)) < tol)


# ---------------------------------------------------------------------------
# Lazy two-sided streams


def _threshold_symbols(h: np.ndarray, thresholds) -> np.ndarray:
    """Symbols from stream hashes: the number of thresholds at or below u."""
    u = uniform01(h)
    out = np.zeros(u.shape, dtype=np.int64)
    for t in thresholds:
        out += u >= t
    return out


@dataclass(frozen=True)
class PrefixSymbols:
    """Finite symbol buffer at indices >= 0 over the point's hash stream."""

    prefix: tuple

    def read(self, lo: int, hi: int, stream: np.ndarray) -> np.ndarray:
        """Symbols lo..hi-1: `stream`, the hash stream's symbols there, with
        the prefix written over indices [0, len(prefix)) in place."""
        a, b = max(lo, 0), min(hi, len(self.prefix))
        if a < b:
            stream[a - lo : b - lo] = self.prefix[a:b]
        return stream


def _top_bits(h: np.ndarray) -> np.ndarray:
    """The top bit of each uint64 hash, as int64, in place on h."""
    return np.right_shift(h, np.uint64(63), out=h).view(np.int64)


@dataclass(frozen=True)
class FloatBits:
    """Binary expansion of a dyadic-precision real in [0,1); zero elsewhere."""

    numerator: int
    exponent: int  # value = numerator / 2**exponent

    @classmethod
    def from_float(cls, x: float) -> "FloatBits":
        if not 0.0 <= x < 1.0:
            raise InvalidParameterError(f"circle value must lie in [0,1), got {x}")
        num, den = float(x).as_integer_ratio()
        return cls(num, den.bit_length() - 1)

    def read(self, lo: int, hi: int, stream: np.ndarray) -> np.ndarray:
        """Bits lo..hi-1.  The tail past the float is zero, so `stream`, the
        point's hash stream there, is not read."""
        out = np.zeros(hi - lo, dtype=np.int64)
        a, b = max(lo, 0), min(hi, self.exponent)
        if a < b:
            # bits a..b-1 are the low b-a bits of numerator >> (exponent-b)
            word = (self.numerator >> (self.exponent - b)) & ((1 << (b - a)) - 1)
            raw = np.frombuffer(word.to_bytes((b - a + 7) // 8, "big"), np.uint8)
            out[a - lo : b - lo] = np.unpackbits(raw)[-(b - a) :]
        return out


# ---------------------------------------------------------------------------
# Point batches


@dataclass(frozen=True, eq=False)
class Points:
    """A batch of stream points as arrays, one entry per point.

    ``keys`` holds each point's stream seed (uint64), or its angle for
    sturmian (float64); ``offsets`` holds each point's origin in its stream
    (int64), or its shift for odometer.  ``own`` lists (row, source) for the
    few user-made points whose source rewrites their stream row: a
    ``PrefixSymbols`` writes its prefix over the row its key hashed, and the
    ``FloatBits`` of a float given to doubling replaces the row (its key is
    0 and not read).  A single point is a batch of one: an integer index
    gives one.
    """

    keys: np.ndarray
    offsets: np.ndarray
    own: tuple = ()

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, k) -> "Points":
        if not isinstance(k, slice):
            k = range(len(self))[k]  # IndexError past either end
            k = slice(k, k + 1)
        own = ()
        if self.own:
            rows = np.arange(len(self))[k]
            own = tuple((int(j), src) for r, src in self.own
                        for j in np.flatnonzero(rows == r))
        return Points(self.keys[k], self.offsets[k], own)

    def __add__(self, other: "Points") -> "Points":
        """The concatenated batch, as for lists."""
        return Points(np.concatenate([self.keys, other.keys]),
                      np.concatenate([self.offsets, other.offsets]),
                      self.own + tuple((r + len(self), s) for r, s in other.own))

    def step(self, k: int) -> "Points":
        return Points(self.keys, self.offsets + k, self.own)

    def read_own(self, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """rows, the stream rows at indices starts[k] + [0, width), with row
        r of each own point read through its source."""
        for r, src in self.own:
            lo = int(starts[r])
            rows[r] = src.read(lo, lo + rows.shape[1], rows[r])
        return rows


def _own_point(source, seed: int = 0) -> Points:
    """A batch of one point whose stream row, keyed by seed, is read
    through `source`."""
    return Points(np.array([seed & _MASK], dtype=np.uint64), np.zeros(1, dtype=np.int64),
                  ((0, source),))


def _frac(v: np.ndarray) -> np.ndarray:
    """v mod 1, in place on a float64 array the caller made; bit for bit
    v % 1.0.  Both round the exact v - floor(v) once (numpy's remainder adds
    1 to the exact fmod below 0), and both give +0.0 on integers and -0.0.
    Like v % 1.0, a tiny negative v gives 1.0."""
    v -= np.floor(v)
    return v


def circle_value(x):
    """Position in [0,1) of a circle value; elementwise on an array (or a
    list) of them.  A tiny negative value, whose remainder rounds up to 1.0,
    is at 0.0."""
    v = _frac(np.array(x, dtype=np.float64))
    v[v == 1.0] = 0.0
    return float(v) if np.isscalar(x) else v


def _arc(a: float, b: float) -> float:
    t = circle_value(abs(a - b))
    return min(t, 1.0 - t)


def _first_difference_metric(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.nonzero(a != b)[0]
    if diff.size == 0:
        return 0.0
    return 2.0 ** (-int(diff[0]))


# ---------------------------------------------------------------------------
# Batched reads
#
# Rows are filled chunk by chunk so that a temporary of one chunk stays near
# _CHUNK_BYTES; every row is computed on its own, so the result does not
# depend on the chunk size.

_CHUNK_BYTES = 1 << 19


def _chunk_rows(width: int) -> int:
    """Rows per chunk when a row of a temporary holds `width` 8-byte items."""
    return max(1, _CHUNK_BYTES // (8 * max(1, width)))


# cap on the bytes of each large array a run builds, charged before it
# allocates (a larger request fails): the m x m arrays of one cover, the
# m x n feature read of a cover, an equipartition or a verify, a
# pairwise_distances matrix and the agreement counts of a Hamming cluster
# (12 bytes per entry), the lag spectrum of a Koopman orbit, and a name run
_MATRIX_BYTES = 1 << 31


def _check_bytes(nbytes: int, what: str) -> None:
    if nbytes > _MATRIX_BYTES:
        raise BudgetExhaustedError(
            f"{what} needs {nbytes} bytes, over the {_MATRIX_BYTES}-byte cap")


def _batched(m: int, tail: tuple, dtype, read, width=None) -> np.ndarray:
    """An (m, *tail) array of type `dtype` whose rows a..b-1 are read(a, b),
    cast as each chunk is stored; `width` is the row width, in 8-byte items,
    of read's widest temporary, by default the size of a row."""
    out = np.empty((m,) + tail, dtype=dtype)
    step = _chunk_rows(width or int(np.prod(tail)))
    for a in range(0, m, step):
        out[a : a + step] = read(a, min(a + step, m))
    return out


_VALUE_BITS = 53
# cut depth K up to which doubling looks its labels up in a table of all
# 2^K window labels (512 KB at 16)
_TABLE_DEPTH = 16


def _window_words(bits: np.ndarray, n: int, width: int) -> np.ndarray:
    """Integer sum_k bits[:, i+k] 2^(width-1-k) of the width-bit window at
    each i < n, for 1 <= width <= 53; bits has n + width - 1 columns.

    Windows of doubling widths 1, 2, 4, ... are each built from the one
    before, and the word joins the windows of the widths in the binary
    expansion of `width`, the widest leading.
    """
    word = None
    w, size, end = bits, 1, width
    while True:
        if width & size:
            end -= size
            piece = w[:, end : end + n] << (width - end - size)
            if word is None:
                word = piece
            else:
                word += piece
        if 2 * size > width:
            return word
        w = (w[:, :-size] << size) + w[:, size:]
        size *= 2


def _window_values(bits: np.ndarray, n: int) -> np.ndarray:
    """Value sum_k bits[:, i+k] 2^-(k+1) of the 53-bit window at each i < n:
    the window's integer W times 2^-53, exact because W < 2^53."""
    return _window_words(bits, n, _VALUE_BITS) * 2.0**-_VALUE_BITS


def _circle_labels(cuts: np.ndarray, values: np.ndarray) -> np.ndarray:
    # half-open [c_i, c_{i+1}) cells, wrapping at 1: the count of cuts c <= v
    # is i + 1 in cell i, and 0 below the first cut, which is in the last
    # cell.  The count is summed one comparison per cut in the narrowest type
    # that holds len(cuts), and the wrap table is of that type.  Every index
    # is in the table, so "clip" changes nothing but skips the checked copy
    # that take makes of `out` under its default mode.
    labels = np.zeros(values.shape, dtype=np.min_scalar_type(len(cuts)))
    for c in cuts:
        labels += values >= c
    wrap = ((np.arange(len(cuts) + 1) - 1) % len(cuts)).astype(labels.dtype)
    return np.take(wrap, labels, out=labels, mode="clip")


def _carry(t: np.ndarray, base: int) -> np.ndarray:
    """Base-b digits, least significant first along the last axis, of
    sum_j t[..., j] b^j mod b^width.  Entries may be any integers; negative
    ones borrow (floor division), as the odometer's -1 = ...(b-1)(b-1)."""
    while True:
        c = t[..., :-1] // base
        if not c.any():
            return t % base
        t[..., :-1] -= c * base
        t[..., 1:] += c


# ---------------------------------------------------------------------------
# Handles


class SystemHandle:
    """Immutable bundle (T, T^{-1}, d, sampler) for one catalog family.

    Every operation takes a batch: an ndarray of circle values (rotation,
    identity) or a ``Points`` batch (the stream families).  The single-point
    forms take a batch of one, or anything ``as_batch`` turns into one.
    """

    kind = "abstract"
    # stream positions a row reads beyond hi - lo (the doubling's value window)
    _row_margin = 0

    def __init__(self, spec: SystemSpec):
        self.spec = spec

    def as_batch(self, x):
        """x as a batch: a Points batch as it is, a circle value or an array
        of them as a float64 array."""
        if isinstance(x, Points):
            return x
        return np.asarray(x, dtype=np.float64).reshape(-1)

    def step(self, x, k: int = 1):
        """T^k of every point of x."""
        return self.as_batch(x).step(k)

    def orbit(self, x, n: int) -> list:
        if n < 1:
            raise InvalidParameterError("orbit length must be >= 1")
        return [self.step(x, i) for i in range(n)]

    def metric(self, x, y) -> float:
        """Arc distance of the circle positions of two points."""
        return _arc(self.value_orbit(x, 1)[0], self.value_orbit(y, 1)[0])

    def sample_measure(self, count: int, plan: RandomPlan):
        """A batch of `count` points drawn from the invariant measure, as a
        pure function of (plan, index)."""
        if count < 1:
            raise InvalidParameterError("sample count must be >= 1")
        return self._sample(count, plan)

    def _sample(self, count: int, plan: RandomPlan):
        # the stream families' sampler: one stream seed per point, origin 0
        return Points(hash64(plan.master_seed, _TAG_POINT, np.arange(count)),
                      np.zeros(count, dtype=np.int64))

    def rows(self, points, lo: int, hi: int) -> np.ndarray:
        """The batched read every estimator goes through: row k holds
        positions lo..hi-1 of points[k], as circle values of T^i x (circle
        kinds, float64) or as symbols x_i (shift and odometer kinds, int64).
        The one read that takes a start, which may be negative (the past);
        every read derived from it starts at position 0.
        Circle partitions read their labels through `circle_labels`, which
        reads these values or, on doubling, the bits the cuts need."""
        dtype = np.float64 if self.has_circle_values else np.int64
        return _batched(len(points), (hi - lo,), dtype,
                        lambda a, b: self._rows(points[a:b], lo, hi),
                        hi - lo + self._row_margin)

    def _rows(self, points, lo: int, hi: int) -> np.ndarray:
        raise NotImplementedError(f"{self.kind} systems have no batched read")

    def circle_labels(self, points, cuts, n: int, dtype=np.int64) -> np.ndarray:
        """(m, n) labels of type `dtype`: row k holds the cells of T^i
        points[k] for 0 <= i < n in the partition of the sorted cuts (see
        `_circle_labels`).  Each chunk's labels, in the narrowest type that
        holds the cut count, are stored into the output as they are read."""
        cuts = np.asarray(cuts)
        return _batched(len(points), (n,), dtype,
                        lambda a, b: _circle_labels(cuts, self.rows(points[a:b], 0, n)))

    def value_orbit(self, x, n: int) -> np.ndarray:
        """Circle positions of x, Tx, ..., T^{n-1}x (circle families only)."""
        if not self.has_circle_values:
            raise NotImplementedError(f"{self.kind} systems have no circle values")
        return self.rows(self.as_batch(x), 0, n)[0]

    @property
    def has_circle_values(self) -> bool:
        return self.kind == "circle"

    def _cut_preimages(self, c: float, k: int) -> list:
        """The points of T^{-k}{c}, for refining circle partitions."""
        raise UnsupportedRefinementError(
            f"circle refinement not supported for {self.spec.family}"
        )


class RotationSystem(SystemHandle):
    kind = "circle"

    @property
    def theta(self) -> float:
        return self.spec.params[0]

    def step(self, x, k: int = 1):
        return circle_value(circle_value(x) + k * self.theta)

    def _sample(self, count: int, plan: RandomPlan) -> np.ndarray:
        return plan.uniforms(_TAG_POINT, np.arange(count))

    def _rows(self, points, lo: int, hi: int) -> np.ndarray:
        v = _frac(np.add.outer(circle_value(points), np.arange(lo, hi) * self.theta))
        # x + j theta >= 0 keeps every value at j >= 0 below 1; only a value
        # at j < 0 can round up to 1.0
        past = v[:, : max(0, -lo)]
        past[past == 1.0] = 0.0
        return v

    def _cut_preimages(self, c: float, k: int) -> list:
        return [circle_value(c - k * self.theta)]


class IdentitySystem(RotationSystem):
    """The rotation by 0."""

    theta = 0.0


class DoublingSystem(SystemHandle):
    kind = "circle"
    _row_margin = _VALUE_BITS - 1

    def as_batch(self, x) -> Points:
        return x if isinstance(x, Points) else self.point(x)

    def point(self, value: float) -> Points:
        """The point at circle value `value` in [0,1), read from the binary
        expansion of the float."""
        return _own_point(FloatBits.from_float(float(value)))

    def _bits(self, points, starts, width) -> np.ndarray:
        """Row k holds bits starts[k] + [0, width) of points[k]'s stream."""
        hashes = stream_hash(points.keys, _TAG_SYMBOL, starts, width)
        return points.read_own(_top_bits(hashes), starts)

    def _rows(self, points, lo: int, hi: int) -> np.ndarray:
        # the value of T^i x is the 53-bit window of x's bits at offset + i
        bits = self._bits(points, points.offsets + lo, hi - lo + self._row_margin)
        return _window_values(bits, hi - lo)

    def circle_labels(self, points, cuts, n: int, dtype=np.int64) -> np.ndarray:
        # Labels from the integer V of the first K bits of each 53-bit window
        # W, K the cuts' largest dyadic depth clamped to [1, 53].  W 2^-53 >= c
        # exactly when V >= ceil(c 2^K): below the cap every cut is a multiple
        # of 2^-K, so no cut lies inside the 2^-K cell that V names; at K = 53,
        # V is W.  The labels equal those of the float values, and a row reads
        # only n + K - 1 bits.  Up to _TABLE_DEPTH, V is looked up in the
        # labels of all 2^K words, built once and cast once to the words'
        # int64.  Each chunk's labels are stored into the `dtype` output as
        # they are read.
        ratios = [float(c).as_integer_ratio() for c in cuts]
        depth = max(den.bit_length() - 1 for _, den in ratios)
        depth = min(_VALUE_BITS, max(1, depth))
        thresholds = np.array([-((-num << depth) // den) for num, den in ratios])
        if depth <= _TABLE_DEPTH:
            table = _circle_labels(thresholds, np.arange(2**depth)).astype(np.int64)

        def read(a, b):
            part = points[a:b]
            bits = self._bits(part, part.offsets, n + depth - 1)
            words = _window_words(bits, n, depth)
            if depth > _TABLE_DEPTH:
                return _circle_labels(thresholds, words)
            return np.take(table, words, out=words, mode="clip")

        return _batched(len(points), (n,), dtype, read, n + depth - 1)

    def _cut_preimages(self, c: float, k: int) -> list:
        return [(c + j) / 2**k for j in range(2**k)]


class _SymbolSystem(SystemHandle):
    """Shared parts of the symbolic families: the first-difference metric
    over DEFAULT_WINDOW symbols and the shift's coordinate read."""

    def metric(self, x, y) -> float:
        return _first_difference_metric(*self.rows(x + y, 0, DEFAULT_WINDOW))

    def cylinder_rows(self, points, coords, n: int) -> np.ndarray:
        """(m, n, len(coords)): coordinate c of T^i points[k] at [k, i, j],
        for 0 <= i < n and the sorted coords; on a shift it is symbol i + c,
        read through `rows`, so a negative c reads the past."""
        first, last = coords[0], coords[-1]
        window = self.rows(points, first, last + n)
        cols = np.lib.stride_tricks.sliding_window_view(window, last - first + 1, axis=1)[:, :n]
        if len(coords) == last - first + 1:  # consecutive coords: a view
            return cols
        return cols[:, :, [c - first for c in coords]]

    def _symbol_rows(self, points, starts, width) -> np.ndarray:
        """Row k holds symbols starts[k] + [0, width) of the hash stream
        keyed by points.keys[k]; own points read their own streams."""
        hashes = stream_hash(points.keys, _TAG_SYMBOL, starts, width)
        return points.read_own(_threshold_symbols(hashes, self.thresholds), starts)

    def _prefix_point(self, prefix, seed: int) -> Points:
        """The point whose symbols are `prefix` from index 0 on, and the
        stream keyed by seed elsewhere."""
        return _own_point(PrefixSymbols(tuple(prefix)), seed)


class BernoulliSystem(_SymbolSystem):
    kind = "shift"

    def __init__(self, spec: SystemSpec):
        super().__init__(spec)
        self.p, self.alphabet = spec.params
        if self.alphabet == 2:
            probs = (1.0 - self.p, self.p)
        else:
            # symbol 0 carries mass 1-p; the rest share p equally
            rest = self.p / (self.alphabet - 1)
            probs = (1.0 - self.p,) + (rest,) * (self.alphabet - 1)
        self.thresholds = tuple(np.cumsum(probs)[:-1])

    def point(self, symbols=(), seed: int = 0) -> Points:
        return self._prefix_point(symbols, seed)

    def _rows(self, points, lo: int, hi: int) -> np.ndarray:
        return self._symbol_rows(points, points.offsets + lo, hi - lo)


class SturmianSystem(_SymbolSystem):
    kind = "shift"

    def __init__(self, spec: SystemSpec):
        super().__init__(spec)
        self.theta = spec.params[0]

    def point(self, angle: float) -> Points:
        return Points(np.array([circle_value(angle)]), np.zeros(1, dtype=np.int64))

    def _sample(self, count: int, plan: RandomPlan) -> Points:
        return Points(plan.uniforms(_TAG_POINT, np.arange(count)),
                      np.zeros(count, dtype=np.int64))

    def _rows(self, points, lo: int, hi: int) -> np.ndarray:
        k = points.offsets[:, None] + np.arange(lo, hi)
        pos = _frac(points.keys[:, None] + k * self.theta)
        return (pos >= 1.0 - self.theta).astype(np.int64)


class OdometerSystem(_SymbolSystem):
    kind = "odometer"

    def __init__(self, spec: SystemSpec):
        super().__init__(spec)
        self.base = spec.params[0]
        self.thresholds = tuple(np.arange(1, self.base) / self.base)

    def point(self, digits=(), seed: int = 0) -> Points:
        return self._prefix_point(digits, seed)

    def _digits(self, points, width: int, ahead: int) -> np.ndarray:
        """(m, ahead, width): the low `width` digits of points[k] + i for
        i < ahead, in this handle's base.  Carries only move upward, so
        these are the base-b digits of (X + shift + i) mod b^width, X the
        value of the stream's first `width` digits: the stream digits plus
        shift + i, carried."""
        raw = self._symbol_rows(points, np.zeros(len(points), dtype=np.int64), width)
        t = np.repeat(raw[:, None, :], ahead, axis=1)
        t[:, :, :1] += (points.offsets[:, None] + np.arange(ahead))[:, :, None]
        return _carry(t, self.base)

    def _rows(self, points, lo: int, hi: int) -> np.ndarray:
        if lo < 0:
            raise InvalidParameterError("odometer digits have nonnegative indices")
        return self._digits(points, hi, 1)[:, 0, lo:]

    def cylinder_rows(self, points, coords, n: int) -> np.ndarray:
        if coords[0] < 0:
            raise InvalidParameterError("odometer digits have nonnegative indices")
        return self._digits(points, coords[-1] + 1, n)[:, :, list(coords)]


class _Family(NamedTuple):
    constructor: Callable[..., SystemSpec]
    handle: type


# the one listing of the catalog: a new family is its constructor, its
# handle class and one entry here
_FAMILIES = {
    "rotation": _Family(rotation, RotationSystem),
    "identity": _Family(identity, IdentitySystem),
    "doubling": _Family(doubling, DoublingSystem),
    "bernoulli_shift": _Family(bernoulli_shift, BernoulliSystem),
    "sturmian": _Family(sturmian, SturmianSystem),
    "odometer": _Family(odometer, OdometerSystem),
}


def _family(name: str) -> _Family:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise InvalidParameterError(f"unknown system family {name!r}") from None


def make_system(spec: SystemSpec) -> SystemHandle:
    """Construct the handle for a validated spec; construction is pure."""
    return _family(spec.family).handle(spec)
