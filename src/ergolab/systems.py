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
* ``product(a, b)``        -- direct product, max metric

Symbolic points are lazy two-sided streams keyed by (seed, index): repeated
reads of the same index always return the same symbol, and the backward
direction exists, which keeps every catalog map invertible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from .errors import BudgetExhaustedError, InvalidParameterError, UnsupportedRefinementError
from .rng import RandomPlan, hash64, uniform01, zigzag

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

# comparison window of the first-difference metric on symbol streams
DEFAULT_WINDOW = 64

_TAG_POINT = 101
_TAG_SYMBOL = 7
_TAG_LEFT = 11
_TAG_RIGHT = 12


# ---------------------------------------------------------------------------
# Specs


@dataclass(frozen=True)
class SystemSpec:
    family: str
    params: tuple = ()
    description: str = ""

    def to_json(self) -> dict:
        return {"family": self.family, "params": _params_json(self)}


def _params_json(spec: SystemSpec) -> dict:
    f = spec.family
    p = spec.params
    if f in ("rotation", "sturmian"):
        return {"theta": p[0]}
    if f == "bernoulli_shift":
        return {"p": p[0], "alphabet_size": p[1]}
    if f == "odometer":
        return {"base": p[0]}
    if f == "product":
        return {"left": p[0].to_json(), "right": p[1].to_json()}
    return {}


def spec_from_json(obj: dict) -> SystemSpec:
    family = obj["family"]
    params = obj.get("params", {})
    if family == "rotation":
        return rotation(params["theta"])
    if family == "sturmian":
        return sturmian(params["theta"])
    if family == "doubling":
        return doubling()
    if family == "bernoulli_shift":
        return bernoulli_shift(params["p"], params.get("alphabet_size", 2))
    if family == "odometer":
        return odometer(params["base"])
    if family == "identity":
        return identity()
    if family == "product":
        return product(spec_from_json(params["left"]), spec_from_json(params["right"]))
    raise InvalidParameterError(f"unknown system family {family!r}")


def rotation(theta: float) -> SystemSpec:
    if not 0.0 <= theta < 1.0:
        raise InvalidParameterError(f"rotation angle must lie in [0,1), got {theta}")
    return SystemSpec("rotation", (float(theta),), f"circle rotation by {theta}")


def doubling() -> SystemSpec:
    return SystemSpec("doubling", (), "angle doubling (natural extension)")


def bernoulli_shift(p: float, alphabet_size: int = 2) -> SystemSpec:
    if not 0.0 < p < 1.0:
        raise InvalidParameterError(f"bernoulli p must lie in (0,1), got {p}")
    if alphabet_size < 2:
        raise InvalidParameterError("alphabet_size must be >= 2")
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
    if base < 2:
        raise InvalidParameterError(f"odometer base must be >= 2, got {base}")
    return SystemSpec("odometer", (int(base),), f"base-{base} odometer")


def identity() -> SystemSpec:
    return SystemSpec("identity", (), "identity map on the circle")


def product(left: SystemSpec, right: SystemSpec) -> SystemSpec:
    return SystemSpec("product", (left, right), "direct product")


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


@dataclass(frozen=True)
class HashSymbols:
    """Two-sided i.i.d. symbol stream: symbol(i) = F(seed, i), recomputable."""

    seed: int
    thresholds: tuple  # cumulative probabilities, length alphabet-1

    def symbols(self, lo: int, hi: int) -> np.ndarray:
        idx = zigzag(np.arange(lo, hi, dtype=np.int64))
        return _threshold_symbols(hash64(self.seed, _TAG_SYMBOL, idx), self.thresholds)


def _threshold_symbols(h: np.ndarray, thresholds) -> np.ndarray:
    """Symbols from stream hashes: the number of thresholds at or below u."""
    u = uniform01(h)
    out = np.zeros(u.shape, dtype=np.int64)
    for t in thresholds:
        out += u >= t
    return out


@dataclass(frozen=True)
class PrefixSymbols:
    """Finite symbol buffer at indices >= 0, extended lazily by a hash stream."""

    prefix: tuple
    tail: HashSymbols

    def symbols(self, lo: int, hi: int) -> np.ndarray:
        out = self.tail.symbols(lo, hi)
        a, b = max(lo, 0), min(hi, len(self.prefix))
        if a < b:
            out[a - lo : b - lo] = self.prefix[a:b]
        return out


@dataclass(frozen=True)
class HashBits:
    """Two-sided fair-bit stream for doubling points sampled from Lebesgue."""

    seed: int

    def bits(self, lo: int, hi: int) -> np.ndarray:
        idx = zigzag(np.arange(lo, hi, dtype=np.int64))
        return _top_bits(hash64(self.seed, _TAG_SYMBOL, idx))


def _top_bits(h: np.ndarray) -> np.ndarray:
    return (h >> np.uint64(63)).astype(np.int64)


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

    def bits(self, lo: int, hi: int) -> np.ndarray:
        out = np.zeros(hi - lo, dtype=np.int64)
        a, b = max(lo, 0), min(hi, self.exponent)
        if a < b:
            # bits a..b-1 are the low b-a bits of numerator >> (exponent-b)
            word = (self.numerator >> (self.exponent - b)) & ((1 << (b - a)) - 1)
            raw = np.frombuffer(word.to_bytes((b - a + 7) // 8, "big"), np.uint8)
            out[a - lo : b - lo] = np.unpackbits(raw)[-(b - a) :]
        return out


# ---------------------------------------------------------------------------
# Points

_VALUE_BITS = 53
_BIT_WEIGHTS = 0.5 ** np.arange(1, _VALUE_BITS + 1)


@dataclass(frozen=True)
class DoublingPoint:
    """Point of the doubling map's natural extension: a bit stream + origin."""

    source: Any
    offset: int = 0

    @property
    def value(self) -> float:
        b = self.source.bits(self.offset, self.offset + _VALUE_BITS)
        return float(b @ _BIT_WEIGHTS)

    def bits(self, lo: int, hi: int) -> np.ndarray:
        return self.source.bits(self.offset + lo, self.offset + hi)

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class ShiftPoint:
    """Point of a two-sided shift: a symbol stream read from a moving origin."""

    source: Any
    alphabet: int
    offset: int = 0

    def symbols(self, lo: int, hi: int) -> np.ndarray:
        return self.source.symbols(self.offset + lo, self.offset + hi)


@dataclass(frozen=True)
class SturmianPoint:
    """Sturmian sequence coded from a base angle; the shift moves the origin."""

    angle: float
    theta: float
    offset: int = 0

    def symbols(self, lo: int, hi: int) -> np.ndarray:
        k = np.arange(self.offset + lo, self.offset + hi)
        pos = (self.angle + k * self.theta) % 1.0
        return (pos >= 1.0 - self.theta).astype(np.int64)


@dataclass(frozen=True)
class OdometerPoint:
    """Base-b digit stream plus an integer shift applied with carries."""

    source: Any
    base: int
    shift: int = 0

    def digits(self, n: int) -> np.ndarray:
        t = self.source.symbols(0, n).astype(np.int64)
        t[:1] += self.shift
        return _carry(t, self.base)

    def symbols(self, lo: int, hi: int) -> np.ndarray:
        if lo < 0:
            raise InvalidParameterError("odometer digits have nonnegative indices")
        return self.digits(hi)[lo:hi]


def circle_value(x) -> float:
    """Position in [0,1) of a circle-family point; elementwise on an array
    of raw circle values."""
    if isinstance(x, DoublingPoint):
        return x.value
    if isinstance(x, np.ndarray):
        return x % 1.0
    return float(x) % 1.0


def _arc(a: float, b: float) -> float:
    t = abs(a - b) % 1.0
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


# cap on the bytes of the m x m arrays of one cover (its distance matrix,
# ball matrix and greedy copy); a larger request fails before it allocates
_MATRIX_BYTES = 1 << 31


def _check_bytes(nbytes: int, what: str) -> None:
    if nbytes > _MATRIX_BYTES:
        raise BudgetExhaustedError(
            f"{what} needs {nbytes} bytes, over the {_MATRIX_BYTES}-byte cap")


def _batched(m: int, tail: tuple, dtype, read, width=None) -> np.ndarray:
    """An (m, *tail) array whose rows a..b-1 are read(a, b); `width` is the
    row width of read's widest temporary, by default the size of a row."""
    out = np.empty((m,) + tail, dtype=dtype)
    step = _chunk_rows(width or int(np.prod(tail)))
    for a in range(0, m, step):
        out[a : a + step] = read(a, min(a + step, m))
    return out


def _stream_rows(sources, starts, width, plain, decode, read_own) -> np.ndarray:
    """Row k reads sources[k] at indices starts[k] + [0, width).

    Sources for which plain(source) holds are hash streams: their rows come
    from one broadcast hash, mapped to stream values by decode.  Any other
    source reads its own row with read_own(source, lo, hi).
    """
    flags = [plain(s) for s in sources]
    seeds = np.array([s.seed if f else 0 for s, f in zip(sources, flags)], np.uint64)
    idx = np.asarray(starts, dtype=np.int64)[:, None] + np.arange(width)
    rows = decode(hash64(seeds[:, None], _TAG_SYMBOL, zigzag(idx)))
    for k, f in enumerate(flags):
        if not f:
            rows[k] = read_own(sources[k], starts[k], starts[k] + width)
    return rows


def _window_values(bits: np.ndarray, n: int) -> np.ndarray:
    """Value sum_k bits[:, i+k] 2^-(k+1) of the 53-bit window at each i < n.

    The window is built as a 53-bit integer (32+16+4+1 bits from windows of
    doubling width), so the value is exact and equals the dot product with
    _BIT_WEIGHTS, whose partial sums are all exact too.
    """
    w2 = 2 * bits[:, :-1] + bits[:, 1:]
    w4 = 4 * w2[:, :-2] + w2[:, 2:]
    w8 = 16 * w4[:, :-4] + w4[:, 4:]
    w16 = 256 * w8[:, :-8] + w8[:, 8:]
    w32 = 65536 * w16[:, :-16] + w16[:, 16:]
    word = (
        (w32[:, :n] << 21)
        + (w16[:, 32 : 32 + n] << 5)
        + (w4[:, 48 : 48 + n] << 1)
        + bits[:, 52 : 52 + n]
    )
    return word * 2.0**-_VALUE_BITS


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


def _circle_values(points) -> np.ndarray:
    if isinstance(points, np.ndarray):
        return points % 1.0
    return np.array([circle_value(x) for x in points], dtype=np.float64)


# ---------------------------------------------------------------------------
# Handles


class SystemHandle:
    """Immutable bundle (T, T^{-1}, d, sampler) for one catalog family."""

    kind = "abstract"
    spec: SystemSpec
    # stream positions a row reads beyond hi - lo (the doubling's value window)
    _row_margin = 0

    def step(self, x, k: int = 1):
        raise NotImplementedError

    def orbit(self, x, n: int) -> list:
        if n < 1:
            raise InvalidParameterError("orbit length must be >= 1")
        return [self.step(x, i) for i in range(n)]

    def metric(self, x, y) -> float:
        raise NotImplementedError

    def sample_measure(self, count: int, plan: RandomPlan):
        """`count` points drawn from the invariant measure, as a pure
        function of (plan, index)."""
        if count < 1:
            raise InvalidParameterError("sample count must be >= 1")
        return self._sample(count, plan)

    def _sample(self, count: int, plan: RandomPlan):
        raise NotImplementedError

    def rows(self, points, lo: int, hi: int) -> np.ndarray:
        """The one batched read every estimator goes through: row k holds
        positions lo..hi-1 of points[k], as circle values of T^i x (circle
        kinds, float64) or as symbols x_i (shift and odometer kinds, int64)."""
        dtype = np.float64 if self.has_circle_values else np.int64
        return _batched(len(points), (hi - lo,), dtype,
                        lambda a, b: self._rows(points[a:b], lo, hi),
                        hi - lo + self._row_margin)

    def _rows(self, points, lo: int, hi: int) -> np.ndarray:
        raise NotImplementedError(f"{self.kind} systems have no batched read")

    def value_orbit(self, x, n: int) -> np.ndarray:
        """Circle positions of x, Tx, ..., T^{n-1}x (circle families only)."""
        if not self.has_circle_values:
            raise NotImplementedError(f"{self.kind} systems have no circle values")
        return self.rows([x], 0, n)[0]

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

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.theta = spec.params[0]
        self.rational_angle = is_rational_angle(self.theta)

    def step(self, x, k: int = 1):
        return (circle_value(x) + k * self.theta) % 1.0

    def metric(self, x, y) -> float:
        return _arc(circle_value(x), circle_value(y))

    def _sample(self, count: int, plan: RandomPlan) -> np.ndarray:
        return plan.uniforms(_TAG_POINT, np.arange(count))

    def _rows(self, points, lo: int, hi: int) -> np.ndarray:
        return (_circle_values(points)[:, None] + np.arange(lo, hi) * self.theta) % 1.0

    def _cut_preimages(self, c: float, k: int) -> list:
        return [(c - k * self.theta) % 1.0]


class IdentitySystem(SystemHandle):
    kind = "circle"

    def __init__(self, spec: SystemSpec):
        self.spec = spec

    def step(self, x, k: int = 1):
        return circle_value(x)

    def metric(self, x, y) -> float:
        return _arc(circle_value(x), circle_value(y))

    def _sample(self, count: int, plan: RandomPlan) -> np.ndarray:
        return plan.uniforms(_TAG_POINT, np.arange(count))

    def _rows(self, points, lo: int, hi: int) -> np.ndarray:
        return np.repeat(_circle_values(points)[:, None], hi - lo, axis=1)

    def _cut_preimages(self, c: float, k: int) -> list:
        return [c]


class DoublingSystem(SystemHandle):
    kind = "circle"
    _row_margin = _VALUE_BITS - 1

    def __init__(self, spec: SystemSpec):
        self.spec = spec

    def _as_point(self, x) -> DoublingPoint:
        if isinstance(x, DoublingPoint):
            return x
        return DoublingPoint(FloatBits.from_float(float(x)))

    def step(self, x, k: int = 1) -> DoublingPoint:
        p = self._as_point(x)
        return DoublingPoint(p.source, p.offset + k)

    def metric(self, x, y) -> float:
        return _arc(circle_value(self._as_point(x)), circle_value(self._as_point(y)))

    def _sample(self, count: int, plan: RandomPlan) -> list:
        seeds = hash64(plan.master_seed, _TAG_POINT, np.arange(count))
        return [DoublingPoint(HashBits(int(s))) for s in seeds]

    def _rows(self, points, lo: int, hi: int) -> np.ndarray:
        # the value of T^i x is the 53-bit window of x's bits at offset + i
        pts = [self._as_point(x) for x in points]
        bits = _stream_rows(
            [p.source for p in pts], [p.offset + lo for p in pts], hi - lo + self._row_margin,
            lambda s: isinstance(s, HashBits), _top_bits, lambda s, a, b: s.bits(a, b),
        )
        return _window_values(bits, hi - lo)

    def _cut_preimages(self, c: float, k: int) -> list:
        return [(c + j) / 2**k for j in range(2**k)]


class _SymbolSystem(SystemHandle):
    """Shared parts of the symbolic families: the first-difference metric
    over DEFAULT_WINDOW symbols and the shift's coordinate read."""

    def metric(self, x, y) -> float:
        return _first_difference_metric(*self.rows([x, y], 0, DEFAULT_WINDOW))

    def cylinder_rows(self, points, coords, n: int) -> np.ndarray:
        """(m, n, len(coords)): coordinate c of T^i points[k] at [k, i, j],
        for the sorted coords; on a shift it is symbol i + c."""
        lo, hi = coords[0], coords[-1]
        window = self.rows(points, lo, hi + n)
        cols = np.lib.stride_tricks.sliding_window_view(window, hi - lo + 1, axis=1)[:, :n]
        if len(coords) == hi - lo + 1:  # consecutive coords: a view
            return cols
        return cols[:, :, [c - lo for c in coords]]

    def _hash_symbols(self, sources, starts, width) -> np.ndarray:
        """Symbol stream rows; sources other than this handle's own plain
        hash streams (a prefix, other thresholds) read themselves."""
        return _stream_rows(
            sources, starts, width,
            lambda s: isinstance(s, HashSymbols) and s.thresholds == self.thresholds,
            lambda h: _threshold_symbols(h, self.thresholds),
            lambda s, a, b: s.symbols(a, b),
        )


class BernoulliSystem(_SymbolSystem):
    kind = "shift"

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.p, self.alphabet = spec.params
        if self.alphabet == 2:
            probs = (1.0 - self.p, self.p)
        else:
            # symbol 0 carries mass 1-p; the rest share p equally
            rest = self.p / (self.alphabet - 1)
            probs = (1.0 - self.p,) + (rest,) * (self.alphabet - 1)
        self.thresholds = tuple(np.cumsum(probs)[:-1])

    def point(self, symbols=(), seed: int = 0) -> ShiftPoint:
        src = PrefixSymbols(tuple(symbols), HashSymbols(seed, self.thresholds))
        return ShiftPoint(src, self.alphabet)

    def step(self, x: ShiftPoint, k: int = 1) -> ShiftPoint:
        return ShiftPoint(x.source, x.alphabet, x.offset + k)

    def _sample(self, count: int, plan: RandomPlan) -> list:
        seeds = hash64(plan.master_seed, _TAG_POINT, np.arange(count))
        return [
            ShiftPoint(HashSymbols(int(s), self.thresholds), self.alphabet)
            for s in seeds
        ]

    def _rows(self, points, lo: int, hi: int) -> np.ndarray:
        return self._hash_symbols([p.source for p in points],
                                  [p.offset + lo for p in points], hi - lo)


class SturmianSystem(_SymbolSystem):
    kind = "shift"

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.theta = spec.params[0]
        self.rational_angle = is_rational_angle(self.theta)

    def point(self, angle: float) -> SturmianPoint:
        return SturmianPoint(float(angle) % 1.0, self.theta)

    def step(self, x: SturmianPoint, k: int = 1) -> SturmianPoint:
        return SturmianPoint(x.angle, x.theta, x.offset + k)

    def _sample(self, count: int, plan: RandomPlan) -> list:
        angles = plan.uniforms(_TAG_POINT, np.arange(count))
        return [SturmianPoint(float(a), self.theta) for a in angles]

    def _rows(self, points, lo: int, hi: int) -> np.ndarray:
        angle = np.array([p.angle for p in points], dtype=np.float64)[:, None]
        theta = np.array([p.theta for p in points], dtype=np.float64)[:, None]
        k = np.array([p.offset for p in points], dtype=np.int64)[:, None] + np.arange(lo, hi)
        return ((angle + k * theta) % 1.0 >= 1.0 - theta).astype(np.int64)


class OdometerSystem(_SymbolSystem):
    kind = "odometer"

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.base = spec.params[0]
        self.thresholds = tuple(np.arange(1, self.base) / self.base)

    def point(self, digits=(), seed: int = 0) -> OdometerPoint:
        src = PrefixSymbols(tuple(digits), HashSymbols(seed, self.thresholds))
        return OdometerPoint(src, self.base)

    def step(self, x: OdometerPoint, k: int = 1) -> OdometerPoint:
        return OdometerPoint(x.source, x.base, x.shift + k)

    def _sample(self, count: int, plan: RandomPlan) -> list:
        seeds = hash64(plan.master_seed, _TAG_POINT, np.arange(count))
        return [
            OdometerPoint(HashSymbols(int(s), self.thresholds), self.base)
            for s in seeds
        ]

    def _digits(self, points, width: int, ahead: int) -> np.ndarray:
        """(m, ahead, width): the low `width` digits of points[k] + i for
        i < ahead, in this handle's base.  Carries only move upward, so
        these are the base-b digits of (X + shift + i) mod b^width, X the
        value of the stream's first `width` digits: the stream digits plus
        shift + i, carried."""
        raw = self._hash_symbols([p.source for p in points], [0] * len(points), width)
        t = np.repeat(raw[:, None, :], ahead, axis=1)
        shift = np.array([p.shift for p in points], dtype=np.int64)[:, None]
        t[:, :, 0] += shift + np.arange(ahead)
        return _carry(t, self.base)

    def _rows(self, points, lo: int, hi: int) -> np.ndarray:
        if lo < 0:
            raise InvalidParameterError("odometer digits have nonnegative indices")
        return self._digits(points, hi, 1)[:, 0, lo:]

    def cylinder_rows(self, points, coords, n: int) -> np.ndarray:
        if coords[0] < 0:
            raise InvalidParameterError("odometer digits have nonnegative indices")
        return self._digits(points, coords[-1] + 1, n)[:, :, list(coords)]


class ProductSystem(SystemHandle):
    kind = "product"

    def __init__(self, spec: SystemSpec):
        self.spec = spec
        self.left = make_system(spec.params[0])
        self.right = make_system(spec.params[1])

    def step(self, x, k: int = 1):
        return (self.left.step(x[0], k), self.right.step(x[1], k))

    def metric(self, x, y) -> float:
        return max(self.left.metric(x[0], y[0]), self.right.metric(x[1], y[1]))

    def _sample(self, count: int, plan: RandomPlan) -> list:
        ls = self.left.sample_measure(count, plan.child(_TAG_LEFT))
        rs = self.right.sample_measure(count, plan.child(_TAG_RIGHT))
        return list(zip(ls, rs))


_FAMILIES = {
    "rotation": RotationSystem,
    "identity": IdentitySystem,
    "doubling": DoublingSystem,
    "bernoulli_shift": BernoulliSystem,
    "sturmian": SturmianSystem,
    "odometer": OdometerSystem,
    "product": ProductSystem,
}


def make_system(spec: SystemSpec) -> SystemHandle:
    """Construct the handle for a validated spec; construction is pure."""
    try:
        cls = _FAMILIES[spec.family]
    except KeyError:
        raise InvalidParameterError(f"unknown system family {spec.family!r}") from None
    return cls(spec)


# Free-function forms of the handle operations.


def step(system: SystemHandle, x, k: int = 1):
    return system.step(x, k)


def orbit(system: SystemHandle, x, n: int) -> list:
    return system.orbit(x, n)


def metric(system: SystemHandle, x, y) -> float:
    return system.metric(x, y)


def sample_measure(system: SystemHandle, count: int, plan: RandomPlan):
    return system.sample_measure(count, plan)
