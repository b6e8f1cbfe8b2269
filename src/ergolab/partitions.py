"""Finite measurable partitions, point classification and name words.

Circle partitions are finite unions of half-open arcs given by their cut
points; symbolic partitions are cylinder sets over a finite coordinate
window.  ``refine`` builds the common refinement of the first N pull-backs
of a partition, symbolically for circle systems (pulled-back cut points)
and by coordinate-window union for shifts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    IncompatiblePartitionError,
    InvalidParameterError,
    UnsupportedRefinementError,
)
from .systems import SystemHandle, _batched, circle_value

CIRCLE_INTERVALS = "circle_intervals"
CYLINDER = "cylinder"
TRIVIAL = "trivial"

# cuts closer than this are merged when refining circle partitions
_CUT_TOL = 1e-12


@dataclass(frozen=True)
class Partition:
    kind: str
    cuts: Optional[tuple] = None       # circle_intervals: sorted cut points in [0,1)
    coords: Optional[tuple] = None     # cylinder: coordinate indices, sorted
    alphabet: Optional[int] = None     # cylinder: symbols per coordinate

    @property
    def cell_count(self) -> int:
        if self.kind == CIRCLE_INTERVALS:
            return len(self.cuts)
        if self.kind == CYLINDER:
            return self.alphabet ** len(self.coords)
        return 1

    def to_json(self) -> dict:
        if self.kind == CIRCLE_INTERVALS:
            return {"kind": self.kind, "cuts": list(self.cuts)}
        if self.kind == CYLINDER:
            return {"kind": self.kind, "coords": list(self.coords), "alphabet": self.alphabet}
        return {"kind": self.kind}


def circle_intervals(cuts) -> Partition:
    cuts = [float(c) for c in cuts]
    if not cuts:
        raise InvalidParameterError("need at least one cut point")
    for c in cuts:
        if not math.isfinite(c):
            raise InvalidParameterError(f"cut points must be finite, got {c}")
    cuts = sorted(circle_value(c) for c in cuts)
    return Partition(CIRCLE_INTERVALS, cuts=tuple(cuts))


def halves() -> Partition:
    return circle_intervals([0.0, 0.5])


def cylinder(coords, alphabet: int) -> Partition:
    if isinstance(coords, int):
        coords = [coords]
    coords = tuple(sorted(int(c) for c in coords))
    if alphabet < 2:
        raise InvalidParameterError("cylinder alphabet must be >= 2")
    return Partition(CYLINDER, coords=coords, alphabet=int(alphabet))


def trivial() -> Partition:
    return Partition(TRIVIAL)


_CONSTRUCTORS = {CIRCLE_INTERVALS: circle_intervals, CYLINDER: cylinder, TRIVIAL: trivial}


def partition_from_json(obj: dict) -> Partition:
    """The partition whose to_json is obj: the constructor of its kind
    called with the other JSON keys as keyword arguments."""
    kind = obj["kind"]
    if kind not in _CONSTRUCTORS:
        raise InvalidParameterError(f"unknown partition kind {kind!r}")
    return _CONSTRUCTORS[kind](**{k: v for k, v in obj.items() if k != "kind"})


@dataclass(frozen=True)
class NameWord:
    """Length-n segment of the name sequence of a point under a partition."""

    symbols: tuple
    cell_count: int

    @property
    def n(self) -> int:
        return len(self.symbols)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.symbols, dtype=np.int64)


# ---------------------------------------------------------------------------
# Cell labels


def _cylinder_labels(symbol_rows: np.ndarray, alphabet: int) -> np.ndarray:
    # symbol_rows: shape (..., n_coords); little-endian over sorted coords
    labels = symbol_rows[..., 0]
    for j in range(1, symbol_rows.shape[-1]):
        labels = labels + symbol_rows[..., j] * alphabet**j
    return labels


# ---------------------------------------------------------------------------
# Name words


def name_rows(system: SystemHandle, partition: Partition, samples, n: int,
              dtype=np.int64) -> np.ndarray:
    """(m, n) labels of type `dtype`: row k holds the cells of T^i
    samples[k] for 0 <= i < n.  Each chunk of rows is read as int64
    and stored into the output as it is read, so a narrow `dtype` that
    holds every cell index never builds an (m, n) int64 array."""
    if n < 1:
        raise InvalidParameterError("name length must be >= 1")
    if partition.kind == TRIVIAL:
        return np.zeros((len(samples), n), dtype=dtype)
    if partition.kind == CIRCLE_INTERVALS:
        if not system.has_circle_values:
            raise IncompatiblePartitionError(
                "circle-interval partition cannot classify a symbolic point"
            )
        return system.circle_labels(samples, partition.cuts, n, dtype)
    if partition.kind == CYLINDER:
        if system.kind not in ("shift", "odometer"):
            raise IncompatiblePartitionError(
                "cylinder partition needs a point with symbol coordinates"
            )

        def read(a, b):
            cols = system.cylinder_rows(samples[a:b], partition.coords, n)
            if (cols >= partition.alphabet).any():
                raise IncompatiblePartitionError(
                    "point symbols exceed the cylinder alphabet"
                )
            return _cylinder_labels(cols, partition.alphabet)

        return _batched(len(samples), (n,), dtype, read)
    raise InvalidParameterError(f"unknown partition kind {partition.kind!r}")


def classify(system: SystemHandle, partition: Partition, x) -> int:
    """Unique cell label of x; boundaries resolve by the half-open rule."""
    return int(name_symbols(system, partition, x, 1)[0])


def name_symbols(system: SystemHandle, partition: Partition, x, n: int) -> np.ndarray:
    """Labels of x, Tx, ..., T^{n-1}x: name_rows of a batch of one."""
    return name_rows(system, partition, system.as_batch(x), n)[0]


def name_word(system: SystemHandle, partition: Partition, x, n: int) -> NameWord:
    symbols = name_symbols(system, partition, x, n)
    return NameWord(tuple(int(s) for s in symbols), partition.cell_count)


# ---------------------------------------------------------------------------
# Refinement


def _pulled_back_cuts(partition: Partition, system: SystemHandle, steps: int) -> list:
    cuts = {p for c in partition.cuts for i in range(steps)
            for p in system._cut_preimages(c, i)}
    merged = []
    for c in sorted(cuts):
        if not merged or c - merged[-1] > _CUT_TOL:
            merged.append(c)
    # drop a cut that wraps onto the first one
    if len(merged) > 1 and (merged[0] + 1.0) - merged[-1] <= _CUT_TOL:
        merged.pop()
    return merged


def refine(partition: Partition, system: SystemHandle, N: int) -> Partition:
    """Common refinement of partition, T^{-1}partition, ..., T^{-(N-1)}partition."""
    if N < 1:
        raise InvalidParameterError("refinement depth must be >= 1")
    if N == 1:
        return partition
    if partition.kind == TRIVIAL:
        return partition
    if partition.kind == CIRCLE_INTERVALS:
        return Partition(
            CIRCLE_INTERVALS, cuts=tuple(_pulled_back_cuts(partition, system, N))
        )
    if partition.kind == CYLINDER:
        if system.kind != "shift":
            raise UnsupportedRefinementError(
                "cylinder refinement is only defined for shift systems"
            )
        coords = sorted({c + i for c in partition.coords for i in range(N)})
        return Partition(CYLINDER, coords=tuple(coords), alphabet=partition.alphabet)
    raise UnsupportedRefinementError(f"cannot refine partition kind {partition.kind!r}")
