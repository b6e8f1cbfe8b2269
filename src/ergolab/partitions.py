"""Finite measurable partitions, point classification and name words.

Circle partitions are finite unions of half-open arcs given by their cut
points; symbolic partitions are cylinder sets over a finite coordinate
window.  ``refine`` builds the common refinement of the first N pull-backs
of a partition, symbolically for circle systems (pulled-back cut points)
and by coordinate-window union for shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    IncompatiblePartitionError,
    InvalidParameterError,
    UnsupportedRefinementError,
)
from .systems import SystemHandle, circle_value

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
    cuts = sorted(float(c) % 1.0 for c in cuts)
    if not cuts:
        raise InvalidParameterError("need at least one cut point")
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


def partition_from_json(obj: dict) -> Partition:
    kind = obj["kind"]
    if kind == CIRCLE_INTERVALS:
        return circle_intervals(obj["cuts"])
    if kind == CYLINDER:
        return cylinder(obj["coords"], obj["alphabet"])
    if kind == TRIVIAL:
        return trivial()
    raise InvalidParameterError(f"unknown partition kind {kind!r}")


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
# Classification


def _circle_labels(cuts: np.ndarray, values: np.ndarray) -> np.ndarray:
    # half-open [c_i, c_{i+1}) cells, wrapping at 1
    return (np.searchsorted(cuts, values, side="right") - 1) % len(cuts)


def _cylinder_labels(symbol_rows: np.ndarray, alphabet: int) -> np.ndarray:
    # symbol_rows: shape (..., n_coords); little-endian over sorted coords
    weights = alphabet ** np.arange(symbol_rows.shape[-1])
    return symbol_rows @ weights


def classify(partition: Partition, x) -> int:
    """Unique cell label of x; boundaries resolve by the half-open rule."""
    if partition.kind == TRIVIAL:
        return 0
    if partition.kind == CIRCLE_INTERVALS:
        if hasattr(x, "symbol"):
            raise IncompatiblePartitionError(
                "circle-interval partition cannot classify a symbolic point"
            )
        cuts = np.asarray(partition.cuts)
        return int(_circle_labels(cuts, np.asarray(circle_value(x))))
    if partition.kind == CYLINDER:
        if not hasattr(x, "symbol"):
            raise IncompatiblePartitionError(
                "cylinder partition needs a point with symbol coordinates"
            )
        row = np.array([x.symbol(c) for c in partition.coords], dtype=np.int64)
        if (row >= partition.alphabet).any():
            raise IncompatiblePartitionError(
                "point symbols exceed the cylinder alphabet"
            )
        return int(_cylinder_labels(row, partition.alphabet))
    raise InvalidParameterError(f"unknown partition kind {partition.kind!r}")


# ---------------------------------------------------------------------------
# Name words


def name_symbols(system: SystemHandle, partition: Partition, x, n: int) -> np.ndarray:
    """Labels of x, Tx, ..., T^{n-1}x as an int array (vectorized paths)."""
    if n < 1:
        raise InvalidParameterError("name length must be >= 1")
    if partition.kind == TRIVIAL:
        return np.zeros(n, dtype=np.int64)
    if partition.kind == CIRCLE_INTERVALS and system.has_circle_values:
        cuts = np.asarray(partition.cuts)
        return _circle_labels(cuts, system.value_orbit(x, n))
    if partition.kind == CYLINDER and system.kind == "shift":
        # time i, coordinate c reads stream index i+c
        lo, hi = partition.coords[0], partition.coords[-1]
        window = x.symbols(lo, hi + n)
        cols = [window[c - lo : c - lo + n] for c in partition.coords]
        return _cylinder_labels(np.stack(cols, axis=-1), partition.alphabet)
    # generic fallback: step and classify
    return np.array(
        [classify(partition, system.step(x, i)) for i in range(n)], dtype=np.int64
    )


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
