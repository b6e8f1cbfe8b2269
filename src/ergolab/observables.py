"""Observables: functions on the state space usable in Birkhoff averages.

Each observable reads many orbits in one shot: ``orbit_rows`` returns an
(m, n) array, one row of f(T^i x) per sample, through the system handle's
batched read.  ``orbit_values``, ``eval`` and ``eval_many`` are batches of
one point or of one time step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IncompatibleObservableError, InvalidParameterError
from .partitions import Partition, name_rows, partition_from_json
from .systems import SystemHandle


class Observable:
    def eval(self, system: SystemHandle, x):
        return self.orbit_values(system, x, 1)[0]

    def orbit_values(self, system: SystemHandle, x, n: int) -> np.ndarray:
        return self.orbit_rows(system, [x], n)[0]

    def orbit_rows(self, system: SystemHandle, samples, n: int) -> np.ndarray:
        """(m, n): row k holds f(T^i samples[k]) for i < n."""
        raise NotImplementedError

    def sup_bound(self) -> Optional[float]:
        """An upper bound for |f| when one is known, else None."""
        return None

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Character(Observable):
    """x -> exp(2 pi i k x) on circle families."""

    k: int = 1

    def orbit_rows(self, system, samples, n):
        if not system.has_circle_values:
            raise IncompatibleObservableError(
                f"character observables need a circle family, not {system.spec.family}"
            )
        return np.exp(2j * np.pi * self.k * system.rows(samples, 0, n))

    def sup_bound(self):
        return 1.0

    def to_json(self):
        return {"kind": "character", "k": self.k}


@dataclass(frozen=True)
class CellIndicator(Observable):
    """Indicator of one cell of a partition."""

    partition: Partition
    label: int

    def orbit_rows(self, system, samples, n):
        return (name_rows(system, self.partition, samples, n) == self.label).astype(float)

    def sup_bound(self):
        return 1.0

    def to_json(self):
        return {
            "kind": "cell_indicator",
            "partition": self.partition.to_json(),
            "label": self.label,
        }


@dataclass(frozen=True)
class CoordinateRead(Observable):
    """Reads one symbol coordinate of a shift point, as a real number."""

    index: int = 0

    def orbit_rows(self, system, samples, n):
        if system.kind != "shift":
            raise IncompatibleObservableError(
                "coordinate reads are only defined on shift families"
            )
        return system.rows(samples, self.index, self.index + n).astype(float)

    def to_json(self):
        return {"kind": "coordinate_read", "index": self.index}


@dataclass(frozen=True)
class Constant(Observable):
    value: complex = 0.0

    def orbit_rows(self, system, samples, n):
        return np.full((len(samples), n), self.value)

    def sup_bound(self):
        return abs(self.value)

    def to_json(self):
        v = self.value
        if isinstance(v, complex):
            v = v.real if v.imag == 0 else [v.real, v.imag]
        return {"kind": "constant", "value": v}


@dataclass(frozen=True)
class TableObservable(Observable):
    """Looks up a value per partition cell."""

    partition: Partition
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.partition.cell_count:
            raise InvalidParameterError(
                "table needs one value per partition cell"
            )

    def orbit_rows(self, system, samples, n):
        return np.asarray(self.values)[name_rows(system, self.partition, samples, n)]

    def sup_bound(self):
        return float(np.max(np.abs(self.values)))

    def to_json(self):
        return {
            "kind": "table",
            "partition": self.partition.to_json(),
            "values": list(self.values),
        }


def observable_from_json(obj: dict) -> Observable:
    kind = obj["kind"]
    if kind == "character":
        return Character(obj.get("k", 1))
    if kind == "cell_indicator":
        return CellIndicator(partition_from_json(obj["partition"]), obj["label"])
    if kind == "coordinate_read":
        return CoordinateRead(obj.get("index", 0))
    if kind == "constant":
        v = obj["value"]
        if isinstance(v, list):
            v = complex(v[0], v[1])
        return Constant(v)
    if kind == "table":
        return TableObservable(
            partition_from_json(obj["partition"]), tuple(obj["values"])
        )
    raise InvalidParameterError(f"unknown observable kind {kind!r}")


def eval_many(f: Observable, system: SystemHandle, points) -> np.ndarray:
    """f at each of many points: the first column of f.orbit_rows."""
    return f.orbit_rows(system, points, 1)[:, 0]
