"""Observables: functions on the state space usable in Birkhoff averages.

Each observable reads many orbits in one shot: ``orbit_rows`` returns an
(m, n) array, one row of f(T^i x) per sample, through the system handle's
batched read.  ``orbit_values``, ``eval`` and ``eval_many`` are batches of
one point or of one time step.  ``gap_rows`` returns the aligned-pair gaps
|f(T^i xs[k]) - f(T^i ys[k])| that the mean-expansivity estimate averages;
characters compute them from one real sine instead of two orbit reads.
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
        return self.orbit_rows(system, system.as_batch(x), n)[0]

    def orbit_rows(self, system: SystemHandle, samples, n: int) -> np.ndarray:
        """(m, n): row k holds f(T^i samples[k]) for 0 <= i < n."""
        raise NotImplementedError

    def gap_rows(self, system: SystemHandle, xs, ys, n: int) -> np.ndarray:
        """(m, n): row k holds |f(T^i xs[k]) - f(T^i ys[k])| for 0 <= i < n."""
        return np.abs(self.orbit_rows(system, xs, n) - self.orbit_rows(system, ys, n))

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
        self._check_circle(system)
        # one complex buffer: the same product and exp as
        # np.exp(2j * np.pi * k * rows), with the exp written in place
        z = np.multiply(2j * np.pi * self.k, system.rows(samples, 0, n))
        return np.exp(z, out=z)

    def gap_rows(self, system, xs, ys, n):
        # |e(ka) - e(kb)| = 2 |sin(pi k (a - b))|: one real sine per step in
        # place of two complex exps; it differs from the orbit_rows gaps by
        # rounding alone (about 1e-15)
        self._check_circle(system)
        d = system.rows(xs, 0, n)
        d -= system.rows(ys, 0, n)
        d *= np.pi * self.k
        np.sin(d, out=d)
        np.abs(d, out=d)
        d *= 2.0
        return d

    @staticmethod
    def _check_circle(system):
        if not system.has_circle_values:
            raise IncompatibleObservableError(
                f"character observables need a circle family, not {system.spec.family}"
            )

    def sup_bound(self):
        return 1.0

    def to_json(self):
        return {"kind": "character", "k": self.k}


@dataclass(frozen=True)
class CellIndicator(Observable):
    """Indicator of one cell of a partition."""

    partition: Partition
    label: int

    def __post_init__(self):
        count = self.partition.cell_count
        if not isinstance(self.label, (int, np.integer)) or not 0 <= self.label < count:
            raise InvalidParameterError(
                f"cell label must be an integer in [0, {count}), got {self.label}"
            )

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


# observable kind -> class, the listing observable_from_json reads
_KINDS = {
    "character": Character,
    "cell_indicator": CellIndicator,
    "coordinate_read": CoordinateRead,
    "constant": Constant,
    "table": TableObservable,
}


def observable_from_json(obj: dict) -> Observable:
    """The observable whose to_json is obj: the class of its kind called with
    the other JSON keys as keyword arguments, a partition read back through
    partition_from_json, a [re, im] value as a complex and values as a tuple."""
    kind = obj["kind"]
    if kind not in _KINDS:
        raise InvalidParameterError(f"unknown observable kind {kind!r}")
    args = {k: v for k, v in obj.items() if k != "kind"}
    if "partition" in args:
        args["partition"] = partition_from_json(args["partition"])
    if isinstance(args.get("value"), list):
        args["value"] = complex(*args["value"])
    if "values" in args:
        args["values"] = tuple(args["values"])
    return _KINDS[kind](**args)


def eval_many(f: Observable, system: SystemHandle, points) -> np.ndarray:
    """f at each of many points: the first column of f.orbit_rows."""
    return f.orbit_rows(system, points, 1)[:, 0]
