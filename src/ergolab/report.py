"""Experiment configs, batch execution and diff-able artifact export.

A validated ``ExperimentConfig`` drives one task of the ``_TASKS`` table
and yields a ``ReportBundle`` whose JSON round-trips exactly.  All file
artifacts are deterministic for a fixed master seed: CSV and JSON carry
the config hash in a header but no timestamps, so reruns are
byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

from ._version import __version__
from .cover import (
    ComplexityCurve,
    CurvePoint,
    _metric_kind,
    classify_boundedness,
    complexity_curve,
    curve_csv_rows,
)
from .equicont import (
    EquiPartition,
    find_equipartition,
    hamming_equipartition,
    mean_expansivity_estimate,
)
from .errors import ConfigError, InvalidParameterError
from .observables import Observable, observable_from_json
from .partitions import Partition, cylinder, halves, name_word, partition_from_json
from .plotting import curve_svg, geometry_svg
from .rng import RandomPlan
from .spectral import OrbitGeometry, _spectral_scan
from .systems import (
    GOLDEN,
    SystemSpec,
    _check_bytes,
    bernoulli_shift,
    make_system,
    rotation,
    spec_from_json,
)

@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemSpec
    task: str
    target: object = None          # Partition or Observable, task-dependent
    params: dict = field(default_factory=dict)
    out_dir: Optional[str] = None
    seed: int = 0

    def to_json(self) -> dict:
        obj = {
            "system": self.system.to_json(),
            "task": self.task,
            "params": dict(self.params),
            "seed": self.seed,
        }
        if self.target is not None:
            key = "partition" if isinstance(self.target, Partition) else "observable"
            obj["target"] = {key: self.target.to_json()}
        return obj

    @property
    def config_hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def config_from_json(obj: dict, out_dir: Optional[str] = None) -> ExperimentConfig:
    """Parse and validate; raises ConfigError before any computation runs."""
    try:
        task = obj["task"]
        if task not in _TASKS:
            raise ConfigError(f"unknown task {task!r}; expected one of {tuple(_TASKS)}")
        entry = _TASKS[task]
        system = spec_from_json(obj["system"]) if "system" in obj else None
        if system is None and task != "dichotomy-report":
            raise ConfigError("config needs a 'system' entry")
        if system is None:
            system = rotation(GOLDEN)
        target = None
        if "target" in obj:
            t = obj["target"]
            if "partition" in t:
                target = partition_from_json(t["partition"])
            elif "observable" in t:
                target = observable_from_json(t["observable"])
            else:
                raise ConfigError("target must hold 'partition' or 'observable'")
        params = dict(obj.get("params", {}))
        missing = [k for k in entry.required if k not in params]
        if missing:
            raise ConfigError(f"task {task!r} missing parameters: {missing}")
        unknown = [k for k in params if k not in entry.required + entry.optional]
        if unknown:
            raise ConfigError(f"task {task!r} has unknown parameters: {unknown}")
        types, needed = _TARGET_RULES[entry.target]
        if not isinstance(target, types):
            raise ConfigError(f"task {task!r} needs {needed}")
        if task == "dichotomy-report":
            _versus(params)
        return ExperimentConfig(
            system=system,
            task=task,
            target=target,
            params=params,
            out_dir=out_dir,
            seed=int(obj.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError, InvalidParameterError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _versus(params: dict) -> tuple:
    """The system spec and partition a dichotomy report compares against."""
    if "versus" not in params:
        return bernoulli_shift(0.5), cylinder([0], 2)
    v = params["versus"]
    return spec_from_json(v["system"]), partition_from_json(v["partition"])


# ---------------------------------------------------------------------------
# Bundle


@dataclass(frozen=True)
class ReportBundle:
    curves: tuple = ()
    verdicts: tuple = ()           # (label, verdict) pairs
    equipartitions: tuple = ()     # (label, EquiPartition or failure json) pairs
    geometries: tuple = ()         # (label, OrbitGeometry) pairs
    tables: tuple = ()             # (label, rows) free-form CSV-able payloads
    config_hash: str = ""
    seed: int = 0
    version: str = __version__

    def to_json(self) -> dict:
        return {
            "curves": [asdict(c) for c in self.curves],
            "verdicts": [[k, v] for k, v in self.verdicts],
            "equipartitions": [[k, ep] for k, ep in self.equipartitions],
            "geometries": [[k, g.to_json()] for k, g in self.geometries],
            "tables": [[k, rows] for k, rows in self.tables],
            "provenance": {
                "config_hash": self.config_hash,
                "seed": self.seed,
                "version": self.version,
            },
        }


def _curve_from_json(obj: dict) -> ComplexityCurve:
    points = tuple(CurvePoint(**p) for p in obj["points"])
    return ComplexityCurve(**{**obj, "points": points})


def bundle_from_json(obj: dict) -> ReportBundle:
    prov = obj.get("provenance", {})
    return ReportBundle(
        curves=tuple(_curve_from_json(c) for c in obj["curves"]),
        verdicts=tuple((k, v) for k, v in obj["verdicts"]),
        equipartitions=tuple((k, ep) for k, ep in obj["equipartitions"]),
        geometries=tuple((k, OrbitGeometry.from_json(g)) for k, g in obj["geometries"]),
        tables=tuple((k, rows) for k, rows in obj["tables"]),
        config_hash=prov.get("config_hash", ""),
        seed=prov.get("seed", 0),
        version=prov.get("version", __version__),
    )


# ---------------------------------------------------------------------------
# Task runners


# bytes a name run holds per symbol at its peak, json.dumps of bundle.json:
# the table row's pointer (8), the encoder's chunk list pointer (8), one
# chunk str per symbol (a 49-byte header, then ",\n", a 10-space indent and
# the label's digits) and the joined text (12 + digits).  That is 89 bytes
# plus 2 per digit, rounded up here to 96 plus 2 per digit; labels above 256
# are not cached small ints and hold a 28-byte int each, charged 32.  Printing
# to stdout alone peaks lower, at the CSV join.  Measured under tracemalloc
# at n = 10**6 with --out: 91.5 bytes per symbol (halves), 94.6 (256
# cells), 119.3 (1024 cells), 133.3 (2**20 cells).
_NAME_SYMBOL_BYTES = 96
_NAME_INT_BYTES = 32


def _run_name(config, plan):
    system = make_system(config.system)
    n = int(config.params["n"])
    cells = config.target.cell_count
    per_symbol = _NAME_SYMBOL_BYTES + 2 * len(str(cells - 1))
    if cells - 1 > 256:
        per_symbol += _NAME_INT_BYTES
    _check_bytes(n * per_symbol, f"a name of {n} symbols")
    if "point" in config.params:
        if not system.has_circle_values:
            raise InvalidParameterError(
                f"point is a circle value; {system.spec.family} points are sampled"
            )
        x = config.params["point"]
    else:
        x = system.sample_measure(1, plan)
    word = name_word(system, config.target, x, n)
    rows = [list(word.symbols)]  # one CSV row: the name itself
    return ReportBundle(tables=(("name", rows),))


def _run_complexity(config, plan):
    p = config.params
    curve = complexity_curve(
        make_system(config.system),
        _metric_kind(config.target),
        p["horizons"],
        float(p["eps"]),
        int(p["samples"]),
        plan,
        max_centers=p.get("max_centers"),
    )
    verdict = classify_boundedness(curve)
    return ReportBundle(curves=(curve,), verdicts=(("complexity", verdict),))


_TAG_EQUI_SAMPLES = 71


def _run_meanequi(config, plan):
    p = config.params
    system = make_system(config.system)
    samples = system.sample_measure(int(p["samples"]), plan.child(_TAG_EQUI_SAMPLES))
    kwargs = dict(
        eps=float(p["eps"]),
        samples=samples,
        horizon=int(p["horizon"]),
        k_max=p.get("k_max"),
    )
    if isinstance(config.target, Partition):
        ep = hamming_equipartition(system, config.target, **kwargs)
    else:
        ep = find_equipartition(system, config.target, **kwargs)
    ok = isinstance(ep, EquiPartition)
    return ReportBundle(
        verdicts=(("meanequi", "success" if ok else "failure"),),
        equipartitions=(("meanequi", ep.to_json()),),
    )


def _run_expansivity(config, plan):
    p = config.params
    system = make_system(config.system)
    est = mean_expansivity_estimate(
        system,
        config.target,
        float(p["delta"]),
        int(p["pairs"]),
        int(p["horizon"]),
        plan,
    )
    rows = [
        ["delta", "estimate", "pairs", "horizon", "nonconverged_fraction"],
        [est.delta, est.value, est.pair_count, est.horizon, est.nonconverged_fraction],
    ]
    return ReportBundle(
        tables=(("expansivity", rows),),
        verdicts=(("expansive", "yes" if est.value >= 0.98 else "no"),),
    )


def _run_spectral(config, plan):
    p = config.params
    verdict, geoms = _spectral_scan(
        make_system(config.system),
        config.target,
        p["horizons"],
        float(p["radius"]),
        int(p["samples"]),
        plan,
    )
    return ReportBundle(
        verdicts=(("spectral", verdict),),
        geometries=tuple((f"N={g.horizon}", g) for g in geoms),
    )


def _run_dichotomy(config, plan):
    """Canned bounded-vs-growing comparison of two complexity curves."""
    p = config.params
    eps = float(p["eps"])
    samples = int(p.get("samples", 400))
    spec_a = config.system
    target_a = config.target if config.target is not None else halves()
    spec_b, target_b = _versus(p)
    horizons_a = p.get("horizons_bounded", [16, 64, 256, 1024])
    horizons_b = p.get("horizons_growing", [8, 16, 32, 64])
    jobs = [
        (spec_a, target_a, horizons_a),
        (spec_b, target_b, horizons_b),
    ]
    curves = [complexity_curve(make_system(s), _metric_kind(t), h, eps, samples, plan)
              for s, t, h in jobs]
    verdicts = tuple(
        (spec.family, classify_boundedness(curve))
        for (spec, _, _), curve in zip(jobs, curves)
    )
    return ReportBundle(curves=tuple(curves), verdicts=verdicts)


@dataclass(frozen=True)
class _Task:
    run: Callable        # (config, plan) -> ReportBundle without provenance
    required: tuple      # params the config must hold
    optional: tuple      # params it may hold besides
    target: str          # a key of _TARGET_RULES


# target rule -> (target types accepted, what the error says the task needs)
_TARGET_RULES = {
    "partition": (Partition, "a partition target"),
    "observable": (Observable, "an observable target"),
    "either": ((Partition, Observable), "a target"),
    "none": (object, None),  # optional; a missing target is None
}

_TASKS = {
    "name": _Task(_run_name, ("n",), ("point",), "partition"),
    "complexity": _Task(_run_complexity, ("eps", "horizons", "samples"), ("max_centers",),
                        "either"),
    "meanequi": _Task(_run_meanequi, ("eps", "samples", "horizon"), ("k_max",), "either"),
    "expansivity": _Task(_run_expansivity, ("delta", "pairs", "horizon"), (), "observable"),
    "spectral": _Task(_run_spectral, ("horizons", "radius", "samples"), (), "observable"),
    "dichotomy-report": _Task(
        _run_dichotomy, ("eps",),
        ("samples", "versus", "horizons_bounded", "horizons_growing"), "none"),
}


def run_experiment(config: ExperimentConfig) -> ReportBundle:
    """Execute one task and (if out_dir is set) write JSON/CSV/SVG artifacts."""
    plan = RandomPlan(config.seed)
    bundle = replace(
        _TASKS[config.task].run(config, plan),
        config_hash=config.config_hash,
        seed=plan.master_seed,
    )
    if config.out_dir is not None:
        write_bundle(bundle, config.out_dir)
    return bundle


# ---------------------------------------------------------------------------
# Artifact writers


def _csv_text(rows, config_hash: str) -> str:
    buf = io.StringIO()
    buf.write(f"# ergolab v{__version__} config={config_hash}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def write_bundle(bundle: ReportBundle, out_dir) -> list:
    """Write bundle.json plus per-curve CSV/SVG and per-table CSV files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def _put(name, text):
        path = out / name
        path.write_text(text)
        written.append(str(path))

    _put("bundle.json", json.dumps(bundle.to_json(), indent=2, sort_keys=True) + "\n")
    for i, curve in enumerate(bundle.curves):
        _put(f"curve_{i}.csv", _csv_text(curve_csv_rows(curve), bundle.config_hash))
        _put(f"curve_{i}.svg", curve_svg(curve))
    for label, rows in bundle.tables:
        _put(f"{label}.csv", _csv_text(rows, bundle.config_hash))
    if bundle.geometries:
        _put("geometry.svg", geometry_svg([g for _, g in bundle.geometries]))
    return written
