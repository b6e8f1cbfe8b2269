"""Command-line front end.

One subcommand per estimator family::

    ergolab [--seed S] [--out DIR] [--config FILE] <command> [options]

Exit codes: 0 success, 2 invalid configuration, 3 compute budget exceeded.
System and target arguments accept either compact shortcuts
(``rotation:0.618``, ``halves``, ``character:1``) or raw JSON documents.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from ._version import __version__
from .errors import BudgetExhaustedError, ConfigError, ErgolabError
from .report import config_from_json, run_experiment
from .systems import GOLDEN

_CATALOG = """\
rotation:<theta>        circle rotation by theta (try rotation:golden)
doubling                angle doubling on its natural extension
bernoulli:<p>[:k]       two-sided i.i.d. shift, k symbols (default 2)
sturmian:<theta>        sturmian coding of the rotation by theta
odometer:<base>         +1 adding machine in the given base
identity                identity map on the circle
"""


def _parse_system(text: str) -> dict:
    if text.startswith("{"):
        return json.loads(text)
    try:
        parts = text.split(":")
        head = parts[0]
        if head in ("rotation", "sturmian"):
            theta = GOLDEN if len(parts) < 2 or parts[1] == "golden" else float(parts[1])
            return {"family": head, "params": {"theta": theta}}
        if head in ("doubling", "identity"):
            return {"family": head}
        if head == "bernoulli":
            p = float(parts[1]) if len(parts) > 1 else 0.5
            k = int(parts[2]) if len(parts) > 2 else 2
            return {"family": "bernoulli_shift", "params": {"p": p, "alphabet_size": k}}
        if head == "odometer":
            return {"family": "odometer", "params": {"base": int(parts[1])}}
    except (IndexError, KeyError, ValueError):
        raise ConfigError(f"malformed system shortcut {text!r}") from None
    raise ConfigError(f"unknown system shortcut {text!r}")


def _parse_target(text: str) -> dict:
    if text.startswith("{"):
        return json.loads(text)
    try:
        parts = text.split(":")
        head = parts[0]
        if head == "halves":
            return {"partition": {"kind": "circle_intervals", "cuts": [0.0, 0.5]}}
        if head == "trivial":
            return {"partition": {"kind": "trivial"}}
        if head == "cuts":
            return {
                "partition": {
                    "kind": "circle_intervals",
                    "cuts": [float(c) for c in parts[1:]],
                }
            }
        if head == "cylinder":
            coords = [int(c) for c in parts[1].split(",")] if len(parts) > 1 else [0]
            alpha = int(parts[2]) if len(parts) > 2 else 2
            return {"partition": {"kind": "cylinder", "coords": coords, "alphabet": alpha}}
        if head == "character":
            k = int(parts[1]) if len(parts) > 1 else 1
            return {"observable": {"kind": "character", "k": k}}
        if head == "indicator":
            cell = int(parts[2]) if len(parts) > 2 else 0
            part = _parse_target(parts[1])["partition"]
            return {
                "observable": {"kind": "cell_indicator", "partition": part, "label": cell}
            }
    except (IndexError, KeyError, ValueError):
        raise ConfigError(f"malformed target shortcut {text!r}") from None
    raise ConfigError(f"unknown target shortcut {text!r}")


def _int_list(text: str) -> list:
    return [int(v) for v in text.split(",")]


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ergolab", description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=f"ergolab {__version__}")
    ap.add_argument("--seed", type=int, default=0, help="master seed")
    ap.add_argument("--out", default=None, help="artifact output directory")
    ap.add_argument("--config", default=None, help="ExperimentConfig JSON file")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="list the system catalog")

    p = sub.add_parser("name", help="print the first n name symbols of a point")
    p.add_argument("--system", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--point", type=float, default=None)

    p = sub.add_parser("complexity", help="covering-number curve and verdict")
    p.add_argument("--system", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--horizons", type=_int_list, required=True)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--max-centers", type=int, default=None)

    p = sub.add_parser("meanequi", help="greedy mean-equicontinuity partition")
    p.add_argument("--system", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--horizon", type=int, default=256)
    p.add_argument("--k-max", type=int, default=None)

    p = sub.add_parser("expansivity", help="mean-expansivity rate estimate")
    p.add_argument("--system", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--horizon", type=int, default=1024)

    p = sub.add_parser("spectral", help="Koopman orbit covering / almost periodicity")
    p.add_argument("--system", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--horizons", type=_int_list, required=True)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("report", help="canned bounded-vs-growing dichotomy report")
    p.add_argument("--system", default="rotation:golden")
    p.add_argument("--target", default="halves")
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=400)
    return ap


# parsed arguments that are not task params
_GLOBALS = ("seed", "out", "config", "command", "system", "target")


def _config_obj(args) -> dict:
    if args.config is not None:
        with open(args.config) as fh:
            obj = json.load(fh)
        obj.setdefault("seed", args.seed)
        return obj
    task = "dichotomy-report" if args.command == "report" else args.command
    obj = {"task": task, "seed": args.seed}
    if getattr(args, "system", None):
        obj["system"] = _parse_system(args.system)
    if getattr(args, "target", None):
        obj["target"] = _parse_target(args.target)
    obj["params"] = {k: v for k, v in vars(args).items()
                     if k not in _GLOBALS and v is not None}
    return obj


def _print_bundle(bundle) -> None:
    for label, verdict in bundle.verdicts:
        print(f"{label}: {verdict}")
    for label, rows in bundle.tables:
        for row in rows:
            print(",".join(str(v) for v in row))
    for label, geom in bundle.geometries:
        print(f"{label}: covering_count={geom.covering_count}")
    for curve in bundle.curves:
        ks = ",".join(str(p.k_est) for p in curve.points)
        ns = ",".join(str(p.n) for p in curve.points)
        print(f"curve[{curve.metric_label}] n={ns} K={ks}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "systems":
        print(_CATALOG, end="")
        return 0
    try:
        config = config_from_json(_config_obj(args), out_dir=args.out)
        bundle = run_experiment(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExhaustedError, MemoryError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ErgolabError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_bundle(bundle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
