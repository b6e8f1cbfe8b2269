"""Benchmark worker: runs one workload's ops in a closed loop.

One client, one op at a time.  Pass 0 is a warm-up whose outputs become
the reference that every later pass must reproduce byte for byte; its
times are not measured.  Measured passes repeat until ``--seconds`` have
elapsed, always finishing the pass in progress, so every run attempts
whole passes.  With ``--trace 1`` the first half of the time runs
untraced and the second half traced.

Writes ``<run>/p<k>/<op>/`` outputs, ``<run>/worker.json`` (op and
calibration times per pass, peak RSS) and, when traced, ``<run>/spans.json``.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --trace 0|1 --run DIR
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import ergolab as e  # noqa: E402
from ergolab import cli  # noqa: E402

from speed import calibrate  # noqa: E402
from workloads import ops_for  # noqa: E402

_TAG_API = 97  # child stream of the op seed that API ops sample from


_SYSTEMS = {"rotation:golden": lambda: e.rotation(e.GOLDEN), "doubling": e.doubling}
_OBSERVABLES = {"character:1": lambda: e.Character(1)}


def _system(text: str):
    return e.make_system(_SYSTEMS[text]())


def _observable(text: str):
    return _OBSERVABLES[text]()


def _samples(system, op):
    return system.sample_measure(op.params["samples"],
                                 e.RandomPlan(op.seed).child(_TAG_API))


def fhat_cover(op) -> dict:
    p = op.params
    system = _system(p["system"])
    res = e.estimate_cover_number(_samples(system, op), p["horizon"], p["eps"],
                                  e.FhatKind(_observable(p["target"])), system)
    return {"centers": list(res.centers), "count": res.count,
            "covered_mass": res.covered_mass, "radius": res.radius,
            "sample_count": res.sample_count, "horizon": res.horizon}


def verify(op) -> dict:
    p = op.params
    system = _system(p["system"])
    f = _observable(p["target"])
    samples = _samples(system, op)
    ep = e.find_equipartition(system, f, p["eps"], samples, p["horizon"])
    if not isinstance(ep, e.EquiPartition):
        return {"equipartition": None, "verify": None}
    rep = e.verify_equipartition(ep, system, f, samples, mode=p["mode"])
    return {
        "equipartition": ep.to_json(),
        "verify": {"max_pairwise": rep.max_pairwise, "mode": rep.mode,
                   "passed": rep.passed,
                   "pair_maxima": [list(t) for t in rep.pair_maxima]},
    }


def eigen(op) -> dict:
    p = op.params
    system = _system(p["system"])
    lam = p["lam"]
    if lam == "theta":
        lam = np.exp(2j * np.pi * system.theta)
    res = e.eigen_residual(system, _observable(p["target"]), complex(lam),
                           p["samples"], e.RandomPlan(op.seed).child(_TAG_API))
    return {"residual": res}


API = {"fhat_cover": fhat_cover, "verify": verify, "eigen": eigen}


def run_op(op, out: Path) -> tuple:
    """Run one op into ``out``; returns (seconds, error or None)."""
    out.mkdir(parents=True)
    err = None
    with open(out / "stdout.txt", "w") as fh, contextlib.redirect_stdout(fh):
        t0 = time.perf_counter()
        try:
            if op.api is None:
                rc = cli.main(op.argv(str(out)))
                if rc != 0:
                    err = f"exit code {rc}"
            else:
                result = API[op.api](op)
        except Exception:  # an op that raises is a failed op, not a dead run
            err = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
    if op.api is not None and err is None:
        (out / "result.json").write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n")
    return dt, err


def run_pass(ops, run: Path, k: int, traced: bool) -> dict:
    """Every op once, with a calibration before the first op and after each."""
    t0 = time.perf_counter()
    times, cals, errors = [], [calibrate()], {}
    for op in ops:
        dt, err = run_op(op, run / f"p{k}" / op.name)
        times.append(dt)
        cals.append(calibrate())
        if err:
            errors[op.name] = err
    return {"start": t0, "end": time.perf_counter(), "op_seconds": times,
            "cal_seconds": cals, "traced": traced, "errors": errors}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run", required=True)
    args = ap.parse_args(argv)
    run = Path(args.run)
    ops = ops_for(args.workload, args.seed)

    passes = [run_pass(ops, run, 0, traced=False)]

    def measured(traced: bool) -> int:
        return sum(p["traced"] == traced for p in passes[1:])

    tracer = None
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        if args.trace and tracer is None and elapsed >= args.seconds / 2 \
                and measured(False):
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        if elapsed >= args.seconds and measured(bool(args.trace)):
            break
        passes.append(run_pass(ops, run, len(passes), traced=tracer is not None))

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(run / "spans.json")
    (run / "worker.json").write_text(
        json.dumps({"passes": passes, "peak_rss_kb": rss_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
