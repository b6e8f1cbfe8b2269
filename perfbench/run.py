"""ergolab benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload cover-curves --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload runs in a fresh worker process
(``worker.py``) with ``ERGOLAB_THREADS=1`` and single-threaded BLAS, one op
at a time.  After the worker has ended, every op's pass-0 output is checked
by ``checks.py`` (which never imports ergolab), and every later pass must
reproduce pass 0 byte for byte, traced passes included.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Reasons for failed ops go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

# single-threaded BLAS in the worker and in the setup spawns
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from checks import check_op  # noqa: E402
from speed import normalised  # noqa: E402
from tracer import METRICS, layer_metrics  # noqa: E402
from workloads import ops_for  # noqa: E402

SETUP_SPAWNS = 6        # pairs of spawns timed for setup_s, before and
                        # again after the worker: 12 pairs in all
SETUP_REF_S = 0.17      # reference spawn time that setup_s is rescaled to
WORKER_GRACE_S = 140    # worker time allowed beyond --seconds


def worker_env() -> dict:
    return dict(os.environ, PYTHONPATH="src", ERGOLAB_THREADS="1")


def spawn_seconds(env: dict, code: str) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    return time.perf_counter() - t0


def setup_times(env: dict) -> list:
    """Times from spawning an interpreter to `import ergolab` returning, each
    rescaled by the time of a reference spawn, made right after it, that
    imports only numpy (ergolab's one heavy dependency).

    A spawn follows the machine's load the way the reference spawn does,
    not the way the calibration task of speed.py does.  The load changes
    over tens of seconds, so one window of spawns is timed before the
    worker and one after it, and setup_s is the median of both."""
    return [spawn_seconds(env, "import ergolab") * SETUP_REF_S
            / spawn_seconds(env, "import numpy") for _ in range(SETUP_SPAWNS)]


def pass_times(passes: list) -> list:
    """Normalised op times of each pass."""
    return [normalised(p["op_seconds"], p["cal_seconds"]) for p in passes]


def read_files(d: Path) -> dict:
    if not d.is_dir():
        return {}
    return {str(p.relative_to(d)): p.read_bytes()
            for p in sorted(d.rglob("*")) if p.is_file()}


def count_failures(ops, run: Path, passes: list) -> tuple:
    """(attempted, failed, unexpected failure reasons, failed (pass, op) keys)
    over the measured passes.

    An op fails in a pass when its pass-0 output fails its check, or when it
    raises in that pass or writes output that differs from pass 0.  Only a
    known-fault op's pass-0 check failure is expected; every error and every
    difference from pass 0 is unexpected, known-fault ops included."""
    ref = {op.name: read_files(run / "p0" / op.name) for op in ops}
    unexpected = []
    reasons = {}
    for op in ops:
        err = passes[0]["errors"].get(op.name)
        reasons[op.name] = err or check_op(op, ref[op.name])
        if reasons[op.name]:
            tag = "known fault" if op.fault and not err else "FAILED"
            print(f"{tag}: {op.name}: {reasons[op.name]}", file=sys.stderr)
            if tag == "FAILED":
                unexpected.append(f"{op.name} (pass 0): {reasons[op.name]}")
    attempted = 0
    failed = set()
    for k, p in enumerate(passes[1:], start=1):
        for op in ops:
            attempted += 1
            why = p["errors"].get(op.name)
            if why is None and read_files(run / f"p{k}" / op.name) != ref[op.name]:
                why = "output differs from pass 0"
            if why is not None:
                unexpected.append(f"{op.name} (pass {k}): {why}")
            if why is not None or reasons[op.name]:
                failed.add((k, op.name))
    return attempted, len(failed), unexpected, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ergolab" / "__init__.py").is_file():
        print("error: run from an ergolab checkout (src/ergolab not found)",
              file=sys.stderr)
        return 2
    ops = ops_for(args.workload, args.seed)
    env = worker_env()
    run = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run, ignore_errors=True)
    run.mkdir(parents=True)
    try:
        setup = [] if args.trace else setup_times(env)
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--run", str(run)],
            env=env, check=True, timeout=args.seconds + WORKER_GRACE_S)
        if not args.trace:
            setup += setup_times(env)
        report = json.loads((run / "worker.json").read_text())
        passes = report["passes"]
        attempted, failed, unexpected, failed_ops = count_failures(ops, run, passes)
        for line in unexpected:
            print(f"unexpected failure: {line}", file=sys.stderr)
        if args.trace:
            trace = json.loads((run / "spans.json").read_text())
            for name in trace["absent"]:
                print(f"absent: {name}", file=sys.stderr)
            values = layer_metrics(trace["spans"], passes[1:],
                                   [sum(p) for p in pass_times(passes[1:])])
            metrics = {m: {"value": values[m], "unit": unit} for m, unit in METRICS}
        else:
            ops_s = pass_times(passes[1:])
            metrics = {
                "pass_s": {"value": statistics.median(sum(p) for p in ops_s),
                           "unit": "s"},
                "op_p50_s": {"value": statistics.median(
                    t for k, p in enumerate(ops_s, start=1)
                    for op, t in zip(ops, p) if (k, op.name) not in failed_ops),
                    "unit": "s"},
                "peak_rss_mb": {"value": report["peak_rss_kb"] / 1024, "unit": "MB"},
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
            }
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run, ignore_errors=True)
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
