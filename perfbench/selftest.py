"""Self-test of the output checks: every mutation must be caught.

Runs each workload's ops once (the worker's warm-up pass plus one pass),
checks that the untouched outputs pass (the two known faults fail), then
feeds the checks copies of the outputs with one field mutated: a K off by
one, a cluster pair moved above eps, a verdict flipped, one byte of a CSV
changed, and so on.  Last, it gives the checks the known-fault curve with
the verdicts a fixed classifier may report, which must pass.  Exits 1 if
any mutation passes its check or any such repair fails it.

    python3 perfbench/selftest.py          # from the repository root
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import read_files, worker_env  # noqa: E402
from workloads import ops_for  # noqa: E402

SEED = 5


def _edit_json(name, edit):
    def mutate(files):
        obj = json.loads(files[name])
        edit(obj)
        return {**files, name: (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()}
    return mutate


def _flip_csv_digit(name):
    def mutate(files):
        data = bytearray(files[name])
        start = data.index(b"\n") + 1  # after the provenance header
        i = next(k for k in range(start, len(data)) if chr(data[k]).isdigit())
        data[i] = ord("7") if data[i] != ord("7") else ord("3")
        return {**files, name: bytes(data)}
    return mutate


def _set_verdict(label, value):
    def edit(bundle):
        bundle["verdicts"] = [[k, value if k == label else v]
                              for k, v in bundle["verdicts"]]
    return edit


def _fix_verdict(value):
    """Set the complexity verdict in bundle.json and on stdout, as a fixed
    classifier would report it."""
    def mutate(files):
        files = _edit_json("bundle.json", _set_verdict("complexity", value))(files)
        out = files["stdout.txt"].decode().replace("complexity: bounded",
                                                   f"complexity: {value}")
        return {**files, "stdout.txt": out.encode()}
    return mutate


def _k_off_by_one(point):
    """K_est + 1, with K_hi raised to match so that the interval still holds."""
    def edit(bundle):
        p = bundle["curves"][0]["points"][point]
        p["k_est"] += 1
        p["k_hi"] = max(p["k_hi"], p["k_est"])
    return edit


def _move_member_away(op):
    """Move the last member of cluster 0 into the cluster it is farthest from."""
    def edit(bundle):
        p = op.params
        system = checks.parse_system(p["system"])
        pts = checks.samples(system, checks.child(op.seed, checks.TAG_EQUI),
                             p["samples"])
        D = checks.chord_matrix(pts)
        clusters = bundle["equipartitions"][0][1]["clusters"]
        member = clusters[0].pop()
        far = max(range(1, len(clusters)), key=lambda c: D[member, clusters[c]].max())
        clusters[far].append(member)
        clusters[far].sort()
    return edit


def _edit_table_symbol(bundle):
    row = bundle["tables"][0][1][0]
    row[10] = (row[10] + 1) % 8


def _bump(path, delta):
    def edit(obj):
        *keys, last = path
        for k in keys:
            obj = obj[k]
        obj[last] += delta
    return edit


def mutations(ops: dict) -> list:
    """(op, description, mutate(files) -> files)."""
    return [
        (ops["halves"], "K off by one at n=8", _edit_json("bundle.json", _k_off_by_one(0))),
        (ops["halves"], "K off by one at n=1024",
         _edit_json("bundle.json", _k_off_by_one(3))),
        (ops["halves"], "one byte of curve_0.csv changed", _flip_csv_digit("curve_0.csv")),
        (ops["halves"], "verdict flipped to growing",
         _edit_json("bundle.json", _set_verdict("complexity", "growing"))),
        (ops["bernoulli"], "verdict flipped to bounded",
         _edit_json("bundle.json", _set_verdict("complexity", "bounded"))),
        (ops["fbar-char"], "K off by one on the fbar curve",
         _edit_json("bundle.json", _k_off_by_one(1))),
        (ops["fhat-cover"], "cover count off by one",
         _edit_json("result.json", _bump(["count"], 1))),
        (ops["report"], "report verdict flipped",
         _edit_json("bundle.json", _set_verdict("rotation", "growing"))),
        (ops["fbar-equi"], "cluster pair moved above eps",
         _edit_json("bundle.json", _move_member_away(ops["fbar-equi"]))),
        (ops["hamming-equi"], "covered mass off by one sample",
         _edit_json("bundle.json", _bump(["equipartitions", 0, 1, "covered_mass"],
                                         1 / ops["hamming-equi"].params["samples"]))),
        (ops["verify-limsup"], "max_pairwise shifted",
         _edit_json("result.json", _bump(["verify", "max_pairwise"], 1e-6))),
        (ops["spectral-rotation"], "covering count off by one",
         _edit_json("bundle.json", _bump(["geometries", 2, 1, "covering_count"], 1))),
        (ops["spectral-doubling"], "verdict flipped to ap",
         _edit_json("bundle.json", _set_verdict("spectral", "ap"))),
        (ops["expansivity-doubling"], "one byte of expansivity.csv changed",
         _flip_csv_digit("expansivity.csv")),
        (ops["expansivity-rotation"], "estimate shifted by one pair",
         _edit_json("bundle.json", _bump(["tables", 0, 1, 1, 1], 1 / 2000))),
        (ops["odometer"], "K off by one on the odometer curve",
         _edit_json("bundle.json", _k_off_by_one(2))),
        (ops["name-odometer"], "one name symbol changed",
         _edit_json("bundle.json", _edit_table_symbol)),
        (ops["eigen-doubling"], "residual shifted",
         _edit_json("result.json", _bump(["residual"], 1e-9))),
    ]


def repairs(ops: dict) -> list:
    """(op, description, mutate(files) -> files) that must pass their check:
    a known-fault op's output as it would read once the fault is fixed."""
    return [
        (ops["bernoulli16-ceiling"], "ceiling verdict set to inconclusive",
         _fix_verdict("inconclusive")),
        (ops["bernoulli16-ceiling"], "ceiling verdict set to growing",
         _fix_verdict("growing")),
    ]


def main() -> int:
    run = Path.cwd() / ".bench_run" / f"selftest-{os.getpid()}"
    shutil.rmtree(run, ignore_errors=True)
    outputs, ops = {}, {}
    bad = 0
    try:
        for workload in ("cover-curves", "cluster-rows", "symbolic-orbits"):
            wrun = run / workload
            subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload",
                            workload, "--seed", str(SEED), "--seconds", "0",
                            "--trace", "0", "--run", str(wrun)],
                           env=worker_env(), check=True, timeout=600)
            for op in ops_for(workload, SEED):
                ops[op.name] = op
                outputs[op.name] = read_files(wrun / "p0" / op.name)
                why = checks.check_op(op, outputs[op.name])
                if (why is None) == (op.fault is not None):
                    bad += 1
                    print(f"UNEXPECTED {op.name}: {why or 'passed'}")
        for op, what, mutate in mutations(ops):
            why = checks.check_op(op, mutate(outputs[op.name]))
            if why is None:
                bad += 1
            print(f"{'caught' if why else 'MISSED'}: {op.name}: {what}"
                  + (f" -> {why}" if why else ""))
        for op, what, mutate in repairs(ops):
            why = checks.check_op(op, mutate(outputs[op.name]))
            if why is not None:
                bad += 1
            print(f"{'REJECTED' if why else 'accepted'}: {op.name}: {what}"
                  + (f" -> {why}" if why else ""))
    finally:
        shutil.rmtree(run, ignore_errors=True)
    print("selftest", "FAILED" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
