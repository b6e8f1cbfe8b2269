"""Committed golden artifacts: every file a small CLI run writes must match
the stored bytes.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only when an
output change is intended, and say why in the change that does it.
"""

import json
import sys
from pathlib import Path

import pytest

from ergolab.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEED = 7
# 300 equal circle cells, so the labels are uint16
CELLS300 = json.dumps({"partition": {"kind": "circle_intervals",
                                     "cuts": [k / 300 for k in range(300)]}})
# 16 cells with cuts (2k+1)/32: dyadic depth 5, and below 1/32 is the last cell
DYADIC16 = json.dumps({"partition": {"kind": "circle_intervals",
                                     "cuts": [(2 * k + 1) / 32 for k in range(16)]}})

CASES = {
    "complexity-rotation-halves": [
        "complexity", "--system", "rotation:golden", "--target", "halves",
        "--eps", "0.2", "--horizons", "8,32,128", "--samples", "120"],
    "complexity-rotation-fbar": [
        "complexity", "--system", "rotation:golden", "--target", "character:1",
        "--eps", "0.3", "--horizons", "8,16,32", "--samples", "80"],
    "complexity-bernoulli": [
        "complexity", "--system", "bernoulli:0.5", "--target", "cylinder:0",
        "--eps", "0.1", "--horizons", "4,8,16", "--samples", "200"],
    "complexity-sturmian": [
        "complexity", "--system", "sturmian", "--target", "cylinder:0",
        "--eps", "0.1", "--horizons", "8,64,256", "--samples", "150"],
    "meanequi-hamming": [
        "meanequi", "--system", "rotation:golden", "--target", "halves",
        "--eps", "0.2", "--samples", "120", "--horizon", "64"],
    "meanequi-fbar": [
        "meanequi", "--system", "rotation:golden", "--target", "character:1",
        "--eps", "0.5", "--samples", "120", "--horizon", "32"],
    "report": ["report", "--samples", "150"],
    "spectral-rotation": [
        "spectral", "--system", "rotation:golden", "--target", "character:1",
        "--horizons", "8,32,128", "--radius", "0.5", "--samples", "200"],
    "spectral-doubling": [
        "spectral", "--system", "doubling", "--target", "character:1",
        "--horizons", "8,16,48", "--radius", "1.0", "--samples", "150"],
    "spectral-rotation-long": [
        "spectral", "--system", "rotation:golden", "--target", "character:1",
        "--horizons", "64,256,1024", "--radius", "0.5", "--samples", "300"],
    "spectral-doubling-long": [
        "spectral", "--system", "doubling", "--target", "character:1",
        "--horizons", "16,128,1024", "--radius", "1.0", "--samples", "100"],
    "expansivity-rotation": [
        "expansivity", "--system", "rotation:golden", "--target", "character:1",
        "--delta", "1.9", "--pairs", "300", "--horizon", "128"],
    "expansivity-doubling": [
        "expansivity", "--system", "doubling", "--target", "indicator:halves:0",
        "--delta", "0.4", "--pairs", "100", "--horizon", "128"],
    "name-doubling": [
        "name", "--system", "doubling", "--target", "halves", "--n", "96"],
    "name-odometer": [
        "name", "--system", "odometer:2", "--target", "cylinder:0,1,2:2",
        "--n", "96"],
    "complexity-odometer": [
        "complexity", "--system", "odometer:2", "--target", "cylinder:0,1:2",
        "--eps", "0.1", "--horizons", "4,8,16", "--samples", "50"],
    "meanequi-failure": [
        "meanequi", "--system", "doubling", "--target", "character:1",
        "--eps", "0.5", "--k-max", "10", "--samples", "120", "--horizon", "64"],
    "complexity-rotation-fbar-tiles": [
        "complexity", "--system", "rotation:golden", "--target", "character:1",
        "--eps", "0.2", "--horizons", "16,64,256", "--samples", "300"],
    "meanequi-cuts3": [
        "meanequi", "--system", "rotation:golden", "--target", "cuts:0:0.3:0.7",
        "--eps", "0.3", "--samples", "300", "--horizon", "256"],
    "complexity-bernoulli16": [
        "complexity", "--system", "bernoulli:0.5:4", "--target", "cylinder:0,1:4",
        "--eps", "0.1", "--horizons", "4,8,16", "--samples", "200"],
    # n=4 is covered within the budget (one bootstrap resample is not);
    # n=8 and n=16 hit it
    "complexity-bernoulli-budget": [
        "complexity", "--system", "bernoulli:0.5", "--target", "cylinder:0",
        "--eps", "0.1", "--horizons", "4,8,16", "--samples", "200",
        "--max-centers", "13"],
    # at n=8 the ball graph has 24 components, one an isolated sample; at
    # n=64 and n=256 it is connected
    "complexity-cuts3-components": [
        "complexity", "--system", "rotation:golden", "--target", "cuts:0:0.3:0.7",
        "--eps", "0.1", "--horizons", "8,64,256", "--samples", "700"],
    # doubling labels under cuts that are not dyadic, on sampled points and
    # on the own stream of a float point
    "complexity-doubling-cuts3": [
        "complexity", "--system", "doubling", "--target", "cuts:0:0.3:0.7",
        "--eps", "0.1", "--horizons", "8,16,32", "--samples", "200"],
    "name-doubling-cuts": [
        "name", "--system", "doubling", "--target", "cuts:0.1:0.6", "--n", "96",
        "--point", "0.3"],
    # one-column ladder steps; at n=2, eps 0.5 is exactly the distance of
    # one disagreement, which stays outside the ball
    "complexity-cells300-steps": [
        "complexity", "--system", "rotation:golden", "--target", CELLS300,
        "--eps", "0.5", "--horizons", "1,2,3", "--samples", "400"],
    # doubling labels under dyadic cuts of depth 5, none at 0, so the wrap
    # of the cell below the first cut is read
    "complexity-doubling-dyadic": [
        "complexity", "--system", "doubling", "--target", DYADIC16,
        "--eps", "0.3", "--horizons", "4,8,16", "--samples", "200"],
}


def _run(name: str, out: Path) -> None:
    assert main(["--seed", str(SEED), "--out", str(out), *CASES[name]]) == 0


def _files(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    _run(name, tmp_path)
    got, want = _files(tmp_path), _files(GOLDEN / name)
    assert sorted(got) == sorted(want)
    for fname in want:
        assert got[fname] == want[fname], f"{name}/{fname} differs from golden"


if __name__ == "__main__":
    for case in sys.argv[1:] or sorted(CASES):
        _run(case, GOLDEN / case)
