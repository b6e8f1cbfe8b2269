"""Every command of the README "Command line" block runs and exits 0, and
holds no more memory than it charges against its budget."""

import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from ergolab import systems
from ergolab.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _commands() -> list:
    text = README.read_text()
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    joined = block.replace("\\\n", " ")
    return [shlex.split(line, comments=True)[1:]
            for line in joined.splitlines() if line.startswith("ergolab ")]


def test_readme_block_found():
    cmds = _commands()
    assert len(cmds) >= 7
    assert ["name", "--system", "doubling", "--target", "halves", "--n", "4",
            "--point", "0.375"] in cmds


@pytest.mark.parametrize("argv", _commands(), ids=lambda a: " ".join(a)[:60])
def test_readme_command_exits_0(argv, tmp_path, capsys):
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path)
    assert main(argv) == 0


def test_readme_command_runs_as_module(tmp_path):
    """A checkout runs the README commands with `python -m ergolab`."""
    argv = ["name", "--system", "doubling", "--target", "halves", "--n", "4",
            "--point", "0.375"]
    assert argv in _commands()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "ergolab", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0,1,1,0\n", "")


@pytest.mark.parametrize("argv", _commands(), ids=lambda a: " ".join(a)[:60])
def test_readme_command_peak_within_its_charge(argv, tmp_path, capsys, monkeypatch):
    """Every large array is charged before it is built: the traced peak of a
    README command stays within the largest byte count it passed to
    `_check_bytes` plus 8 chunks.

    The 8 chunks cover what no charge counts: the temporaries of chunked
    reads and tiles, each near `_CHUNK_BYTES`.  Measured, expansivity
    makes no charge and peaks at 3.2 MiB, 6.3 chunks, at any chunk size:
    a chunk of pairs holds the reads of both points and their gaps at
    once.  The complexity command peaks at 5.6 MiB beside a 4.5 MiB
    charge, the 13 * 600**2 bytes of its cover arrays.  The run is traced
    after one warm-up run, so the peak leaves out caches filled once per
    process.
    """
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(tmp_path)
    _check_peak_within_charge(argv, monkeypatch)


@pytest.mark.parametrize("argv", [
    ["meanequi", "--system", "rotation:golden", "--target", "character:1", "--eps", "0.5",
     "--samples", "800", "--horizon", "128"],
    ["meanequi", "--system", "rotation:golden", "--target", "halves", "--eps", "0.2",
     "--samples", "1000", "--horizon", "2048"],
    ["meanequi", "--system", "rotation:golden", "--target", "cuts:0:0.3:0.7", "--eps", "0.3",
     "--samples", "300", "--horizon", "256"],
    ["meanequi", "--system", "identity", "--target", "halves", "--eps", "0.2",
     "--samples", "2000", "--horizon", "8"],
], ids=["fbar-equi", "hamming-equi", "cuts3-equi", "identity-halves"])
def test_meanequi_peak_within_its_charge(argv, capsys, monkeypatch):
    """The same bound on the benchmark's three meanequi runs (fbar, two-cell
    and three-cell Hamming clusters) and on an identity run whose halves
    names make two Hamming clusters of about 1000 samples.  Measured peaks:
    2.5, 3.5, 1.6 and 4.3 MiB; the identity run peaked at 12.5 MiB while a
    cluster's farthest pair came from its float64 distance block."""
    _check_peak_within_charge(argv, monkeypatch)


@pytest.mark.parametrize("argv", [
    ["complexity", "--system", "rotation:golden", "--target", "cuts:0:0.3:0.7", "--eps", "0.1",
     "--horizons", "8,64,256,1024", "--samples", "700"],
    ["spectral", "--system", "rotation:golden", "--target", "character:1",
     "--horizons", "64,256,1024", "--radius", "0.5", "--samples", "1500"],
], ids=["cuts3", "spectral-rotation"])
def test_benchmark_run_peak_within_its_charge(argv, capsys, monkeypatch):
    """The same bound on the benchmark's three-cell complexity curve, whose
    counted labels are read at n = 1024, and on its Koopman scan at
    N = 1024.  Measured peaks: 7.5 MiB beside the 6.1 MiB charge of the
    cover arrays (13 * 700**2 bytes), and 1.3 MiB beside the 1.3 MiB charge
    of the lag spectrum."""
    _check_peak_within_charge(argv, monkeypatch)


def _check_peak_within_charge(argv, monkeypatch):
    charges = [0]
    check = systems._check_bytes

    def recording(nbytes, what):
        charges.append(nbytes)
        check(nbytes, what)

    for name, module in list(sys.modules.items()):
        if name.startswith("ergolab.") and getattr(module, "_check_bytes", None) is check:
            monkeypatch.setattr(module, "_check_bytes", recording)
    assert main(argv) == 0
    charges[1:] = []
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= max(charges) + 8 * systems._CHUNK_BYTES, (peak, max(charges))
