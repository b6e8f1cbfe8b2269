"""Every command of the README "Command line" block runs and exits 0."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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
