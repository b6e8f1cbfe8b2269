"""Every command of the README "Command line" block runs and exits 0."""

import re
import shlex
from pathlib import Path

import pytest

from ergolab.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


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
