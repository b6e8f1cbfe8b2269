"""The docs name only live code.

Every private name (its last dotted part starts with one underscore) that
a module of ``ergolab`` or the README writes in backticks, or alone in
parentheses as ``(_name)``, must be an attribute of some ergolab module or
class, so a docstring cannot go on citing a helper that was removed.
"""

import functools
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import ergolab

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(ergolab.__file__).resolve().parent
_NAME = r"[A-Za-z_][\w.]*"
_CITED = re.compile(rf"`+({_NAME})`+|\(({_NAME})\)")


@functools.cache
def _live_names() -> set:
    names = set()
    for info in pkgutil.iter_modules(ergolab.__path__):
        module = importlib.import_module(f"ergolab.{info.name}")
        names |= set(vars(module))
        for value in vars(module).values():
            if inspect.isclass(value):
                names |= set(dir(value))
    return names


def _cited_private(text: str) -> set:
    cited = {a or b for a, b in _CITED.findall(text)}
    return {name for name in cited if re.match(r"_[^_]", name.rsplit(".", 1)[-1])}


@pytest.mark.parametrize("path", [*sorted(PACKAGE.glob("*.py")), ROOT / "README.md"],
                         ids=lambda p: p.name)
def test_cited_private_names_are_live(path):
    live = _live_names()
    stale = sorted(n for n in _cited_private(path.read_text()) if n.rsplit(".", 1)[-1] not in live)
    assert not stale, f"{path.name} cites {stale}"


def test_citations_are_found():
    text = "``cover._farthest_pair`` and `_x` (_kernel_bound) but not (a, _b) or __init__"
    assert _cited_private(text) == {"cover._farthest_pair", "_x", "_kernel_bound"}
