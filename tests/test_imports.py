"""Import guard: every name a ``switchmux`` module imports is read in that
module or listed in its ``__all__``, so an API that nothing uses cannot
linger behind an import.

Two imports are exempt: ``from __future__ import annotations``, and an
import statement that carries ``# noqa: F401`` followed by its reason (a
name kept only so that another program can reach it as a module attribute).
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "switchmux"
# the reason must follow the code
KEPT = re.compile(r"#\s*noqa:\s*F401\b\s*\S")


def exported(tree: ast.Module) -> set:
    """The names of a module-level ``__all__`` list or tuple."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


def unused_imports(source: str) -> list:
    """``"<line>: <name>"`` for each imported name the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = exported(tree) | {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(KEPT.search(line) for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            # "import a.b" binds a
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, unused",
    [
        ("import os\n", ["1: os"]),
        ("import os.path\nos.sep\n", []),
        ("import numpy as np\nx = 1\n", ["1: np"]),
        ("from .dsp import Rng, upsample\nRng(1)\n", ["1: upsample"]),
        ("from . import dsp\n__all__ = ['dsp']\n", []),
        ("from __future__ import annotations\n", []),
        ("def f():\n    import json\n", ["2: json"]),
        ("import os  # noqa: F401\n", ["1: os"]),  # no reason given
        ("import os  # noqa: F401  (read by a plug-in)\n", []),
        ("from .dsp import (  # noqa: F401  (a plug-in reads them)\n    Rng,\n)\n", []),
    ],
)
def test_the_guard_names_each_unread_import(source, unused):
    assert unused_imports(source) == unused
