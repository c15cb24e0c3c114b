"""The runtime stays pure standard library: src/scarflab imports nothing
but itself and modules of the standard library."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/scarflab/*.py"))


def foreign_imports(source: str) -> list[str]:
    """The modules imported anywhere in the source that are neither
    `scarflab` (relative imports included) nor in the standard library,
    each with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "scarflab" and top not in sys.stdlib_module_names:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_checker_finds_foreign_modules():
    source = (
        "from __future__ import annotations\nimport os.path, numpy as np\n"
        "from . import graphs\nfrom scarflab.graphs import path_graph\n\n"
        "def f():\n    from sympy.polys import ring\n"
    )
    assert foreign_imports(source) == ["numpy (line 2)", "sympy.polys (line 7)"]


def test_files_found():
    assert ROOT / "src" / "scarflab" / "homology.py" in FILES


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_only_stdlib_imports(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
