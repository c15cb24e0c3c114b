"""No module-level import in src/scarflab or tests goes unused, and no
module-level private name in src/scarflab goes unread there."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(ROOT.glob("src/scarflab/*.py"))
FILES = sorted([*SOURCES, *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[str]:
    """The names bound by the module's top-level imports that no name in
    the module reads, each with its line."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private functions, classes and constants (a leading
    underscore, not a dunder) of the sources, keyed by file, that no source
    reads as a name, an attribute or an import, each with its file and line."""
    defined = []
    read = set()
    for label, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [target.id for target in nodes if isinstance(target, ast.Name)]
            else:
                targets = []
            defined += [(label, name, node.lineno) for name in targets if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{label}: {name} (line {line})" for label, name, line in defined if name not in read]


def test_checker_finds_unused_names():
    source = "import os.path\nimport sys as system\nfrom a import b, c\n\nprint(b, os)\n"
    assert unused_imports(source) == ["system (line 2)", "c (line 3)"]


def test_checker_finds_unread_private_names():
    sources = {
        "a.py": (
            "_USED = 1\n_UNUSED: int = 2\n__all__ = []\n\n"
            "def _helper():\n    return _USED\n\n"
            "def _orphan():\n    _helper()\n\n"
            "class _Shape:\n    pass\n"
        ),
        "b.py": "from a import _Shape\nimport a\n\na._orphan = None\n",
    }
    assert unread_private_names(sources) == ["a.py: _UNUSED (line 2)", "a.py: _orphan (line 8)"]


def test_no_unread_private_names_in_src():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in SOURCES}
    assert unread_private_names(sources) == []


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
