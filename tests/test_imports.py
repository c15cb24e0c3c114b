"""No module-level import in src/scarflab or tests goes unused, and no
module-level name, method or property in src/scarflab goes unread there,
apart from the allowlisted public names."""

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


# Public names that no module in src/scarflab reads, kept on purpose.
ALLOWED_UNREAD = frozenset({
    # The README lists it among what `complexes` offers.
    "complexes.cone",
    # perfbench/spans.py wraps it by name until a benchmark change drops it.
    "graphs.contains_induced",
})


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not _is_dunder(name)


def _module_level_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class, or
    the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [target.id for target in nodes if isinstance(target, ast.Name)]
    return []


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads as a name, an attribute or an import."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private functions, classes and constants (a leading
    underscore, not a dunder) of the sources, keyed by file, that no source
    reads as a name, an attribute or an import, each with its file and line."""
    defined = []
    read = set()
    for label, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            defined += [
                (label, name, node.lineno) for name in _module_level_names(node) if _is_private(name)
            ]
        read |= _read_names(tree)
    return [f"{label}: {name} (line {line})" for label, name, line in defined if name not in read]


def unread_public_names(sources: dict[str, str], allowed: frozenset[str] = frozenset()) -> list[str]:
    """The module-level public functions, classes and constants of the
    sources, keyed by file, and the methods and properties (not dunders) of
    their module-level classes, that no source reads as a name, an attribute
    or an import.  Each comes as `module.name` or `module.Class.name` with
    its line, unless `allowed` holds that qualified name.

    A name counts as read wherever a source reads it, on whatever object,
    so the check cannot see a member whose name another class's member or
    a local variable shares.  These were found and removed by hand:
    `MonomialIdeal.restrict` (masked by `LabeledComplex.restrict`),
    `ScarfReport.fields_disagree` (by `SweepRecord.fields_disagree`),
    `SweepResult.ok` (by `LeafPipelineReport.ok`), the function
    `graphs.to_json_dict` (by the `to_json_dict` methods), and
    `LabeledComplex.vertices`, `LabeledComplex.label` and
    `ScarfReport.verdict` (each by a local variable of that name)."""
    defined = []
    read = set()
    for label, source in sources.items():
        tree = ast.parse(source)
        module = Path(label).stem
        for node in tree.body:
            defined += [
                (f"{module}.{name}", name, node.lineno)
                for name in _module_level_names(node)
                if not name.startswith("_")
            ]
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{module}.{node.name}.{member.name}", member.name, member.lineno)
                    for member in node.body
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not _is_dunder(member.name)
                ]
        read |= _read_names(tree)
    return [
        f"{qualified} (line {line})"
        for qualified, name, line in defined
        if name not in read and qualified not in allowed
    ]


def src_sources() -> dict[str, str]:
    return {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in SOURCES}


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
    assert unread_private_names(src_sources()) == []


def test_checker_finds_unread_public_names():
    sources = {
        "a.py": (
            "LIMIT = 1\nUNUSED: int = 2\n_HIDDEN = 3\n\n"
            "def helper():\n    return LIMIT\n\n"
            "def orphan():\n    pass\n\n"
            "def kept():\n    pass\n\n"
            "class Shape:\n"
            "    def area(self):\n        return 0\n\n"
            "    @property\n    def size(self):\n        return 1\n\n"
            "    def used(self):\n        return self.area()\n\n"
            "    def __repr__(self):\n        return ''\n"
        ),
        "b.py": "from a import Shape, helper\n\n\ndef _run(shape):\n    return helper() + shape.used()\n",
    }
    found = ["a.UNUSED (line 2)", "a.orphan (line 8)", "a.Shape.size (line 19)"]
    assert unread_public_names(sources, frozenset({"a.kept"})) == found
    assert unread_public_names(sources) == found[:2] + ["a.kept (line 11)"] + found[2:]


def test_no_unread_public_names_in_src():
    assert unread_public_names(src_sources(), ALLOWED_UNREAD) == []


def test_allowlisted_names_are_unread_in_src():
    """An allowlisted name that src/scarflab reads, or no longer defines,
    would hide a name that grows back under it."""
    unread = {entry.partition(" ")[0] for entry in unread_public_names(src_sources())}
    assert ALLOWED_UNREAD <= unread


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
