"""The traced benchmark wraps scarflab functions by name; keep those names alive.

perfbench/spans.py lists them in TARGETS.  A rename or deletion there would
only surface as an AttributeError in a `--trace 1` benchmark run, and a
changed return type as an error in a work count; so benchmark operations
are also run traced here, and their work counts checked.  It also credits
each canonical form to the enumeration call that made it, and a cold
enumeration canonicalises exactly the classes of its own level: the levels
below it are walked without forms, and no other enumeration is called.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scarflab.complexes import LabeledComplex

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"

# Run in a fresh interpreter, so the caches are cold and the wrappers that
# `install` puts on the scarflab modules do not outlive the call.
INSTALL_SPANS = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from scarflab import cli, graphs  # cli imports every module install wraps
recorder = spans.Recorder(0)
spans.install(recorder)
"""

TRACED_ENUMERATION = INSTALL_SPANS + """
getattr(graphs, sys.argv[2])(int(sys.argv[3]))
totals = spans.aggregate(recorder.spans)
print(json.dumps([totals["graphs.enumerate.candidates"], totals["graphs.enumerate.classes"]]))
"""

TRACED_OPERATION = INSTALL_SPANS + """
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[2]))
print(json.dumps([code, spans.aggregate(recorder.spans)]))
"""


def run_traced(script: str, *args: str):
    """The JSON that script prints in a fresh interpreter, given SPANS and args."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", script, str(SPANS), *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(result.stdout)


def test_trace_targets_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module_name, attribute, _, _ in spans.TARGETS:
        module = importlib.import_module(f"scarflab.{module_name}")
        assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute}"
    assert callable(LabeledComplex.restrict)


@pytest.mark.parametrize("function, n, candidates, classes", [
    # candidates: canonical forms computed inside the call; classes:
    # representatives it returns.  Both count level n alone, one form per
    # class, so candidates_per_class reads 1.0.
    ("enumerate_connected_graphs", 6, 112, 112),
    ("enumerate_trees", 9, 47, 47),
])
def test_enumeration_credited_level_by_level(function, n, candidates, classes):
    assert run_traced(TRACED_ENUMERATION, function, str(n)) == [candidates, classes]


@pytest.mark.parametrize("argv, counts", [
    (["scarf", "--graph", "family:S5(3,3,3)", "--spec", "path:4"],
     {"complexes.lcm_lattice.points": 766, "ideals.build_ideal.generators": 14,
      "complexes.scarf_complex.faces": 256}),
    (["derive", "--spec", "path:4", "--n-max", "9", "--mode", "subgraph", "--trees-only"],
     # five x_V checks fall back to the face list; the whole complex is its
     # own restriction at x_V, so none is restricted (no span, no count)
     {"ideals.build_ideal.generators": 273, "complexes.scarf_complex.calls": 5,
      "complexes.scarf_complex.faces": 77, "complexes.restrict.calls": None}),
])
def test_benchmark_operations_run_traced(argv, counts):
    code, totals = run_traced(TRACED_OPERATION, json.dumps(argv))
    assert code == 0
    assert {key: totals.get(key) for key in counts} == counts
