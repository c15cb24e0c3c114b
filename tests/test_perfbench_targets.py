"""The traced benchmark wraps scarflab functions by name; keep those names alive.

perfbench/spans.py lists them in TARGETS.  A rename or deletion there would
only surface as an AttributeError in a `--trace 1` benchmark run.  It also
credits each canonical form to the enumeration call that made it, which
holds only while every level of an enumeration is a call of its own.
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

# Run in a fresh interpreter, so the enumeration is cold and the wrappers
# that `install` puts on the scarflab modules do not outlive it.
TRACED_ENUMERATION = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
from scarflab import cli, graphs  # cli imports every module install wraps
recorder = spans.Recorder(0)
spans.install(recorder)
getattr(graphs, sys.argv[2])(int(sys.argv[3]))
totals = spans.aggregate(recorder.spans)
print(json.dumps([totals["graphs.enumerate.candidates"], totals["graphs.enumerate.classes"]]))
"""


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
    # candidates: canonical forms of levels 2..n; classes: representatives
    # returned by those levels.  The ratios are the benchmark's
    # candidates_per_class on sweep-n6 (3.3873) and derive-trees (2.6596).
    ("enumerate_connected_graphs", 6, 1 + 2 + 8 + 53 + 417, 1 + 2 + 6 + 21 + 112),
    ("enumerate_trees", 9, 1 + 1 + 2 + 6 + 11 + 27 + 59 + 143, 1 + 1 + 2 + 3 + 6 + 11 + 23 + 47),
])
def test_enumeration_credited_level_by_level(function, n, candidates, classes):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run(
        [sys.executable, "-c", TRACED_ENUMERATION, str(SPANS), function, str(n)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(result.stdout) == [candidates, classes]
