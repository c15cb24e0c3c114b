"""The traced benchmark wraps scarflab functions by name; keep those names alive.

perfbench/spans.py lists them in TARGETS.  A rename or deletion there would
only surface as an AttributeError in a `--trace 1` benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from scarflab.complexes import LabeledComplex

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
