"""Span recorder for traced benchmark runs.

`install` wraps the public scarflab functions listed in TARGETS, plus
`LabeledComplex.restrict`, on every scarflab module that holds them, so calls
made through any module's name are recorded.  Each call appends one span
`(op, name, start, end, parent, work)`: the operation id, the layer name,
perf_counter bounds, the index of the enclosing span (-1 for the root) and a
work count taken from the call (generators built, faces, matrix entries ...).
Spans stay in memory; `aggregate` folds them into additive totals once the
operation has finished.

A span's self time is its duration minus the durations of its direct
children.  The program is single-threaded, so children are disjoint and lie
inside their parent, and the self times of one operation's spans add up to
the root span's duration exactly.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

RANK_FIELDS = ("gf2", "gf32003", "q")

# Span name -> label of the work count its spans carry.
WORK = {
    "graphs.enumerate_connected": "classes",
    "graphs.enumerate_trees": "classes",
    "ideals.build_ideal": "generators",
    "complexes.scarf_complex": "faces",
    "complexes.lcm_lattice": "points",
    "homology.reduced_betti": "acyclic",
    **{f"homology.matrix_rank.{field}": "entries" for field in RANK_FIELDS},
}

ENUMERATIONS = ("graphs.enumerate_connected", "graphs.enumerate_trees")


def _entries(rank, matrix, field):
    return len(matrix) * len(matrix[0]) if matrix else 0


# (module, attribute, span name or a function of the call's arguments giving
# it, work count as a function of the result and the call's arguments)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("analysis", "sweep", "analysis.sweep", None),
    ("analysis", "derive_obstructions", "analysis.derive_obstructions", None),
    ("analysis", "is_scarf", "analysis.is_scarf", None),
    ("graphs", "enumerate_connected_graphs", "graphs.enumerate_connected",
     lambda reps, *a, **k: len(reps)),
    ("graphs", "enumerate_trees", "graphs.enumerate_trees", lambda reps, *a, **k: len(reps)),
    ("graphs", "canonical_form", "graphs.canonical_form", None),
    ("graphs", "contains_induced", "graphs.contains", None),
    ("graphs", "contains_subgraph", "graphs.contains", None),
    ("ideals", "build_ideal", "ideals.build_ideal",
     lambda ideal, *a, **k: ideal.num_generators),
    ("complexes", "scarf_complex", "complexes.scarf_complex",
     lambda delta, *a, **k: len(delta.faces)),
    ("complexes", "lcm_lattice", "complexes.lcm_lattice", lambda lattice, *a, **k: len(lattice)),
    ("homology", "boundary_matrix", "homology.boundary_matrix", None),
    ("homology", "matrix_rank",
     lambda matrix, field: f"homology.matrix_rank.{field.render()}", _entries),
    ("homology", "reduced_betti", "homology.reduced_betti",
     lambda profile, *a, **k: int(profile.is_acyclic)),
)


class Recorder:
    """Spans of one operation, in call order."""

    def __init__(self, op: int) -> None:
        self.op = op
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name, work=None):
        spans, stack, op = self.spans, self._stack, self.op

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (op, label, start, perf_counter(), parent, 0)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            count = work(result, *args, **kwargs) if work else 0
            spans[index] = (op, label, start, end, parent, count)
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Route every TARGETS function and LabeledComplex.restrict through recorder."""
    from scarflab.complexes import LabeledComplex

    modules = [
        module for key, module in sys.modules.items()
        if key == "scarflab" or key.startswith("scarflab.")
    ]
    for module_name, attribute, name, work in TARGETS:
        original = getattr(sys.modules[f"scarflab.{module_name}"], attribute)
        traced = recorder.wrap(original, name, work)
        for module in modules:
            if vars(module).get(attribute) is original:
                setattr(module, attribute, traced)
    # The method takes the wrapper as-is: a plain function becomes a method.
    LabeledComplex.restrict = recorder.wrap(LabeledComplex.restrict, "complexes.restrict")


def aggregate(spans) -> dict[str, float]:
    """Additive totals of one operation's spans.

    Per span name: `<name>.calls`, `<name>.self_s` and, for names in WORK,
    `<name>.<label>` summing the work counts.  Plus the bases of two ratios:
    `graphs.enumerate.candidates` (canonical_form calls made directly by an
    enumeration) over `graphs.enumerate.classes` (classes returned by the
    enumerations that made them), and `analysis.is_scarf.scanned_restricts`
    (restrictions made directly by is_scarf) over
    `analysis.is_scarf.scanned_points` (lattice points of the ideals whose
    is_scarf call restricted at least once).
    """
    covered = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, float] = {}

    def add(key: str, value) -> None:
        totals[key] = totals.get(key, 0) + value

    candidates: Counter[int] = Counter()
    restricts: Counter[int] = Counter()
    for index, (_, name, start, end, parent, work) in enumerate(spans):
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", end - start - covered[index])
        if name in WORK:
            add(f"{name}.{WORK[name]}", work)
        if parent < 0:
            continue
        parent_name = spans[parent][1]
        if name == "graphs.canonical_form" and parent_name in ENUMERATIONS:
            candidates[parent] += 1
        elif name == "complexes.restrict" and parent_name == "analysis.is_scarf":
            restricts[parent] += 1
    add("graphs.enumerate.candidates", sum(candidates.values()))
    add("graphs.enumerate.classes", sum(spans[i][5] for i in candidates))
    add("analysis.is_scarf.scanned_restricts", sum(restricts.values()))
    add("analysis.is_scarf.scanned_points", sum(
        work for _, name, _, _, parent, work in spans
        if name == "complexes.lcm_lattice" and parent in restricts
    ))
    return totals
