"""Release gate.

Each test here enforces one numbered acceptance check at exact equality and
registers a PASS/FAIL line that the terminal summary prints at the end of the
run.  Checks with a runtime budget fail when they exceed it, so a slowdown in
the core algorithms is caught alongside a wrong answer.
"""

import json
import math
import shutil
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path

import conftest

from scarflab.analysis import (
    classify,
    derive_obstructions,
    is_scarf,
    leaf_lemma_pipeline,
)
from scarflab.cli import main as cli_main
from scarflab.complexes import glue_leaf_ideal, scarf_complex
from scarflab.graphs import (
    canonical_form,
    contains_induced,
    contains_subgraph,
    cycle_graph,
    enumerate_connected_graphs,
    enumerate_trees,
    path_graph,
    recognize_family,
    spider5_graph,
    spider6_graph,
    star_graph,
    triangle_with_leaves,
)
from scarflab.homology import GF2, reduced_betti
from scarflab.ideals import IdealSpec, build_ideal

from reference import (
    RATIONALS,
    connected_induced_subsets,
    degree_t_ideals,
    fields_disagree,
    ideals_isomorphic,
    is_polygon_boundary,
    is_scarf_bruteforce,
    matches_special_tree_family,
    member_tuples,
    removable_vertices,
    scarf_complex_bruteforce,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

C3 = IdealSpec("connected", 3)
C4 = IdealSpec("connected", 4)
P4 = IdealSpec("path", 4)
P5 = IdealSpec("path", 5)


@contextmanager
def criterion(number: int, title: str, budget_seconds: float | None = None):
    """Record one PASS/FAIL summary line; enforce the runtime budget."""
    notes: list[str] = []
    start = time.perf_counter()
    ok = False
    try:
        yield notes
        elapsed = time.perf_counter() - start
        if budget_seconds is not None and elapsed >= budget_seconds:
            raise AssertionError(
                f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        detail = ", ".join([f"{elapsed:.2f}s", *notes])
        conftest.ACCEPTANCE_RESULTS[number] = (title, ok, detail)


def middle_leaf(graph) -> int:
    (leaf,) = [v for v in range(graph.n) if graph.adjacency[2] >> v & 1 and graph.degrees[v] == 1]
    return leaf


def test_criterion_01_worked_example():
    with criterion(1, "C3(P6) and C3(P7) worked examples", budget_seconds=1.0) as notes:
        ideal6 = build_ideal(path_graph(6), C3)
        assert ideal6.render() == "(x1*x2*x3, x2*x3*x4, x3*x4*x5, x4*x5*x6)"
        assert {ideal6.universe.render(m) for m in ideal6.generator_masks} == {
            "x1*x2*x3", "x2*x3*x4", "x3*x4*x5", "x4*x5*x6",
        }
        delta6 = scarf_complex(ideal6)
        assert delta6.f_vector() == (4, 3)
        assert delta6.faces_of_size(3) == ()
        report6 = is_scarf(ideal6)
        assert report6.all_scarf and not fields_disagree(report6)

        ideal7 = build_ideal(path_graph(7), C3)
        assert ideal7.num_generators == 5
        delta7 = scarf_complex(ideal7)
        assert delta7.f_vector() == (5, 5)
        assert delta7.faces_of_size(3) == ()
        for field in (GF2, RATIONALS):
            profile = reduced_betti(delta7, field)
            assert profile.betti_minus_one == 0
            assert profile.betti == (0, 1)
        report7 = is_scarf(ideal7)
        assert not report7.all_scarf and not fields_disagree(report7)
        assert all(v == "not_scarf" for _, v in report7.verdicts)
        notes.append("f-vectors (4,3,0) and (5,5,0)")


def test_criterion_02_path_and_cycle_sweeps():
    with criterion(2, "path/cycle Scarf ranges and polygon shapes", budget_seconds=30.0) as notes:
        for t, r_range, scarf_while in (
            (3, range(3, 10), lambda r: r <= 6),
            (4, range(3, 11), lambda r: r <= 8),
        ):
            spec = IdealSpec("connected", t)
            for r in r_range:
                report = is_scarf(build_ideal(path_graph(r), spec))
                assert report.all_scarf == scarf_while(r), (t, r)
                assert not fields_disagree(report)

        for r in range(4, 9):
            assert not is_scarf(build_ideal(cycle_graph(r), C3)).all_scarf, r
        for r in range(3, 10):
            report = is_scarf(build_ideal(cycle_graph(r), C4))
            assert report.all_scarf == (r <= 4), r

        for t in (3, 4):
            spec = IdealSpec("connected", t)
            delta = scarf_complex(build_ideal(path_graph(2 * t + 1), spec))
            assert is_polygon_boundary(delta, t + 2), t
        notes.append("polygons at t+2 sides for t in {3, 4}")


def test_criterion_03_theorem_a_cross_validation():
    with criterion(3, "theorem A vs computed verdicts, n <= 7", budget_seconds=300.0) as notes:
        checked = 0
        for t in (3, 4):
            spec = IdealSpec("connected", t)
            for n in range(1, 8):
                for graph in enumerate_connected_graphs(n):
                    predicted = classify(graph, spec)
                    report = is_scarf(build_ideal(graph, spec))
                    assert not fields_disagree(report)
                    assert predicted == report.all_scarf, (t, n, graph.edges)
                    checked += 1
        assert checked == 2 * (1 + 1 + 2 + 6 + 21 + 112 + 853)
        notes.append(f"{checked} graph/t pairs, zero disagreements")


def test_criterion_04_theorem_b_cross_validation():
    with criterion(4, "theorem B vs computed verdicts, n <= 7", budget_seconds=600.0) as notes:
        five = enumerate_connected_graphs(5)
        non_trees = [g for g in five if g.num_edges > 4]
        assert len(five) == 21
        assert len(non_trees) == 18

        scarf_non_trees = []
        for graph in five:
            predicted = classify(graph, P4)
            report = is_scarf(build_ideal(graph, P4))
            assert not fields_disagree(report)
            assert predicted == report.all_scarf, graph.edges
            if graph.num_edges > 4 and report.all_scarf:
                scarf_non_trees.append(graph)
        assert len(scarf_non_trees) == 1
        assert canonical_form(scarf_non_trees[0]) == canonical_form(triangle_with_leaves(2))

        checked = 0
        for n in range(1, 8):
            for graph in enumerate_connected_graphs(n):
                predicted = classify(graph, P4)
                report = is_scarf(build_ideal(graph, P4))
                assert not fields_disagree(report)
                assert predicted == report.all_scarf, (n, graph.edges)
                checked += 1
        assert checked == 1 + 1 + 2 + 6 + 21 + 112 + 853
        notes.append(f"{checked} graphs, unique Scarf non-tree is T_2")


def test_criterion_05_two_generator_lemma():
    with criterion(5, "two-generator bound in t+1 variables", budget_seconds=10.0) as notes:
        for t in (3, 4):
            ideals = degree_t_ideals(t)
            assert len(ideals) == 2 ** (t + 1)
            for ideal in ideals:
                report = is_scarf(ideal)
                assert report.all_scarf == (ideal.num_generators <= 2), ideal.render()
                assert not fields_disagree(report)
        notes.append("all 16 + 32 generator subsets")


def test_criterion_06_base_cases_and_leaf_pipeline():
    with criterion(6, "spider base cases and leaf-gluing pipeline", budget_seconds=120.0) as notes:
        ideal = build_ideal(spider5_graph(1, 1, 1), P4)
        delta = scarf_complex(ideal)
        frozen = json.loads((GOLDEN_DIR / "scarf_p4_s5_111.json").read_text())
        assert delta.to_json_dict() == frozen["complex"]
        assert delta.f_vector() == (6, 7, 2)
        triangles = [set(face) for face in member_tuples(delta.faces_of_size(3))]
        assert len(triangles) == 2
        assert triangles[0].isdisjoint(triangles[1])
        bridges = [
            edge
            for edge in member_tuples(delta.faces_of_size(2))
            if not any(set(edge) <= tri for tri in triangles)
        ]
        assert len(bridges) == 1
        assert sorted(len(set(bridges[0]) & tri) for tri in triangles) == [1, 1]

        for builder in (spider5_graph, spider6_graph):
            graph = builder(1, 1, 1)
            report = leaf_lemma_pipeline(build_ideal(graph, P4), middle_leaf(graph))
            assert report.hypothesis_holds
            assert report.replacement_ok is True
            assert report.stars_ok is True
            assert report.disjointness_persists is True
            assert report.scarf_transfer == "verified"
            assert report.ok

        for builder, widened in (
            (spider5_graph, spider5_graph(1, 4, 1)),
            (spider6_graph, spider6_graph(1, 3, 1)),
        ):
            graph = builder(1, 1, 1)
            ideal = build_ideal(graph, P4)
            target = build_ideal(widened, P4)
            x = middle_leaf(graph)
            while ideal.num_generators < target.num_generators:
                report = leaf_lemma_pipeline(ideal, x)
                assert report.ok, (builder.__name__, ideal.render())
                ideal = glue_leaf_ideal(ideal, x)
                assert is_scarf(ideal).all_scarf
                x = ideal.universe.size - 1
            assert ideals_isomorphic(ideal, target)
        notes.append("pipeline verified through S5(1,4,1) and S6(1,3,1)")


def test_criterion_07_graph_lemma_suite():
    with criterion(7, "connectivity lemmas and special-tree equivalence", budget_seconds=300.0) as notes:
        claw = star_graph(3)
        for n in range(1, 7):
            for graph in enumerate_connected_graphs(n):
                subsets_by_k = {
                    k: [frozenset(s) for s in connected_induced_subsets(graph, k)]
                    for k in range(1, n + 1)
                }
                for m in range(1, n + 1):
                    for subset in subsets_by_k[m]:
                        for k in range(m, n + 1):
                            assert any(subset <= bigger for bigger in subsets_by_k[k])
                for k in range(1, n + 1):
                    assert len(subsets_by_k[k]) >= math.ceil(n / k)

                thin = max(graph.degrees) <= 2
                claw_free = not contains_subgraph(graph, claw)
                tag = recognize_family(graph)
                path_or_cycle = tag is not None and tag.kind in ("path", "cycle")
                assert thin == claw_free == path_or_cycle, graph.edges

                removable = removable_vertices(graph)
                if tag is not None and tag.kind == "path":
                    if n >= 2:
                        assert len(removable) == 2
                else:
                    assert len(removable) >= 3, graph.edges

        catalog = derive_obstructions(P4, 9, "induced", trees_only=True)
        trees_checked = 0
        for n in range(1, 9):
            for tree in enumerate_trees(n):
                special = matches_special_tree_family(tree)
                tag = recognize_family(tree)
                assert special == (tag is not None), tree.edges
                obstructed = any(
                    contains_induced(tree, member) for member in catalog.graphs
                )
                assert special == (not obstructed), tree.edges
                trees_checked += 1
        notes.append(f"{trees_checked} trees vs {len(catalog.graphs)} obstructions")


def test_criterion_08_oracle_equivalence(oracle_corpus):
    with criterion(8, "production vs brute-force oracles", budget_seconds=None) as notes:
        for ideal in oracle_corpus:
            fast = scarf_complex(ideal)
            slow = scarf_complex_bruteforce(ideal)
            assert fast.face_set == slow.face_set, ideal.render()

            lattice = is_scarf(ideal)
            full = is_scarf_bruteforce(ideal)
            assert [(f.render(), v) for f, v in lattice.verdicts] == [
                (f.render(), v) for f, v in full.verdicts
            ], ideal.render()
            lattice_witnesses = {f.render(): (m, p) for f, m, p in lattice.witnesses}
            full_witnesses = {f.render(): (m, p) for f, m, p in full.witnesses}
            assert lattice_witnesses == full_witnesses, ideal.render()
        notes.append(f"{len(oracle_corpus)} ideals, zero mismatches")


def test_criterion_09_obstruction_derivation():
    with criterion(9, "minimal non-Scarf catalogs", budget_seconds=900.0) as notes:
        small = derive_obstructions(P4, 5, "subgraph")
        assert len(small.graphs) == 4
        shapes = sorted(canonical_form(g).decode("ascii") for g in small.graphs)

        larger = derive_obstructions(P5, 7, "subgraph")
        catalog = sorted(canonical_form(g).decode("ascii") for g in larger.graphs)
        assert catalog == [
            "E?]o", "E@UW", "EBj?", "EHQW", "EOSw", "E`HW", "EgCw", "F??}O", "F@Q?w", "F@Ue?",
        ]
        trees = derive_obstructions(P5, 9, "induced", trees_only=True)
        tree_catalog = sorted(canonical_form(g).decode("ascii") for g in trees.graphs)
        assert tree_catalog == ["F??}O", "F@Q?w"]
        for graph in (*larger.graphs, *trees.graphs):
            confirm = is_scarf_bruteforce(build_ideal(graph, P5))
            assert not confirm.all_scarf, canonical_form(graph)
        notes.append(
            f"path:4 shapes {shapes}; path:5 catalog {catalog}; path:5 trees {tree_catalog}"
        )


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical JSON artifacts on repeat runs", budget_seconds=None) as notes:
        runs = {
            "scarf": ["scarf", "--graph", "path:7", "--spec", "connected:3",
                      "--format", "json"],
            "sweep": ["sweep", "--spec", "connected:3", "--n-max", "4", "--format", "json"],
            "derive": [
                "derive", "--spec", "path:4", "--n-max", "5",
                "--mode", "subgraph", "--format", "json",
            ],
        }
        for name, argv in runs.items():
            outputs = []
            for attempt in ("a", "b"):
                out = tmp_path / f"{name}_{attempt}"
                code = cli_main([*argv, "--output", str(out)])
                assert code in (0, 1)
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], name

        jobs_flag = tmp_path / "jobs1"
        no_flag = tmp_path / "no_jobs"
        base = ["sweep", "--spec", "path:4", "--n-max", "5", "--format", "json"]
        assert cli_main([*base, "--jobs", "1", "--output", str(jobs_flag)]) == 0
        assert cli_main([*base, "--output", str(no_flag)]) == 0
        assert jobs_flag.read_bytes() == no_flag.read_bytes()

        script = shutil.which("scarflab")
        if script:
            calls = [
                subprocess.run(
                    [script, "derive", "--spec", "path:4", "--n-max", "5",
                     "--mode", "subgraph", "--format", "json"],
                    capture_output=True, check=True,
                )
                for _ in range(2)
            ]
            assert calls[0].stdout == calls[1].stdout
            notes.append("in-process and console-script runs identical")
        else:
            notes.append("in-process runs identical (console script not on PATH)")
