import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scarflab.graphs import (
    SimpleGraph,
    _bits,
    cycle_graph,
    enumerate_connected_graphs,
    enumerate_trees,
    is_connected,
    path_graph,
    star_graph,
    triangle_with_leaves,
)
from scarflab.ideals import (
    IdealSpec,
    IdealSpecError,
    build_ideal,
)
from scarflab.monomials import MonomialIdeal, VariableUniverse, minimalize

from reference import (
    connected_induced_subsets,
    induced_subgraph,
    path_vertex_sets,
    restrict_ideal,
)


def mask_of(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> SimpleGraph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


class TestSpec:
    def test_parse_render_round_trip(self):
        spec = IdealSpec.parse("connected:3")
        assert spec == IdealSpec("connected", 3)
        assert spec.render() == "connected:3"
        assert IdealSpec.parse("path:4").t == 4

    def test_rejections(self):
        with pytest.raises(IdealSpecError):
            IdealSpec.parse("bogus:3")
        with pytest.raises(IdealSpecError):
            IdealSpec.parse("connected")
        with pytest.raises(IdealSpecError):
            IdealSpec.parse("connected:x")
        with pytest.raises(IdealSpecError):
            IdealSpec("connected", 1)
        with pytest.raises(IdealSpecError):
            IdealSpec("path", 0)


class TestWorkedExamples:
    def test_connected3_of_path6(self):
        ideal = build_ideal(path_graph(6), IdealSpec("connected", 3))
        assert ideal.render() == "(x1*x2*x3, x2*x3*x4, x3*x4*x5, x4*x5*x6)"

    def test_connected4_of_cycle5(self):
        ideal = build_ideal(cycle_graph(5), IdealSpec("connected", 4))
        assert ideal.num_generators == 5
        assert all(g.bit_count() == 4 for g in ideal.generator_masks)

    def test_path4_of_star_is_zero(self):
        ideal = build_ideal(star_graph(4), IdealSpec("path", 4))
        assert ideal.is_zero

    def test_path4_of_triangle_with_two_leaves(self):
        ideal = build_ideal(triangle_with_leaves(2), IdealSpec("path", 4))
        assert ideal.render() == "(x1*x2*x3*x4, x1*x2*x3*x5)"

    def test_path_counts_along_paths(self):
        for t in (2, 3, 4, 5):
            for r in range(t, 9):
                assert build_ideal(path_graph(r), IdealSpec("path", t)).num_generators == r - t + 1

    def test_cycle_counts(self):
        for t in (3, 4):
            for r in range(t + 1, 9):
                assert build_ideal(cycle_graph(r), IdealSpec("connected", t)).num_generators == r

    def test_too_large_t_gives_zero(self):
        assert build_ideal(path_graph(3), IdealSpec("connected", 4)).is_zero

    def test_whole_graph_single_generator(self):
        ideal = build_ideal(cycle_graph(5), IdealSpec("connected", 5))
        assert ideal.num_generators == 1
        assert ideal.generator_masks[0] == (1 << 5) - 1


def oracle_ideal(graph: SimpleGraph, spec: IdealSpec) -> MonomialIdeal:
    """The ideal from the oracle enumerators, minimalized."""
    universe = VariableUniverse.of_size(graph.n)
    if spec.t > graph.n:
        return MonomialIdeal.zero(universe)
    enumerate_sets = connected_induced_subsets if spec.kind == "connected" else path_vertex_sets
    return minimalize([universe.monomial(s) for s in enumerate_sets(graph, spec.t)], universe)


class TestAgainstOracle:
    """`build_ideal` takes its generators straight from mask searches; the
    oracle lists the vertex sets as tuples and minimalizes them."""

    SPECS = [IdealSpec(kind, t) for kind in ("connected", "path") for t in range(2, 8)]

    def assert_matches(self, graphs):
        for graph in graphs:
            for spec in self.SPECS:
                assert build_ideal(graph, spec) == oracle_ideal(graph, spec), (
                    graph.adjacency, spec.render()
                )

    def test_connected_graphs_to_seven_vertices(self):
        self.assert_matches(g for n in range(1, 8) for g in enumerate_connected_graphs(n))

    def test_trees_to_ten_vertices(self):
        self.assert_matches(g for n in range(1, 11) for g in enumerate_trees(n))

    def test_random_graphs(self):
        rng = random.Random(29)
        graphs = [
            random_graph(rng, rng.randint(0, 9), rng.choice((0.2, 0.4, 0.6))) for _ in range(60)
        ]
        assert any(g.n > 1 and not is_connected(g) for g in graphs)
        self.assert_matches(graphs)


class TestEdgeIdeals:
    # at t = 2 both constructions degenerate to the edge ideal

    def test_connected2_lists_edges(self):
        graph = triangle_with_leaves(1)
        ideal = build_ideal(graph, IdealSpec("connected", 2))
        assert {tuple(_bits(g)) for g in ideal.generator_masks} == set(graph.edges)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_path2_equals_connected2(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(1, 7))
        assert build_ideal(graph, IdealSpec("path", 2)) == build_ideal(
            graph, IdealSpec("connected", 2)
        )


class TestStructure:
    def test_connected3_equals_path3_exhaustively(self):
        # every connected graph on three vertices carries a spanning path
        for n in range(1, 7):
            for graph in enumerate_connected_graphs(n):
                assert build_ideal(graph, IdealSpec("connected", 3)) == build_ideal(
                    graph, IdealSpec("path", 3)
                )

    def test_path_ideal_inside_connected_ideal(self):
        rng = random.Random(23)
        specs = [IdealSpec("connected", t) for t in (3, 4, 5)]
        for _ in range(20):
            graph = random_graph(rng, rng.randint(3, 7))
            for c_spec in specs:
                c_ideal = build_ideal(graph, c_spec)
                p_ideal = build_ideal(graph, IdealSpec("path", c_spec.t))
                for g in p_ideal.generator_masks:
                    assert any(k & ~g == 0 for k in c_ideal.generator_masks)

    def test_monotone_under_adding_edges(self):
        rng = random.Random(5)
        for _ in range(20):
            big = random_graph(rng, rng.randint(3, 7), 0.6)
            kept = [e for e in big.edges if rng.random() < 0.7]
            small = SimpleGraph.from_edges(big.n, kept)
            for spec in (IdealSpec("connected", 3), IdealSpec("path", 4)):
                inside = build_ideal(small, spec)
                outside = build_ideal(big, spec)
                for g in inside.generator_masks:
                    assert any(k & ~g == 0 for k in outside.generator_masks)

    def test_restriction_matches_induced_subgraph(self):
        # generators supported inside a vertex set are exactly the generators
        # of the ideal of the induced subgraph, up to relabelling
        rng = random.Random(77)
        for _ in range(15):
            graph = random_graph(rng, rng.randint(3, 7))
            k = rng.randint(1, graph.n)
            chosen = sorted(rng.sample(range(graph.n), k))
            sub, mapping = induced_subgraph(graph, chosen)
            for spec in (IdealSpec("connected", 3), IdealSpec("path", 3)):
                whole = build_ideal(graph, spec)
                restricted = {
                    tuple(_bits(g)) for g in restrict_ideal(whole, mask_of(chosen)).generator_masks
                }
                relabeled = {
                    tuple(mapping[i] for i in _bits(g))
                    for g in build_ideal(sub, spec).generator_masks
                }
                assert restricted == relabeled

    def test_relabeling_permutes_supports(self):
        graph = triangle_with_leaves(2)
        perm = (3, 0, 4, 1, 2)
        moved = SimpleGraph.from_edges(
            graph.n, [(perm[u], perm[v]) for u, v in graph.edges]
        )
        spec = IdealSpec("path", 4)
        expected = {
            tuple(sorted(perm[i] for i in _bits(g)))
            for g in build_ideal(graph, spec).generator_masks
        }
        assert {tuple(_bits(g)) for g in build_ideal(moved, spec).generator_masks} == expected

    def test_universe_names_follow_vertices(self):
        ideal = build_ideal(path_graph(3), IdealSpec("path", 2))
        assert ideal.universe.names == ("x1", "x2", "x3")

    def test_generators_form_antichain(self):
        rng = random.Random(9)
        for _ in range(10):
            graph = random_graph(rng, 6)
            ideal = build_ideal(graph, IdealSpec("connected", 3))
            for a, b in itertools.permutations(ideal.generator_masks, 2):
                assert a & ~b != 0
