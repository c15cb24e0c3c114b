import hashlib
import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from scarflab import graphs
from scarflab.graphs import (
    FamilyTag,
    GraphError,
    MAX_VERTICES,
    SimpleGraph,
    broom3_graph,
    broom4_graph,
    canonical_form,
    connected_induced_subsets,
    contains_induced,
    contains_subgraph,
    cycle_graph,
    enumerate_connected_graphs,
    enumerate_trees,
    family_catalog,
    is_connected,
    make_family,
    parse_adjacency_text,
    parse_graph6,
    path_graph,
    path_vertex_sets,
    recognize_family,
    spider5_graph,
    spider6_graph,
    star_graph,
    to_adjacency_text,
    to_graph6,
    graph_from_json_dict,
    triangle_with_leaves,
)

from reference import (
    are_isomorphic,
    automorphisms,
    canonical_form_bruteforce,
    complete_graph,
    deletion_parents,
    diameter,
    extend_by_vertex_all_masks,
    induced_subgraph,
    order_bits_bytewise,
    pack_graph6_bytewise,
    recognize_family_linear,
    refine_colors_multiset,
    removable_vertices,
)


def to_nx(graph: SimpleGraph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(graph.n))
    out.add_edges_from(graph.edges)
    return out


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> SimpleGraph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


graph_strategy = st.builds(
    lambda n, seed, p: random_graph(random.Random(seed), n, p),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=10**9),
    st.floats(min_value=0.1, max_value=0.9),
)


def relabeled(graph: SimpleGraph, rng: random.Random) -> SimpleGraph:
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return SimpleGraph.from_edges(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])


def min_bits_reference(adjacency, classes) -> int:
    """Reference for `_min_bits_over_classes`: the minimum over every ordering
    that lists the colour classes in turn, each class in any order."""
    return min(
        graphs._order_bits(adjacency, tuple(itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*(itertools.permutations(c) for c in classes))
    )


class TestConstruction:
    def test_edge_validation(self):
        # each endpoint is range-checked before it is shifted into a row
        for endpoint in (-1, 3, 10**15):
            for edge in ((0, endpoint), (endpoint, 0)):
                with pytest.raises(GraphError, match="bad edge"):
                    SimpleGraph.from_edges(3, [(0, 1), edge])
        with pytest.raises(GraphError):
            SimpleGraph.from_edges(3, [(1, 1)])

    @pytest.mark.parametrize("rows, message", [
        ((0b100, 0), "outside"),       # bit 2 on two vertices
        ((-1, 0), "outside"),          # every bit
        ((0b01, 0), "loop"),           # self-loop at 0
        ((0b10, 0), "symmetric"),      # 0 sees 1, 1 does not see 0
        ((0b110, 0b001, 0b000), "symmetric"),
    ])
    def test_constructor_checks_rows(self, rows, message):
        with pytest.raises(GraphError, match=message):
            SimpleGraph(rows)

    def test_edges_and_rows_agree(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(0, 12)
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
            graph = SimpleGraph.from_edges(n, rng.sample(edges, len(edges)))
            assert graph.edges == tuple(edges)
            assert graph.num_edges == len(edges)
            assert SimpleGraph(graph.adjacency) == graph

    def test_families(self):
        assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))
        assert cycle_graph(3).num_edges == 3
        assert star_graph(0).n == 1
        assert star_graph(3).degrees == (3, 1, 1, 1)
        assert complete_graph(4).num_edges == 6
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_triangle_with_leaves_degree_sequence(self):
        graph = triangle_with_leaves(2)
        assert sorted(graph.degrees, reverse=True) == [4, 2, 2, 1, 1]

    def test_spiders_and_brooms(self):
        assert broom3_graph(1, 1).n == 5
        assert broom4_graph(2, 2).n == 8
        assert spider5_graph(1, 1, 1).n == 8
        assert spider6_graph(1, 2, 1).n == 10
        # degenerate parameters collapse onto smaller families
        assert are_isomorphic(broom3_graph(1, 1), path_graph(5))
        assert are_isomorphic(spider6_graph(1, 0, 1), path_graph(8))
        assert are_isomorphic(broom4_graph(2, 0), broom3_graph(2, 1))

    def test_spider6_family_is_mirror_closed(self):
        for m, n, p in itertools.product(range(3), repeat=3):
            if m + n + p > 4:
                continue
            mirrored = spider6_graph(p, n, m)
            tags = {
                tag.params
                for tag, member in family_catalog(mirrored.n)
                if tag.kind == "spider6"
                and canonical_form(member) == canonical_form(mirrored)
            }
            assert tags, (m, n, p)

    def test_vertex_cap_checked_before_any_edge(self):
        assert path_graph(MAX_VERTICES).n == MAX_VERTICES
        with pytest.raises(GraphError, match="vertices"):
            SimpleGraph((0,) * (MAX_VERTICES + 1))
        with pytest.raises(GraphError):
            SimpleGraph.from_edges(10**12, itertools.repeat((0, 1)))
        read = []
        with pytest.raises(GraphError):
            SimpleGraph.from_edges(MAX_VERTICES + 1, (read.append(i) or (0, 1) for i in range(3)))
        assert read == []
        with pytest.raises(GraphError):
            parse_adjacency_text("n=1000000000000; edges: 0-1")
        huge = 10**14
        for kind, arity in (("path", 1), ("cycle", 1), ("star", 1), ("triangle", 1),
                            ("broom3", 2), ("broom4", 2), ("spider5", 3), ("spider6", 3)):
            with pytest.raises(GraphError):
                make_family(FamilyTag(kind, (huge,) * arity))

    def test_make_family_arity(self):
        with pytest.raises(GraphError):
            make_family(FamilyTag("spider5", (1, 2)))
        with pytest.raises(GraphError):
            make_family(FamilyTag("nonsense", (1,)))


class TestSubgraphsAndSubsets:
    def test_induced_path_prefix(self):
        sub, mapping = induced_subgraph(path_graph(6), {0, 1, 2})
        assert are_isomorphic(sub, path_graph(3))
        assert mapping == (0, 1, 2)

    def test_induced_cycle_minus_vertex(self):
        sub, _ = induced_subgraph(cycle_graph(4), {0, 1, 2})
        assert are_isomorphic(sub, path_graph(3))

    def test_induced_triangle_from_k4(self):
        sub, _ = induced_subgraph(complete_graph(4), {1, 2, 3})
        assert are_isomorphic(sub, cycle_graph(3))

    def test_induced_empty_set(self):
        sub, mapping = induced_subgraph(path_graph(3), set())
        assert sub.n == 0 and mapping == ()

    def test_induced_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            induced_subgraph(path_graph(3), {0, 5})

    def test_connectivity(self):
        assert is_connected(path_graph(5))
        assert is_connected(SimpleGraph((0,)))
        assert not is_connected(SimpleGraph.from_edges(4, [(0, 1), (2, 3)]))

    def test_connected_subsets_of_path(self):
        assert connected_induced_subsets(path_graph(6), 3) == (
            (0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5),
        )

    def test_connected_singletons(self):
        graph = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        assert connected_induced_subsets(graph, 1) == ((0,), (1,), (2,), (3,))

    def test_connected_subsets_match_bruteforce_oracle(self):
        rng = random.Random(7)
        cases = [cycle_graph(5), spider5_graph(1, 1, 1)] + [
            random_graph(rng, n) for n in (4, 5, 6) for _ in range(5)
        ]
        for graph in cases:
            g = to_nx(graph)
            for k in range(1, graph.n + 1):
                expected = tuple(
                    combo
                    for combo in itertools.combinations(range(graph.n), k)
                    if nx.is_connected(g.subgraph(combo))
                )
                assert connected_induced_subsets(graph, k) == expected

    def test_cycle5_choose4(self):
        assert len(connected_induced_subsets(cycle_graph(5), 4)) == 5

    def test_path_sets_of_path(self):
        assert path_vertex_sets(path_graph(6), 4) == (
            (0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5),
        )

    def test_path_sets_star_empty(self):
        assert path_vertex_sets(star_graph(4), 4) == ()

    def test_path_sets_match_permutation_oracle(self):
        rng = random.Random(11)
        cases = [triangle_with_leaves(2), spider5_graph(1, 1, 1)] + [
            random_graph(rng, n) for n in (4, 5, 6) for _ in range(5)
        ]
        for graph in cases:
            for t in (2, 3, 4):
                expected = set()
                for perm in itertools.permutations(range(graph.n), t):
                    if all(graph.adjacency[perm[i]] >> perm[i + 1] & 1 for i in range(t - 1)):
                        expected.add(tuple(sorted(perm)))
                assert set(path_vertex_sets(graph, t)) == expected

    def test_triangle_with_leaves_4paths(self):
        sets = path_vertex_sets(triangle_with_leaves(2), 4)
        assert sets == ((0, 1, 2, 3), (0, 1, 2, 4))

    def test_path_sets_reject_tiny_t(self):
        with pytest.raises(GraphError):
            path_vertex_sets(path_graph(3), 1)

    def test_diameter(self):
        assert diameter(path_graph(9)) == 8
        assert diameter(star_graph(4)) == 2
        assert diameter(cycle_graph(6)) == 3
        with pytest.raises(GraphError):
            diameter(SimpleGraph.from_edges(2, []))

    def test_removable_vertices(self):
        assert removable_vertices(path_graph(5)) == (0, 4)
        assert removable_vertices(cycle_graph(6)) == (0, 1, 2, 3, 4, 5)
        assert removable_vertices(SimpleGraph((0,))) == ()
        # triangle leaves: both leaves and both far triangle vertices
        assert removable_vertices(triangle_with_leaves(2)) == (1, 2, 3, 4)


class TestCanonicalForms:
    def test_relabeling_invariance_fixed(self):
        a = path_graph(4)
        b = SimpleGraph.from_edges(4, [(2, 0), (0, 3), (3, 1)])
        assert canonical_form(a) == canonical_form(b)

    def test_distinguishes_nonisomorphic(self):
        assert canonical_form(cycle_graph(4)) != canonical_form(path_graph(4))

    def test_paw_collapses_over_all_relabelings(self):
        paw = SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        forms = set()
        for perm in itertools.permutations(range(4)):
            relabeled = SimpleGraph.from_edges(
                4, [(perm[u], perm[v]) for u, v in paw.edges]
            )
            forms.add(canonical_form(relabeled))
        assert len(forms) == 1

    @given(graph_strategy, st.randoms(use_true_random=False))
    def test_relabeling_invariance_random(self, graph, rng):
        assert canonical_form(relabeled(graph, rng)) == canonical_form(graph)

    def test_cap(self):
        with pytest.raises(GraphError):
            canonical_form(path_graph(11))

    def test_canonical_form_parses_to_isomorphic_graph(self):
        for graph in (spider6_graph(1, 2, 1), complete_graph(5), cycle_graph(7)):
            back = parse_graph6(canonical_form(graph).decode("ascii"))
            matcher = GraphMatcher(to_nx(graph), to_nx(back))
            assert matcher.is_isomorphic()

    def test_equivalence_classes_match_bruteforce(self):
        # the refined form and the all-permutations oracle must induce the
        # same partition into isomorphism classes
        graphs = []
        for n in range(1, 6):
            graphs.extend(enumerate_connected_graphs(n))
        rng = random.Random(3)
        graphs.extend(random_graph(rng, n) for n in (6, 7) for _ in range(10))
        fast = {}
        slow = {}
        for i, graph in enumerate(graphs):
            fast.setdefault(canonical_form(graph), set()).add(i)
            slow.setdefault(canonical_form_bruteforce(graph), set()).add(i)
        assert sorted(fast.values(), key=sorted) == sorted(slow.values(), key=sorted)

    @given(graph_strategy)
    def test_agreement_with_networkx_isomorphism(self, graph):
        other = random_graph(random.Random(graph.num_edges), graph.n)
        ours = canonical_form(graph) == canonical_form(other)
        theirs = GraphMatcher(to_nx(graph), to_nx(other)).is_isomorphic()
        assert ours == theirs

    @given(graph_strategy)
    def test_refined_colouring_is_a_fixed_point(self, graph):
        colors = graphs._refine_colors(graph.adjacency, list(graph.degrees))
        assert graphs._refine_colors(graph.adjacency, colors) == colors

    @given(st.builds(
        lambda n, seed, p: random_graph(random.Random(seed), n, p),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=10**9),
        st.floats(min_value=0.1, max_value=0.9),
    ))
    def test_bit_count_refinement_matches_multiset_reference(self, graph):
        # the colourings `_canonical_bits` refines: the degree colouring and
        # each individualised branch of its refinement
        adjacency = graph.adjacency
        degrees = list(graph.degrees)
        refined = graphs._refine_colors(adjacency, degrees)
        assert refined == refine_colors_multiset(adjacency, degrees)
        for v in range(graph.n):
            branched = [c * 2 + (0 if u == v else 1) for u, c in enumerate(refined)]
            assert graphs._refine_colors(adjacency, branched) == (
                refine_colors_multiset(adjacency, branched)
            )
        # a discrete colouring comes back as the ranks of its colours
        discrete = random.Random(graph.num_edges).sample(range(3 * graph.n), graph.n)
        ranks = [sorted(discrete).index(c) for c in discrete]
        assert graphs._refine_colors(adjacency, discrete) == ranks
        assert refine_colors_multiset(adjacency, discrete) == ranks


class TestPrunedSearch:
    """`_min_bits_over_classes` against `min_bits_reference`, call by call, and
    the canonical forms each of them yields."""

    @staticmethod
    def searches(graph: SimpleGraph, search, monkeypatch) -> tuple[bytes, list]:
        """Canonical form of graph, with `search` in place of
        `_min_bits_over_classes`, and the (adjacency, classes) of every call."""
        calls = []

        def recording(adjacency, classes, twin):
            calls.append((adjacency, classes))
            return search(adjacency, classes, twin)

        with monkeypatch.context() as patch:
            patch.setattr(graphs, "_min_bits_over_classes", recording)
            form = canonical_form(graph)
        return form, calls

    def assert_matches_reference(self, graph: SimpleGraph, monkeypatch) -> int:
        """Check every search canonical_form runs on graph; return their number."""
        production = graphs._min_bits_over_classes
        form, calls = self.searches(graph, production, monkeypatch)

        def checked(adjacency, classes, twin):
            bits = min_bits_reference(adjacency, classes)
            assert production(adjacency, classes, twin) == bits, graph.edges
            return bits

        assert self.searches(graph, checked, monkeypatch)[0] == form, graph.edges
        return len(calls)

    def test_random_graphs(self, monkeypatch):
        rng = random.Random(11)
        for n in range(1, 10):
            for p in (0.2, 0.5, 0.8):
                for _ in range(6):
                    self.assert_matches_reference(random_graph(rng, n, p), monkeypatch)

    def test_relabeled_trees(self, monkeypatch):
        # trees are rich in twins: the leaves on one vertex are pairwise twins
        rng = random.Random(12)
        for n in range(1, 10):
            for tree in enumerate_trees(n):
                self.assert_matches_reference(relabeled(tree, rng), monkeypatch)

    def test_individualized_graphs(self, monkeypatch):
        # broom4(3, 3) is one search over 6! * 2 * 2 orderings; the others
        # individualise each vertex in turn
        assert self.assert_matches_reference(broom4_graph(3, 3), monkeypatch) == 1
        petersen = SimpleGraph.from_edges(10, nx.petersen_graph().edges())
        for graph in (petersen, *map(cycle_graph, (8, 9, 10))):
            assert self.assert_matches_reference(graph, monkeypatch) == graph.n

    def test_individualized_graphs_too_symmetric_to_replay(self, monkeypatch):
        # Too many orderings for one search, but every colour class is a twin
        # class, so the colour order gives the form and no search runs.  The
        # forms are the ones 72 and 720 individualised searches produced.
        for graph, expected in ((star_graph(9), b"I??????~w"), (complete_graph(10), b"I~~~~~~~w")):
            form, calls = self.searches(graph, graphs._min_bits_over_classes, monkeypatch)
            assert form == expected
            assert calls == []


class TestTwinTrivialShortcut:
    """`_canonical_bits` on a twin-trivial colouring (every refined colour
    class inside one twin class) returns the bits of the colour order: the
    reference minimum over the colour-respecting orderings, and a canonical
    form that a relabelling keeps and that partitions graphs as the
    brute-force form does (for n <= 6: at n = 7 and 8 the brute force would
    add about 40 s to this test on a 2-vCPU x86_64 machine)."""

    @staticmethod
    def twin_trivial(adjacency, classes) -> bool:
        return all(
            adjacency[v] & ~(1 << w) == adjacency[w] & ~(1 << v)
            for members in classes
            for v, w in itertools.combinations(members, 2)
        )

    def shortcuts(self, graph: SimpleGraph, monkeypatch) -> tuple[bytes, list]:
        """Canonical form of graph, and the (adjacency, refined classes) of
        every twin-trivial colouring that `_canonical_bits` met, each checked
        to give the colour order's bits."""
        found = []
        production = graphs._canonical_bits

        def recording(adjacency, colors, twin):
            bits = production(adjacency, colors, twin)
            classes = graphs._color_classes(graphs._refine_colors(adjacency, colors))
            if self.twin_trivial(adjacency, classes):
                order = [v for members in classes for v in members]
                assert bits == graphs._order_bits(adjacency, order), graph.edges
                found.append((adjacency, classes))
            return bits

        with monkeypatch.context() as patch:
            patch.setattr(graphs, "_canonical_bits", recording)
            form = canonical_form(graph)
        return form, found

    def test_colour_order_is_the_minimum(self, monkeypatch):
        rng = random.Random(13)
        covered = [relabeled(g, rng) for n in range(1, 8) for g in enumerate_connected_graphs(n)]
        covered += [relabeled(g, rng) for n in range(1, 10) for g in enumerate_trees(n)]
        covered += [member for n in range(1, 11) for _, member in family_catalog(n)]
        covered += [random_graph(rng, rng.randint(1, 10), rng.random()) for _ in range(400)]
        forms: dict[bytes, set[bytes]] = {}
        brute: dict[bytes, set[bytes]] = {}
        colourings = 0
        for graph in covered:
            form, found = self.shortcuts(graph, monkeypatch)
            colourings += len(found)
            for adjacency, classes in found:
                bits = graphs._order_bits(adjacency, [v for c in classes for v in c])
                if math.prod(math.factorial(len(c)) for c in classes) <= 40320:
                    assert bits == min_bits_reference(adjacency, classes), graph.edges
                else:
                    # star(9): 9! orderings; sample them instead
                    for _ in range(200):
                        order = [v for c in classes for v in rng.sample(c, len(c))]
                        assert graphs._order_bits(adjacency, order) == bits
            if not found:
                continue
            assert self.shortcuts(relabeled(graph, rng), monkeypatch)[0] == form
            if graph.n <= 6:
                other = canonical_form_bruteforce(graph)
                forms.setdefault(form, set()).add(other)
                brute.setdefault(other, set()).add(form)
        assert all(len(v) == 1 for v in forms.values())
        assert all(len(v) == 1 for v in brute.values())
        assert colourings > 1000


class TestRecognition:
    def test_matches_linear_scan(self):
        graphs_to_check = [member for n in range(1, 11) for _, member in family_catalog(n)]
        graphs_to_check += [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
        for graph in graphs_to_check:
            assert recognize_family(graph) == recognize_family_linear(graph), graph.edges

    def test_paths_and_cycles_first(self):
        assert recognize_family(path_graph(7)) == FamilyTag("path", (7,))
        assert recognize_family(cycle_graph(5)) == FamilyTag("cycle", (5,))

    def test_star_and_triangle(self):
        assert recognize_family(star_graph(4)) == FamilyTag("star", (4,))
        assert recognize_family(triangle_with_leaves(3)) == FamilyTag("triangle", (3,))

    def test_spider6_recognized_up_to_mirror(self):
        tag = recognize_family(spider6_graph(1, 2, 1))
        assert tag is not None and tag.kind == "spider6"
        assert tag.params in ((1, 2, 1),)

    def test_bull_not_in_any_family(self):
        bull = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
        assert recognize_family(bull) is None

    def test_priority_on_overlap(self):
        # a path of 3 is also a star and a degenerate broom; path wins
        assert recognize_family(path_graph(3)).kind == "path"

    def test_oversized_graph_fails_before_any_catalog(self, monkeypatch):
        def no_index(n):
            raise AssertionError("a family catalog was built")

        monkeypatch.setattr(graphs, "_family_index", no_index)
        with pytest.raises(GraphError, match="canonical form capped at 10 vertices"):
            recognize_family(path_graph(11))

    def test_renders(self):
        assert FamilyTag("spider5", (1, 2, 1)).render() == "spider5(1, 2, 1)"
        assert FamilyTag("path", (4,)).render() == "path(4)"


class TestEnumeration:
    def test_tiny_counts(self):
        assert len(enumerate_connected_graphs(1)) == 1
        assert len(enumerate_connected_graphs(2)) == 1
        assert len(enumerate_connected_graphs(3)) == 2
        assert len(enumerate_connected_graphs(4)) == 6
        assert len(enumerate_connected_graphs(5)) == 21
        assert len(enumerate_connected_graphs(6)) == 112

    def test_cap(self):
        with pytest.raises(GraphError):
            enumerate_connected_graphs(8)

    def test_levels_sorted_by_canonical_form(self):
        """Each level is strictly increasing by canonical form, and each
        representative is labelled by its form, so sweeps and derivations
        keep this order without sorting.  The forms are taken of relabelled
        copies, so they are computed, not read back from the enumeration."""
        rng = random.Random(12)
        for enumerate_, n_max in ((enumerate_connected_graphs, 7), (enumerate_trees, 9)):
            for n in range(1, n_max + 1):
                level = enumerate_(n)
                forms = [canonical_form(relabeled(g, rng)).decode("ascii") for g in level]
                assert [to_graph6(g) for g in level] == forms, n
                assert all(a < b for a, b in zip(forms, forms[1:])), n

    @staticmethod
    def deletion_classes(graph: SimpleGraph, index: dict[bytes, int]) -> tuple[int, ...]:
        return tuple(sorted({
            index[canonical_form(induced_subgraph(graph, set(range(graph.n)) - {u})[0])]
            for u in removable_vertices(graph)
        }))

    @pytest.mark.parametrize("trees_only", [False, True])
    def test_parents_are_the_non_cut_deletions(self, trees_only):
        enumerate_ = enumerate_trees if trees_only else enumerate_connected_graphs
        assert deletion_parents(1, trees_only) == ((),)
        for n in range(2, 10 if trees_only else 8):
            index = {canonical_form(g): i for i, g in enumerate(enumerate_(n - 1))}
            expected = tuple(self.deletion_classes(g, index) for g in enumerate_(n))
            assert deletion_parents(n, trees_only) == expected, n

    @pytest.fixture
    def cold_caches(self):
        """Empty enumeration levels, and the enumerators' view of them, for
        this test."""
        graphs._level.cache_clear()
        graphs._canonical_level.cache_clear()

    @pytest.mark.parametrize("trees_only", [False, True])
    def test_twin_orbits_match_all_masks(self, trees_only):
        enumerate_ = enumerate_trees if trees_only else enumerate_connected_graphs
        for n in range(2, 10 if trees_only else 8):
            masks = [1 << v for v in range(n - 1)] if trees_only else range(1, 1 << (n - 1))
            reps, parents = extend_by_vertex_all_masks(enumerate_(n - 1), masks)
            assert [to_graph6(g) for g in enumerate_(n)] == [to_graph6(g) for g in reps], n
            assert deletion_parents(n, trees_only) == parents, n

    @pytest.mark.parametrize("trees_only", [False, True])
    def test_twin_orbit_masks_are_the_prefix_masks(self, trees_only):
        # the masks each representative is extended by, against its
        # automorphisms found by brute force and its twin classes found by
        # the definition (the same neighbours apart from each other)
        enumerate_ = enumerate_trees if trees_only else enumerate_connected_graphs
        for n in range(1, 9 if trees_only else 7):
            masks = [1 << v for v in range(n)] if trees_only else range(1, 1 << n)
            for graph in enumerate_(n):
                adjacency = graph.adjacency
                twins = sorted({
                    tuple(w for w in range(n)
                          if adjacency[v] & ~(1 << w) == adjacency[w] & ~(1 << v))
                    for v in range(n)
                })
                inside = []  # every permutation that maps each twin class onto itself
                for images in itertools.product(*map(itertools.permutations, twins)):
                    image = [0] * n
                    for members, moved in zip(twins, images):
                        for v, w in zip(members, moved):
                            image[v] = w
                    inside.append(tuple(image))
                autos = automorphisms(adjacency)
                assert set(inside) <= set(autos), graph.edges

                def orbit(mask, group):
                    return frozenset(sum(1 << a[v] for v in graphs._bits(mask)) for a in group)

                def picks_lowest(mask):
                    picked = [tuple(v for v in members if mask >> v & 1) for members in twins]
                    return all(p == members[:len(p)] for p, members in zip(picked, twins))

                kept = graphs._twin_orbit_masks(adjacency, masks)
                assert {orbit(m, autos) for m in kept} == {orbit(m, autos) for m in masks}, graph.edges
                assert len({orbit(m, inside) for m in kept}) == len(kept), graph.edges
                assert kept == [m for m in masks if picks_lowest(m)], graph.edges

    def test_candidate_counts(self, cold_caches, monkeypatch):
        # one candidate per twin orbit of neighbour masks, level by level;
        # the walk computes no canonical form, and the enumerators' view
        # computes one per class and tries no candidate
        candidates, forms = [], []
        orbit_masks, canonical = graphs._twin_orbit_masks, graphs.canonical_form

        def counting_masks(adjacency, masks):
            kept = orbit_masks(adjacency, masks)
            candidates.extend([len(adjacency) + 1] * len(kept))
            return kept

        def counting_forms(graph, *args):
            forms.append(graph.n)
            return canonical(graph, *args)

        monkeypatch.setattr(graphs, "_twin_orbit_masks", counting_masks)
        monkeypatch.setattr(graphs, "canonical_form", counting_forms)
        for trees_only, top, counts in (
            (False, 7, [1, 2, 8, 53, 417, 4818]),
            (True, 9, [1, 1, 2, 6, 11, 27, 59, 143]),
        ):
            candidates.clear()
            forms.clear()
            graphs._level(top, trees_only)
            levels = range(2, top + 1)
            assert [candidates.count(n) for n in levels] == counts
            assert forms == []
            enumerate_ = enumerate_trees if trees_only else enumerate_connected_graphs
            enumerate_(top)
            assert [candidates.count(n) for n in levels] == counts
            assert [forms.count(n) for n in levels] == [len(enumerate_(n)) for n in levels]
            assert forms.count(1) == 0

    def test_one_twin_partition_per_form(self, cold_caches, monkeypatch):
        # the walk: one `_twin_classes` call per representative extended;
        # the enumerators' view: one per computed form (one per class), none
        # for its search or its individualised branches
        calls = []
        production = graphs._twin_classes

        def counting(adjacency):
            calls.append(len(adjacency))
            return production(adjacency)

        monkeypatch.setattr(graphs, "_twin_classes", counting)
        graphs._level(7, False)
        assert len(calls) == 1 + 1 + 2 + 6 + 21 + 112
        calls.clear()
        enumerate_connected_graphs(7)
        assert len(calls) == 1 + 2 + 6 + 21 + 112 + 853
        calls.clear()
        canonical_form(cycle_graph(10))  # ten individualised branches
        assert calls == [10]

    @pytest.mark.parametrize("trees_only, cap", [(False, 7), (True, 10)])
    def test_deletion_parents_capped_before_any_level(self, monkeypatch, trees_only, cap):
        def no_level(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(graphs, "_level", no_level)
        for n in (0, cap + 1):
            with pytest.raises(GraphError, match=f"supports 1..{cap} vertices"):
                deletion_parents(n, trees_only)

    def test_seven_vertex_count(self):
        assert len(enumerate_connected_graphs(7)) == 853

    def test_matches_graph_atlas(self):
        # independent census of connected isomorphism classes, class by class
        atlas: dict[int, set[bytes]] = {n: set() for n in range(1, 8)}
        for g in nx.graph_atlas_g():
            n = g.number_of_nodes()
            if n > 0 and nx.is_connected(g):
                atlas[n].add(canonical_form(SimpleGraph.from_edges(n, g.edges())))
        for n in range(1, 8):
            assert {canonical_form(g) for g in enumerate_connected_graphs(n)} == atlas[n]

    def test_all_reps_connected_and_distinct(self):
        reps = enumerate_connected_graphs(5)
        assert all(is_connected(g) for g in reps)
        forms = {canonical_form(g) for g in reps}
        assert len(forms) == len(reps)

    def test_labeled_count_identity(self):
        # sum over classes of n!/|Aut| equals the number of connected labeled
        # graphs, computed by the standard subtraction recurrence
        def connected_labeled(n: int) -> int:
            total = [0] * (n + 1)
            for k in range(1, n + 1):
                everything = 2 ** (k * (k - 1) // 2)
                overcount = sum(
                    math.comb(k - 1, j - 1)
                    * total[j]
                    * 2 ** ((k - j) * (k - j - 1) // 2)
                    for j in range(1, k)
                )
                total[k] = everything - overcount
            return total[n]

        for n in range(1, 7):
            acc = 0
            for graph in enumerate_connected_graphs(n):
                g = to_nx(graph)
                autos = sum(1 for _ in GraphMatcher(g, g).isomorphisms_iter())
                acc += math.factorial(n) // autos
            assert acc == connected_labeled(n)

    def test_tree_counts_match_networkx(self):
        for n in range(1, 10):
            expected = sum(1 for _ in nx.nonisomorphic_trees(n)) if n >= 2 else 1
            assert len(enumerate_trees(n)) == expected

    def test_trees_past_the_canonical_form_cap(self):
        """An enumerator's own max_vertices is the only cap: the forms it
        computes are capped at the candidate's size (A000055: 235 trees on
        11 vertices)."""
        trees = enumerate_trees(11, max_vertices=11)
        assert len(trees) == 235
        assert all(to_graph6(tree).encode("ascii") == canonical_form(tree, 11) for tree in trees)

    def test_trees_via_pruefer_oracle(self):
        for n in range(3, 8):
            labeled = set()
            for seq in itertools.product(range(n), repeat=n - 2):
                g = nx.from_prufer_sequence(list(seq))
                edges = tuple(sorted(tuple(sorted(e)) for e in g.edges()))
                labeled.add(edges)
            classes = {
                canonical_form(SimpleGraph.from_edges(n, edges)) for edges in labeled
            }
            assert len(enumerate_trees(n)) == len(classes)


class TestClassMatch:
    """`graphs._class_index`'s isomorphism match against the canonical-form
    oracle on graphs with equal sorted vertex labels, the pairs the
    enumeration tests it on."""

    @staticmethod
    def key(graph: SimpleGraph):
        return tuple(sorted(graphs._vertex_labels(graph.adjacency)))

    @staticmethod
    def matches(a: SimpleGraph, b: SimpleGraph) -> bool:
        # b joins a's class exactly when the match finds an isomorphism
        classes: dict = {}
        firsts: list = []
        assert graphs._class_index(classes, firsts, a.adjacency) == 0
        return graphs._class_index(classes, firsts, b.adjacency) == 0

    def test_regular_pairs_told_apart(self):
        # 2-regular on six vertices, one disconnected, and cubic on six,
        # both connected: every vertex has one label, so only the match
        # separates them
        two_triangles = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        k33 = SimpleGraph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)])
        prism = SimpleGraph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
        )
        rng = random.Random(6)
        for a, b in ((cycle_graph(6), two_triangles), (k33, prism)):
            assert self.key(a) == self.key(b)
            assert not self.matches(a, b) and not self.matches(b, a)
            assert self.matches(a, relabeled(a, rng)) and self.matches(b, relabeled(b, rng))

    def test_equal_key_pairs_match_the_oracle(self):
        # every graph on up to 7 vertices (connected or not), the trees on 10,
        # and seeded random 3- and 4-regular and random graphs on 8 to 10
        # vertices, grouped by key; each pair in a group, the second relabelled
        rng = random.Random(18)
        pool = [
            SimpleGraph.from_edges(g.number_of_nodes(), g.edges())
            for g in nx.graph_atlas_g()
            if g.number_of_nodes() > 0
        ]
        pool += enumerate_trees(10)
        for seed in range(40):
            n, d = rng.choice([(8, 3), (10, 3), (8, 4), (9, 4), (10, 4)])
            pool.append(SimpleGraph.from_edges(n, nx.random_regular_graph(d, n, seed).edges()))
            pool.append(random_graph(rng, rng.randint(8, 10), rng.uniform(0.2, 0.8)))
        groups: dict = {}
        for graph in pool:
            groups.setdefault(self.key(graph), []).append(graph)
        outcomes = {True: 0, False: 0}
        connected_apart = 0
        for group in groups.values():
            for a, b in itertools.product(group[:6], repeat=2):
                b = relabeled(b, rng)
                expected = are_isomorphic(a, b)
                assert self.matches(a, b) == expected, (a.edges, b.edges)
                outcomes[expected] += 1
                connected_apart += not expected and is_connected(a) and is_connected(b)
        assert outcomes[True] > 1000 and outcomes[False] > 200 and connected_apart > 50


class TestContainment:
    def test_k4_contains_c4_only_as_subgraph(self):
        assert contains_subgraph(complete_graph(4), cycle_graph(4))
        assert not contains_induced(complete_graph(4), cycle_graph(4))

    def test_reflexive(self):
        assert contains_induced(path_graph(9), path_graph(9))

    def test_spider_contains_broom(self):
        assert contains_induced(spider5_graph(1, 1, 1), broom3_graph(1, 1))

    def test_cap(self):
        with pytest.raises(GraphError):
            contains_subgraph(path_graph(13), path_graph(3))

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40)
    def test_matches_networkx_matchers(self, seed):
        rng = random.Random(seed)
        host = random_graph(rng, rng.randint(2, 7))
        pattern = random_graph(rng, rng.randint(1, host.n))
        gm = GraphMatcher(to_nx(host), to_nx(pattern))
        assert contains_induced(host, pattern) == gm.subgraph_is_isomorphic()
        gm2 = GraphMatcher(to_nx(host), to_nx(pattern))
        assert contains_subgraph(host, pattern) == gm2.subgraph_is_monomorphic()


class TestBitStrings:
    """The integer graph6 bit strings against the byte-per-bit reference;
    n = 0..20 covers every string length modulo 6."""

    @staticmethod
    def samples(rng: random.Random):
        for n in range(13):
            yield SimpleGraph((0,) * n)
            if n:
                yield complete_graph(n)
                yield path_graph(n)
            yield from (random_graph(rng, n, p) for p in (0.2, 0.5, 0.8))
        yield from (random_graph(rng, rng.randint(13, 20)) for _ in range(30))

    def test_to_graph6_and_parse(self):
        for graph in self.samples(random.Random(21)):
            bits = order_bits_bytewise(graph.adjacency, range(graph.n))
            text = pack_graph6_bytewise(graph.n, bits).decode("ascii")
            assert to_graph6(graph) == text, graph.edges
            assert parse_graph6(text) == graph

    def test_order_bits_in_any_order(self):
        rng = random.Random(22)
        for graph in self.samples(rng):
            order = list(range(graph.n))
            rng.shuffle(order)
            bits = order_bits_bytewise(graph.adjacency, order)
            assert graphs._order_bits(graph.adjacency, order) == int(
                "".join(map(str, bits)) or "0", 2
            )

    def test_bruteforce_form(self):
        rng = random.Random(23)
        for graph in self.samples(rng):
            if graph.n <= 6:
                best = min(
                    order_bits_bytewise(graph.adjacency, order)
                    for order in itertools.permutations(range(graph.n))
                )
                assert canonical_form_bruteforce(graph) == pack_graph6_bytewise(graph.n, best)


class TestFormats:
    def test_graph6_round_trip(self):
        for graph in (path_graph(1), path_graph(5), complete_graph(6), cycle_graph(7)):
            assert parse_graph6(to_graph6(graph)).edges == graph.edges

    def test_graph6_matches_networkx(self):
        for graph in (path_graph(5), spider6_graph(1, 2, 1), complete_graph(5)):
            theirs = nx.to_graph6_bytes(to_nx(graph), header=False).decode().strip()
            assert to_graph6(graph) == theirs
            back = nx.from_graph6_bytes(to_graph6(graph).encode("ascii"))
            assert sorted(tuple(sorted(e)) for e in back.edges()) == list(graph.edges)

    @given(graph_strategy)
    def test_graph6_round_trip_random(self, graph):
        assert parse_graph6(to_graph6(graph)).edges == graph.edges

    def test_graph6_header_stripped(self):
        text = ">>graph6<<" + to_graph6(path_graph(4))
        assert parse_graph6(text).edges == path_graph(4).edges

    def test_graph6_error_on_bad_length(self):
        with pytest.raises(GraphError):
            parse_graph6("D")

    def test_adjacency_round_trip(self):
        graph = spider5_graph(1, 1, 1)
        assert parse_adjacency_text(to_adjacency_text(graph)).edges == graph.edges
        lonely = SimpleGraph((0, 0))
        assert parse_adjacency_text(to_adjacency_text(lonely)).n == 2

    def test_adjacency_parse_errors_carry_line_numbers(self):
        with pytest.raises(GraphError, match="line 3"):
            parse_adjacency_text("# comment\n\nn=3; edges: 0-1, nonsense")
        with pytest.raises(GraphError, match="line 1"):
            parse_adjacency_text("")

    def test_json_round_trip(self):
        graph = triangle_with_leaves(2)
        data = {"n": graph.n, "edges": [list(edge) for edge in graph.edges]}
        assert graph_from_json_dict(data).edges == graph.edges


class TestPinnedForms:
    """One sha256 over the enumerated representatives and their parents, and
    over the canonical forms of the family catalog, cycles, the Petersen graph
    and seeded random graphs; a change to any of them changes a report."""

    DIGEST = "f9a528dd3f389c157334ac7c3190ecce784f2e56804a04a4b9939a69d05a0c85"

    @staticmethod
    def lines():
        for trees_only, top in ((False, 7), (True, 9)):
            enumerate_ = enumerate_trees if trees_only else enumerate_connected_graphs
            for n in range(1, top + 1):
                for graph, parents in zip(enumerate_(n), deletion_parents(n, trees_only)):
                    yield f"{trees_only} {to_graph6(graph)} {parents}"
        for n in range(1, 11):
            for tag, member in family_catalog(n):
                yield f"{tag} {canonical_form(member).decode()}"
        outer = ((i, (i + 1) % 5) for i in range(5))
        spokes = ((i, i + 5) for i in range(5))
        inner = ((5 + i, 5 + (i + 2) % 5) for i in range(5))
        petersen = SimpleGraph.from_edges(10, itertools.chain(outer, spokes, inner))
        for graph in (cycle_graph(8), cycle_graph(9), cycle_graph(10), petersen):
            yield canonical_form(graph).decode()
        rng = random.Random(10)
        for _ in range(500):
            yield canonical_form(random_graph(rng, rng.randint(1, 10), rng.random())).decode()

    def test_digest(self):
        text = "\n".join(self.lines()).encode()
        assert hashlib.sha256(text).hexdigest() == self.DIGEST

    def test_tree_digest_to_cap(self):
        """Every tree on 1..10 vertices (`DEFAULT_TREE_CAP`) with its parents."""
        lines = [
            f"{n} {to_graph6(tree)} {parents}"
            for n in range(1, 11)
            for tree, parents in zip(enumerate_trees(n), deletion_parents(n, True))
        ]
        assert len(lines) == 201
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "bb98657721627f58d9378f9d8cd95ef09252cb7e75f1a34ec3bbd72739af9743"

    def test_family_catalog_digest(self):
        """The catalog's order, tags and member labellings for n = 1..12."""
        lines = [
            f"{n} {tag.render()} {to_graph6(member)}"
            for n in range(1, 13)
            for tag, member in family_catalog(n)
        ]
        assert len(lines) == 348
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "5bee1f70353633807506c7174a2281b813f2f9dfb2071cd940f2e75938facc4b"
