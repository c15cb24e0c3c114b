import random
from collections import Counter

import pytest

from scarflab import analysis, homology
from scarflab.analysis import (
    AnalysisError,
    THEOREM_B_FAMILY_KINDS,
    VERDICT_NOT_SCARF,
    classify,
    derive_obstructions,
    hereditary_verdicts,
    is_scarf,
    leaf_lemma_pipeline,
    sweep,
)
from scarflab.complexes import LabeledComplex, glue_leaf_ideal, lcm_lattice, scarf_complex
from scarflab.graphs import (
    GraphError,
    SimpleGraph,
    broom3_graph,
    broom4_graph,
    canonical_form,
    cycle_graph,
    enumerate_connected_graphs,
    enumerate_trees,
    parse_graph6,
    path_graph,
    spider5_graph,
    spider6_graph,
    star_graph,
    to_graph6,
    triangle_with_leaves,
)
from scarflab.homology import DEFAULT_FIELDS, GF2, GF32003, FieldSpec
from scarflab.ideals import IdealSpec, build_ideal
from scarflab.monomials import MonomialIdeal, VariableUniverse, minimalize

from reference import (
    RATIONALS,
    complete_graph,
    degree_t_ideals,
    fields_disagree,
    induced_subgraph,
    is_polygon_boundary,
    is_scarf_bruteforce,
    is_scarf_full_scan,
    matches_special_tree_family,
    member_tuples,
    minimal_induced,
    minimal_subgraphs,
    removable_vertices,
    restrict_ideal,
    swap_fixes_generators,
)

P4 = IdealSpec("path", 4)
C3 = IdealSpec("connected", 3)
C4 = IdealSpec("connected", 4)


def middle_leaf(graph) -> int:
    (leaf,) = [v for v in range(graph.n) if graph.adjacency[2] >> v & 1 and graph.degrees[v] == 1]
    return leaf


class TestIsScarf:
    def test_trivial_verdicts(self):
        universe = VariableUniverse.of_size(3)
        zero = MonomialIdeal.zero(universe)
        report = is_scarf(zero)
        assert [v for _, v in report.verdicts] == ["trivially_scarf"] * 2
        assert report.all_scarf and not fields_disagree(report)

    def test_path_ideal_is_scarf_with_stats(self):
        report = is_scarf(build_ideal(path_graph(6), C3))
        assert report.all_scarf
        assert report.num_generators == 4
        assert report.num_scarf_faces == 8
        assert report.num_lattice_points == 10
        assert report.witnesses == ()

    def test_pentagon_witness(self):
        report = is_scarf(build_ideal(path_graph(7), C3), fields=(GF2, GF32003, RATIONALS))
        assert not report.all_scarf
        assert not fields_disagree(report)
        assert [field for field, _, _ in report.witnesses] == [GF2, GF32003, RATIONALS]
        for _, mask, profile in report.witnesses:
            assert mask == (1 << 7) - 1
            assert profile.betti == (0, 1)

    def test_field_list_validation(self):
        ideal = build_ideal(path_graph(6), C3)
        with pytest.raises(AnalysisError):
            is_scarf(ideal, fields=())
        with pytest.raises(AnalysisError):
            is_scarf(ideal, fields=(GF2, GF2))

    def test_agrees_with_bruteforce_on_corpus(self, oracle_corpus):
        """The oracle ranks the restriction at every monomial some generator
        divides, so this checks the lattice scan and the collapse shortcut."""
        fields = (GF2, GF32003, RATIONALS)
        reports = []
        for ideal in oracle_corpus + [build_ideal(spider5_graph(2, 1, 1), P4)]:
            fast = is_scarf(ideal, fields)
            slow = is_scarf_bruteforce(ideal, fields)
            assert fast.verdicts == slow.verdicts, ideal.render()
            assert fast.witnesses == slow.witnesses, ideal.render()
            assert fast == slow, ideal.render()
            reports.append(fast)
        assert any(report.all_scarf for report in reports)
        assert any(not report.all_scarf for report in reports)

    def test_collapse_shortcut_changes_no_report(self, oracle_corpus, monkeypatch):
        fields = (GF2, GF32003, RATIONALS)
        ideals = oracle_corpus + [build_ideal(spider5_graph(2, 1, 1), P4)]
        with_collapse = [is_scarf(ideal, fields) for ideal in ideals]
        monkeypatch.setattr(analysis, "collapses_to_point", lambda delta, mask=-1: False)
        for ideal, report in zip(ideals, with_collapse):
            assert is_scarf(ideal, fields) == report, ideal.render()

    def test_ranks_only_where_collapse_fails(self, monkeypatch):
        """A spider scan visits one point per orbit of the leaf twin
        classes, decides every one of them by the collapse test (at a point
        that labels a Scarf face, by its full-simplex test), and builds and
        ranks no restriction; C3(P7) still gets its witness from ranks.  A
        scan of every point would test all 766 and 1,406."""
        calls = {"restrict": 0, "reduced_betti": 0, "collapses_to_point": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for owner, name in (
            (LabeledComplex, "restrict"),
            (analysis, "reduced_betti"),
            (analysis, "collapses_to_point"),
        ):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        for legs, points, labels, collapses in (
            ((3, 3, 3), 766, 255, 126), ((4, 3, 3), 1406, 383, 150)
        ):
            calls["collapses_to_point"] = 0
            spider = build_ideal(spider5_graph(*legs), P4)
            report = is_scarf(spider, fields=(GF2, GF32003, RATIONALS))
            assert report.all_scarf and report.num_lattice_points == points
            # every face but the empty one labels a lattice point of its own
            assert report.num_scarf_faces - 1 == labels
            assert calls == {
                "restrict": 0, "reduced_betti": 0, "collapses_to_point": collapses
            }

        report = is_scarf(build_ideal(path_graph(7), C3))
        field, mask, profile = report.witnesses[0]
        assert field == GF2 and report.ideal.universe.render(mask) == "x1*x2*x3*x4*x5*x6*x7"
        assert profile.betti == (0, 1)
        assert calls["restrict"] == 1 and calls["reduced_betti"] == 2

    def test_json_shape(self):
        report = is_scarf(build_ideal(path_graph(7), C3))
        data = report.to_json_dict()
        assert data["verdicts"] == {"gf2": "not_scarf", "gf32003": "not_scarf"}
        assert data["witnesses"]["gf2"]["monomial"] == "x1*x2*x3*x4*x5*x6*x7"
        assert data["num_generators"] == 5


def family_ideals():
    """Stars, triangles with leaves, brooms and spiders, whose leaves are
    interchangeable, under five specs."""
    families = [
        star_graph(3), star_graph(5), triangle_with_leaves(2), triangle_with_leaves(3),
        broom3_graph(2, 2), broom3_graph(3, 1), broom4_graph(2, 2), broom4_graph(1, 3),
        spider5_graph(2, 2, 2), spider5_graph(3, 1, 2), spider5_graph(3, 3, 3),
        spider6_graph(2, 1, 2), spider6_graph(2, 2, 2),
    ]
    specs = (P4, C3, C4, IdealSpec("path", 3), IdealSpec("connected", 2))
    return [build_ideal(graph, spec) for graph in families for spec in specs]


def named_ideals():
    """Two edge ideals over names other than x<i>, neither Scarf: the
    4-cycle u-w1-v-w2 with a pendant v-z, where w1 and w2 share a role, and
    K(2,3) with parts u, v and w1, w2, z, where the members of each part
    share one."""
    universe = VariableUniverse(("u", "w1", "v", "w2", "z"))
    edges = ("u*w1", "u*w2", "w1*v", "w2*v", "v*z")
    return [
        minimalize(map(universe.parse, edges), universe),
        minimalize(map(universe.parse, (*edges, "u*z")), universe),
    ]


def planted_twin_ideals(count=60, seed=31):
    """Random ideals in which a new variable copies an existing one's role,
    once or twice: each generator with the copied variable gets a twin
    generator with the copy in its place."""
    rng = random.Random(seed)
    ideals = []
    for _ in range(count):
        size = rng.randint(4, 6)
        universe = VariableUniverse.of_size(size)
        generators = {
            sum(1 << v for v in rng.sample(range(size), rng.randint(2, 3)))
            for _ in range(rng.randint(3, 7))
        }
        x = rng.randrange(size)
        for _ in range(rng.randint(1, 2)):
            copy = universe.size
            universe = VariableUniverse.of_size(copy + 1)
            generators |= {g & ~(1 << x) | 1 << copy for g in generators if g >> x & 1}
        ideals.append(minimalize(generators, universe))
    return ideals


def twin_free_ideals(count=40, seed=32):
    """Random ideals no variable swap maps onto themselves, and the path:4
    ideal of the 7-vertex path, whose reversal is no swap."""
    rng = random.Random(seed)
    ideals = [build_ideal(path_graph(7), P4)]
    while len(ideals) < count:
        size = rng.randint(4, 7)
        universe = VariableUniverse.of_size(size)
        ideal = minimalize(
            (sum(1 << v for v in rng.sample(range(size), rng.randint(2, 4)))
             for _ in range(rng.randint(3, 8))),
            universe,
        )
        if not any(
            swap_fixes_generators(ideal, x, y) for x in range(size) for y in range(x)
        ):
            ideals.append(ideal)
    return ideals


class TestOrbitScan:
    FIELDS = (GF2, GF32003, RATIONALS)

    @pytest.mark.parametrize("make", [family_ideals, named_ideals, planted_twin_ideals,
                                      twin_free_ideals])
    def test_twin_classes_by_definition(self, make):
        """Every swap inside a class fixes the generator set, and no swap
        across two classes does; each class is in increasing order."""
        for ideal in make():
            classes = analysis._variable_twin_classes(ideal)
            size = ideal.universe.size
            assert sorted(v for members in classes for v in members) == list(range(size))
            assert all(members == sorted(members) for members in classes)
            owner = {v: k for k, members in enumerate(classes) for v in members}
            for x in range(size):
                for y in range(x):
                    assert swap_fixes_generators(ideal, x, y) == (owner[x] == owner[y]), (
                        ideal.render(), x, y
                    )

    @pytest.mark.parametrize("make", [family_ideals, named_ideals, planted_twin_ideals,
                                      twin_free_ideals])
    def test_matches_full_scan(self, make):
        """The orbit scan against the same scan at every lattice point, and
        against the brute-force scan of every monomial where it fits."""
        ideals = make()
        reports = []
        for ideal in ideals:
            report = is_scarf(ideal, self.FIELDS)
            assert report == is_scarf_full_scan(ideal, self.FIELDS), ideal.render()
            if ideal.universe.size <= 9 and ideal.num_generators <= 16:
                assert report == is_scarf_bruteforce(ideal, self.FIELDS), ideal.render()
            reports.append(report)
        if make is not named_ideals:
            assert any(report.all_scarf for report in reports)
        assert any(not report.all_scarf for report in reports)
        twins = [any(len(c) > 1 for c in analysis._variable_twin_classes(i)) for i in ideals]
        assert all(twins) if make is not twin_free_ideals else not any(twins)

    def test_named_ideal_witnesses(self):
        """Both named ideals fail over every field at the 4-cycle u-w1-v-w2,
        a prefix mask of their twin classes."""
        for ideal, classes in zip(named_ideals(), ([[0], [1, 3], [2], [4]], [[0, 2], [1, 3, 4]])):
            assert analysis._variable_twin_classes(ideal) == classes
            report = is_scarf(ideal, self.FIELDS)
            assert [ideal.universe.render(mask) for _, mask, _ in report.witnesses] == [
                "u*w1*v*w2"
            ] * 3


class TestClassifiers:
    def test_theorem_a_examples(self):
        assert classify(path_graph(6), C3)
        assert not classify(path_graph(7), C3)
        assert not classify(complete_graph(4), C3)
        assert classify(complete_graph(3), C3)
        assert classify(path_graph(8), C4)
        assert not classify(cycle_graph(4), C3)

    def test_theorem_a_guards(self):
        with pytest.raises(AnalysisError):
            classify(path_graph(4), IdealSpec("connected", 2))
        with pytest.raises(AnalysisError):
            classify(SimpleGraph.from_edges(4, [(0, 1), (2, 3)]), C3)

    def test_theorem_b_examples(self):
        assert not classify(cycle_graph(5), P4)
        assert not classify(path_graph(9), P4)
        assert classify(path_graph(8), P4)
        assert classify(star_graph(7), P4)
        assert classify(triangle_with_leaves(4), P4)
        assert classify(broom3_graph(2, 3), P4)
        assert classify(spider5_graph(2, 1, 2), P4)
        assert classify(spider6_graph(1, 2, 1), P4)
        assert classify(complete_graph(4), P4)
        assert not classify(complete_graph(5), P4)

    def test_p8_really_is_scarf_and_p9_not(self):
        assert is_scarf(build_ideal(path_graph(8), P4)).all_scarf
        assert not is_scarf(build_ideal(path_graph(9), P4)).all_scarf

    def test_special_tree_family_excludes_triangle(self):
        assert THEOREM_B_FAMILY_KINDS[1] == "triangle"
        assert matches_special_tree_family(spider6_graph(1, 1, 2))
        assert matches_special_tree_family(path_graph(4))
        assert not matches_special_tree_family(triangle_with_leaves(2))
        assert not matches_special_tree_family(path_graph(9))


class TestTwoGeneratorLemma:
    def test_counts_and_outcome(self):
        """Over t+1 variables, an ideal generated in degree t is Scarf exactly
        when it has at most two generators."""
        for t in (3, 4):
            ideals = degree_t_ideals(t)
            assert len(ideals) == 2 ** (t + 1)
            for ideal in ideals:
                report = is_scarf(ideal)
                assert report.all_scarf == (ideal.num_generators <= 2), ideal.render()
                assert not fields_disagree(report)


class TestPathsCycles:
    """The connected ideal of a path on r vertices is Scarf exactly for
    r <= 2t, and of a cycle for r <= t.  For t+2 <= r <= 2t the path's Scarf
    complex is a path on its generators, and at r = 2t+1 a polygon."""

    def test_table_t3(self):
        self.check_table(3, 9)

    def test_table_t4(self):
        self.check_table(4, 10)

    @staticmethod
    def check_table(t: int, r_max: int) -> None:
        spec = IdealSpec("connected", t)
        for r in range(3, r_max + 1):
            ideal = build_ideal(path_graph(r), spec)
            assert is_scarf(ideal).all_scarf == (r <= 2 * t), r
            assert is_scarf(build_ideal(cycle_graph(r), spec)).all_scarf == (r <= t), r
            q = ideal.num_generators
            if t + 2 <= r <= 2 * t:
                path = ((), *((i,) for i in range(q)), *((i, i + 1) for i in range(q - 1)))
                assert member_tuples(scarf_complex(ideal).faces) == path, r
            elif r == 2 * t + 1:
                assert is_polygon_boundary(scarf_complex(ideal), q), r


class TestRestrictionLemma:
    def test_scarf_base_has_no_violations(self):
        """A Scarf ideal stays Scarf when restricted to any monomial; every
        restriction is one to an lcm-lattice point."""
        for graph, spec in (
            (path_graph(6), C3), (path_graph(8), P4), (spider5_graph(1, 1, 1), P4),
        ):
            ideal = build_ideal(graph, spec)
            assert is_scarf(ideal).all_scarf
            for point in lcm_lattice(ideal):
                assert is_scarf(restrict_ideal(ideal, point)).all_scarf, (
                    ideal.universe.render(point)
                )


class TestLeafPipeline:
    def test_spider5_leaf_glue_verifies(self):
        graph = spider5_graph(1, 1, 1)
        report = leaf_lemma_pipeline(build_ideal(graph, P4), middle_leaf(graph))
        assert report.hypothesis_holds
        assert report.overlapping_pairs == ()
        assert report.replacement_ok and report.stars_ok and report.disjointness_persists
        assert report.scarf_transfer == "verified"
        assert report.ok

    def test_spider6_leaf_glue_verifies(self):
        graph = spider6_graph(1, 1, 1)
        report = leaf_lemma_pipeline(build_ideal(graph, P4), middle_leaf(graph))
        assert report.ok and report.scarf_transfer == "verified"

    def test_spine_glue_breaks_hypothesis_and_scarfness(self):
        base = build_ideal(spider5_graph(1, 1, 1), P4)
        report = leaf_lemma_pipeline(base, 2)
        assert not report.hypothesis_holds
        assert report.overlapping_pairs
        assert report.replacement_ok is None
        assert report.stars_ok is None
        assert report.disjointness_persists is None
        assert report.base_scarf and not report.glued_scarf
        assert report.scarf_transfer == "violated"
        assert not report.ok

    def test_vacuous_transfer(self):
        base = build_ideal(path_graph(9), P4)
        report = leaf_lemma_pipeline(base, 0)
        assert not report.base_scarf
        assert report.scarf_transfer == "vacuous"

    def test_iterated_gluing_reaches_wider_spiders(self):
        for builder, widened in (
            (spider5_graph, spider5_graph(1, 4, 1)),
            (spider6_graph, spider6_graph(1, 3, 1)),
        ):
            graph = builder(1, 1, 1)
            ideal = build_ideal(graph, P4)
            x = middle_leaf(graph)
            while ideal.num_generators < build_ideal(widened, P4).num_generators:
                report = leaf_lemma_pipeline(ideal, x)
                assert report.ok, (builder.__name__, ideal.render())
                ideal = glue_leaf_ideal(ideal, x)
                x = ideal.universe.size - 1
            assert is_scarf(ideal).all_scarf

    def test_json_names_variables(self):
        graph = spider5_graph(1, 1, 1)
        report = leaf_lemma_pipeline(build_ideal(graph, P4), middle_leaf(graph))
        data = report.to_json_dict()
        assert data["x"] == "x7"
        assert data["x_prime"] == "x7'"


class TestSweep:
    def test_connected3_small(self):
        result = sweep(C3, 4)
        assert len(result.records) == 1 + 1 + 2 + 6
        assert result.disagreements == ()
        assert result.field_conflicts == ()

    def test_path4_small(self):
        result = sweep(P4, 5)
        assert not result.disagreements and not result.field_conflicts
        by_form = {r.graph6: r for r in result.records}
        bull = canonical_form(
            SimpleGraph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4)])
        ).decode("ascii")
        assert by_form[bull].computed is False
        assert by_form[bull].predicted is False

    def test_records_carry_family_tags(self):
        result = sweep(C3, 4)
        families = {r.graph6: r.family for r in result.records}
        assert families[canonical_form(path_graph(4)).decode("ascii")] == "path(4)"

    def test_unsupported_spec_rejected(self):
        with pytest.raises(AnalysisError):
            sweep(IdealSpec("path", 3), 4)
        with pytest.raises(AnalysisError):
            sweep(IdealSpec("connected", 2), 4)

    @pytest.mark.parametrize("spec", [C3, C4, IdealSpec("connected", 5), P4], ids=str)
    def test_records_predicted_by_classify(self, spec):
        """`classify` and `sweep` read one predictor."""
        for record in sweep(spec, 6).records:
            assert record.predicted == classify(parse_graph6(record.graph6), spec), record.graph6

    @pytest.mark.parametrize("spec, profiles, ranks", [
        (C3, 14, 4), (C4, 42, 2), (IdealSpec("connected", 5), 222, 0), (P4, 38, 4),
    ], ids=str)
    def test_rank_calls_pinned(self, spec, profiles, ranks, monkeypatch):
        """The Betti profiles a sweep to n = 6 computes over its two default
        fields, and the matrices it ranks for them.  ∂_0 is never ranked, so
        the 111 restrictions connected:5 ranks, none with an edge, need no
        matrix."""
        calls = {"reduced_betti": 0, "matrix_rank": 0}
        for name in calls:
            production = getattr(homology, name)

            def counting(*args, _name=name, _production=production):
                calls[_name] += 1
                return _production(*args)

            monkeypatch.setattr(homology, name, counting)
        monkeypatch.setattr(analysis, "reduced_betti", homology.reduced_betti)
        sweep(spec, 6)
        assert calls == {"reduced_betti": profiles, "matrix_rank": ranks}

    @pytest.mark.parametrize("n_max, trees_only, cap", [
        pytest.param(0, None, 7, id="0"),
        pytest.param(-5, None, 7, id="-5"),
        pytest.param(8, None, 7, id="8"),
        pytest.param(8, False, 7, id="derive-8"),
        pytest.param(11, True, 10, id="derive-trees-11"),
    ])
    def test_n_max_checked_up_front(self, n_max, trees_only, cap, monkeypatch):
        """`sweep` (trees_only None) and `derive_obstructions` reject n_max
        outside 1..cap, the enumerator's own cap, naming the range, before
        any work starts."""
        for name in ("_level", "build_ideal"):
            monkeypatch.setattr(analysis, name, None)  # no work may start
        with pytest.raises(GraphError, match=rf"enumeration supports 1\.\.{cap} vertices$"):
            if trees_only is None:
                sweep(C3, n_max)
            else:
                derive_obstructions(P4, n_max, "induced", trees_only=trees_only)


class TestObstructions:
    def test_path4_subgraph_catalog_n5(self):
        catalog = derive_obstructions(P4, 5, "subgraph")
        forms = [canonical_form(g).decode("ascii") for g in catalog.graphs]
        assert forms == ["DBk", "DIk", "DLo", "D`["]
        cycle5 = canonical_form(cycle_graph(5)).decode("ascii")
        assert cycle5 in forms

    def test_members_confirmed_non_scarf_by_bruteforce(self):
        catalog = derive_obstructions(P4, 5, "subgraph")
        for graph in catalog.graphs:
            report = is_scarf_bruteforce(build_ideal(graph, P4))
            assert not report.all_scarf

    def test_path4_tree_catalog(self):
        catalog = derive_obstructions(P4, 9, "induced", trees_only=True)
        forms = [canonical_form(g).decode("ascii") for g in catalog.graphs]
        assert forms == ["E?NG", "F@Q?w", "H?Q??ki", "HCOOGCh", "HKC_GOB"]
        assert [g.n for g in catalog.graphs] == [6, 7, 9, 9, 9]
        path9 = canonical_form(path_graph(9)).decode("ascii")
        assert path9 in forms

    def test_tree_catalog_shapes(self):
        catalog = derive_obstructions(P4, 9, "induced", trees_only=True)
        by_n = {}
        for graph in catalog.graphs:
            by_n.setdefault(graph.n, []).append(graph)
        # six vertices: the double star, a P4 spine with a leaf on each inner vertex
        (x1,) = by_n[6]
        assert sorted(x1.degrees, reverse=True) == [3, 3, 1, 1, 1, 1]
        # seven vertices: the spider with three legs of length two
        (x2,) = by_n[7]
        assert sorted(x2.degrees, reverse=True) == [3, 2, 2, 2, 1, 1, 1]

    def test_mode_guard(self):
        with pytest.raises(AnalysisError):
            derive_obstructions(P4, 5, "minor")
        with pytest.raises(GraphError):
            derive_obstructions(P4, 8, "subgraph")

    def test_json_dict(self):
        catalog = derive_obstructions(P4, 5, "subgraph")
        data = catalog.to_json_dict()
        assert data["spec"] == "path:4"
        assert data["mode"] == "subgraph"
        assert len(data["graphs"]) == 4


class TestHereditaryVerdicts:
    """The verdict table against a full `is_scarf` scan of every graph, and the
    induced catalogs against a pairwise containment search."""

    SPECS = (C3, C4, IdealSpec("connected", 5), P4, IdealSpec("path", 5))
    GF2_GF3_Q = tuple(FieldSpec.parse(text) for text in ("gf2", "gf3", "q"))

    @staticmethod
    def universe(n: int, trees_only: bool):
        return enumerate_trees(n) if trees_only else enumerate_connected_graphs(n)

    @pytest.mark.parametrize(
        "fields, n_max, trees_only",
        [(DEFAULT_FIELDS, 7, False), (GF2_GF3_Q, 6, False), (DEFAULT_FIELDS, 9, True)],
    )
    def test_agrees_with_full_scan(self, fields, n_max, trees_only):
        """The walk goes level by level, and each level holds the
        enumerator's classes, in its own order and labelling."""
        expected = Counter(
            canonical_form(graph)
            for n in range(1, n_max + 1)
            for graph in self.universe(n, trees_only)
        )
        for spec in self.SPECS:
            walk = list(hereditary_verdicts(spec, n_max, fields, trees_only))
            sizes = [graph.n for graph, _, _ in walk]
            assert sizes == sorted(sizes)
            assert Counter(canonical_form(graph) for graph, _, _ in walk) == expected
            for graph, verdicts, _ in walk:
                report = is_scarf(build_ideal(graph, spec), fields)
                assert verdicts == tuple(v for _, v in report.verdicts), (spec, graph.edges)

    @pytest.mark.parametrize("trees_only, n_max", [(False, 6), (True, 8)])
    @pytest.mark.parametrize("spec", [P4, C3], ids=str)
    def test_parent_verdicts_are_those_of_the_deletions(self, spec, trees_only, n_max):
        """The parents yielded with G are the classes of G - u over the
        vertices u whose deletion leaves G connected."""
        walk = list(hereditary_verdicts(spec, n_max, DEFAULT_FIELDS, trees_only))
        by_form = {canonical_form(graph): verdicts for graph, verdicts, _ in walk}
        for graph, _, parent_verdicts in walk:
            deletions = {
                by_form[canonical_form(induced_subgraph(graph, set(range(graph.n)) - {u})[0])]
                for u in removable_vertices(graph)
            }
            assert set(parent_verdicts) == deletions, graph.edges

    def test_field_list_validation(self):
        with pytest.raises(AnalysisError):
            list(hereditary_verdicts(P4, 3, ()))
        with pytest.raises(AnalysisError):
            list(hereditary_verdicts(P4, 3, (GF2, GF2)))

    @pytest.mark.parametrize("trees_only, n_max", [(True, 9), (False, 6)])
    def test_induced_catalogs_match_pairwise_search(self, trees_only, n_max):
        for spec in self.SPECS:
            catalog = derive_obstructions(spec, n_max, "induced", trees_only)
            bad = [
                graph
                for n in range(1, n_max + 1)
                for graph in self.universe(n, trees_only)
                if not is_scarf(build_ideal(graph, spec)).all_scarf
            ]
            assert catalog.num_non_scarf == len(bad)
            assert catalog.graphs == tuple(minimal_induced(bad)), spec

    @pytest.mark.parametrize("trees_only, n_max", [(False, 7), (True, 10)])
    def test_subgraph_catalogs_match_pairwise_search(self, trees_only, n_max):
        """The induced catalog filtered pairwise gives what a pairwise
        search over every non-Scarf graph of the walk gives."""
        specs = [IdealSpec("connected", t) for t in (3, 4, 5)] + [P4, IdealSpec("path", 5)]
        for spec in specs:
            catalog = derive_obstructions(spec, n_max, "subgraph", trees_only)
            walk = hereditary_verdicts(spec, n_max, DEFAULT_FIELDS, trees_only)
            bad = [graph for graph, verdicts, _ in walk if VERDICT_NOT_SCARF in verdicts]
            assert catalog.num_non_scarf == len(bad), spec
            expected = sorted((g.n, canonical_form(g).decode()) for g in minimal_subgraphs(bad))
            assert [(g.n, to_graph6(g)) for g in catalog.graphs] == expected, spec

    def test_tree_catalogs_agree_across_orders(self):
        """On trees a connected subgraph is an induced one, so the pairwise
        'subgraph' search and the parent rule of 'induced' agree."""
        specs = [IdealSpec("path", t) for t in range(2, 7)]
        specs += [IdealSpec("connected", t) for t in range(2, 6)]
        for spec in specs:
            induced = derive_obstructions(spec, 10, "induced", trees_only=True)
            subgraph = derive_obstructions(spec, 10, "subgraph", trees_only=True)
            assert induced.graphs and subgraph.graphs == induced.graphs, spec
            assert subgraph.num_non_scarf == induced.num_non_scarf, spec

    def test_seven_vertex_induced_catalog_matches_pairwise_search(self):
        # the other specs take 2 to 23 s for the pairwise search at n <= 7;
        # path:5 at n <= 7 is pinned by digest in tests/test_cli.py
        catalog = derive_obstructions(C3, 7, "induced")
        bad = [
            graph
            for n in range(1, 8)
            for graph in enumerate_connected_graphs(n)
            if not is_scarf(build_ideal(graph, C3)).all_scarf
        ]
        assert catalog.graphs == tuple(minimal_induced(bad))
        assert len(catalog.graphs) == 9
