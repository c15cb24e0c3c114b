import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from scarflab import analysis, homology
from scarflab.analysis import _variable_twin_classes
from scarflab.complexes import (
    LabeledComplex,
    lcm_lattice,
    scarf_complex,
    scarf_facets,
    scarf_neighbours,
    taylor_complex,
)
from scarflab.graphs import (
    _bits,
    _prefix_masks,
    enumerate_connected_graphs,
    enumerate_trees,
    path_graph,
    spider5_graph,
)
from scarflab.homology import (
    DEFAULT_FIELDS,
    GF2,
    GF32003,
    FieldSpec,
    HomologyError,
    boundary_matrix,
    facets_collapse_to_point,
    matrix_rank,
    reduced_betti,
)
from scarflab.ideals import IdealSpec, build_ideal
from scarflab.monomials import MonomialIdeal, VariableUniverse, minimalize

from reference import (
    maximal_sets,
    random_ideal,
    PROJECTIVE_PLANE_TRIANGLES,
    RATIONALS,
    collapses_greedy,
    complex_from_faces,
    cone,
    face_mask,
    is_flag,
    reduced_betti_all_ranks,
    strong_collapses_bruteforce,
)

ALL_FIELDS = (GF2, GF32003, RATIONALS)


def singleton_ideal(count: int) -> MonomialIdeal:
    universe = VariableUniverse.of_size(count)
    return MonomialIdeal(universe, tuple(1 << i for i in range(count)))


def complex_from_top_faces(count: int, tops) -> LabeledComplex:
    faces = set()
    for top in tops:
        for r in range(len(top) + 1):
            faces.update(itertools.combinations(top, r))
    return complex_from_faces(singleton_ideal(count), faces)


def projective_plane() -> LabeledComplex:
    return complex_from_top_faces(6, PROJECTIVE_PLANE_TRIANGLES)


class TestFieldSpec:
    def test_renders(self):
        assert GF2.render() == "gf2"
        assert GF32003.render() == "gf32003"
        assert RATIONALS.render() == "q"
        assert DEFAULT_FIELDS == (GF2, GF32003)

    def test_parse(self):
        assert FieldSpec.parse("gf2") == GF2
        assert FieldSpec.parse("Q") == RATIONALS
        assert FieldSpec.parse("gf5") == FieldSpec("prime", 5)

    def test_prime_limit(self):
        assert FieldSpec.parse("gf2147483647") == FieldSpec("prime", 2**31 - 1)
        with pytest.raises(HomologyError, match="2\\^31"):
            FieldSpec("prime", 2**31 + 11)
        with pytest.raises(HomologyError, match="2\\^31"):
            FieldSpec.parse("gf1000000000000000003")

    def test_rejections(self):
        with pytest.raises(HomologyError):
            FieldSpec.parse("gf4")
        with pytest.raises(HomologyError):
            FieldSpec.parse("bogus")
        for text in ("gf", "gfx", "gf2.5"):
            with pytest.raises(HomologyError, match=f"cannot parse field '{text}'"):
                FieldSpec.parse(text)
        with pytest.raises(HomologyError):
            FieldSpec("prime", 1)
        with pytest.raises(HomologyError):
            FieldSpec("rationals", 7)


class TestBoundaryMatrix:
    def test_single_edge_column(self):
        universe = VariableUniverse.of_size(3)
        delta = taylor_complex(
            minimalize([universe.parse("x1"), universe.parse("x2")], universe=universe)
        )
        assert boundary_matrix(delta, 1) == [[-1], [1]]

    def test_augmentation_row_of_ones(self):
        delta = taylor_complex(singleton_ideal(4))
        assert boundary_matrix(delta, 0) == [[1, 1, 1, 1]]

    def test_pentagon_rank_four(self):
        delta = scarf_complex(build_ideal(path_graph(7), IdealSpec("connected", 3)))
        matrix = boundary_matrix(delta, 1)
        assert len(matrix) == 5 and len(matrix[0]) == 5
        for field in ALL_FIELDS:
            assert matrix_rank(matrix, field) == 4

    def test_negative_dimension_rejected(self):
        delta = taylor_complex(singleton_ideal(2))
        with pytest.raises(HomologyError):
            boundary_matrix(delta, -1)

    def test_composition_vanishes(self):
        rng = random.Random(3)
        complexes = [taylor_complex(singleton_ideal(4)), projective_plane()]
        for _ in range(5):
            ideal = random_ideal(rng)
            if 0 < ideal.num_generators <= 8:
                complexes.append(taylor_complex(ideal))
        for delta in complexes:
            for i in range(1, delta.dim + 1):
                low = boundary_matrix(delta, i)
                high = boundary_matrix(delta, i + 1)
                if not high or not high[0]:
                    continue
                for r in range(len(low)):
                    for c in range(len(high[0])):
                        acc = sum(low[r][k] * high[k][c] for k in range(len(high)))
                        assert acc == 0


class TestMatrixRank:
    def test_degenerate_shapes(self):
        for field in ALL_FIELDS:
            assert matrix_rank([], field) == 0
            assert matrix_rank([[0, 0], [0, 0]], field) == 0
            assert matrix_rank([[1]], field) == 1

    def test_characteristic_matters(self):
        two = [[2]]
        assert matrix_rank(two, GF2) == 0
        assert matrix_rank(two, GF32003) == 1
        assert matrix_rank(two, RATIONALS) == 1

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10**9),
    )
    @settings(max_examples=80)
    def test_matches_sympy(self, rows, cols, seed):
        rng = random.Random(seed)
        matrix = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        assert matrix_rank(matrix, RATIONALS) == sympy.Matrix(matrix).rank()
        for p in (2, 3, 5, 32003):
            dm = DomainMatrix.from_list(matrix, GF(p))
            assert matrix_rank(matrix, FieldSpec("prime", p)) == len(dm.rref()[1])


class TestReducedBetti:
    def test_full_simplex_is_acyclic(self):
        delta = taylor_complex(singleton_ideal(3))
        for field in ALL_FIELDS:
            profile = reduced_betti(delta, field)
            assert profile.is_acyclic
            assert profile.betti_minus_one == 0

    def test_three_isolated_vertices(self):
        delta = complex_from_top_faces(3, [(0,), (1,), (2,)])
        profile = reduced_betti(delta, GF2)
        assert profile.betti == (2,)

    def test_pentagon_boundary(self):
        delta = scarf_complex(build_ideal(path_graph(7), IdealSpec("connected", 3)))
        for field in ALL_FIELDS:
            assert reduced_betti(delta, field).betti == (0, 1)

    def test_hollow_triangle_vs_filled(self):
        hollow = complex_from_top_faces(3, [(0, 1), (1, 2), (0, 2)])
        filled = complex_from_top_faces(3, [(0, 1, 2)])
        assert reduced_betti(hollow, RATIONALS).betti == (0, 1)
        assert reduced_betti(filled, RATIONALS).betti == (0, 0, 0)

    def test_needs_a_vertex(self):
        ideal = singleton_ideal(2)
        with pytest.raises(HomologyError):
            reduced_betti(LabeledComplex(ideal, (0,)), GF2)
        with pytest.raises(HomologyError):
            reduced_betti(LabeledComplex(ideal, ()), GF2)

    def test_euler_poincare_on_random_complexes(self):
        rng = random.Random(19)
        done = 0
        while done < 25:
            ideal = random_ideal(rng)
            if not 0 < ideal.num_generators <= 7:
                continue
            delta = taylor_complex(ideal)
            if rng.random() < 0.7:
                delta = delta.restrict(rng.getrandbits(ideal.universe.size))
            if not delta.vertices:
                continue
            done += 1
            sizes = [len(delta.faces_of_size(s)) for s in range(1, delta.dim + 2)]
            reduced_euler = sum((-1) ** i * c for i, c in enumerate(sizes)) - 1
            for field in ALL_FIELDS:
                profile = reduced_betti(delta, field)
                alt = sum((-1) ** i * b for i, b in enumerate(profile.betti))
                assert alt - profile.betti_minus_one == reduced_euler

    def test_cones_are_acyclic(self):
        rng = random.Random(29)
        done = 0
        while done < 15:
            ideal = random_ideal(rng)
            q = ideal.num_generators
            if not 1 < q <= 7:
                continue
            delta = scarf_complex(ideal)
            free = [i for i in range(q) if 1 << i not in delta.face_set]
            if not free:
                # borrow headroom by lifting into a wider ideal
                wide = singleton_ideal(q + 1)
                delta = LabeledComplex(wide, delta.faces)
                free = [q]
            done += 1
            grown = cone(free[0], delta)
            for field in ALL_FIELDS:
                assert reduced_betti(grown, field).is_acyclic

    def test_profile_json_shape(self):
        profile = reduced_betti(projective_plane(), GF2)
        data = profile.to_json_dict()
        assert data == {"field": "gf2", "betti_minus_one": 0, "betti": [0, 1, 1]}


def edgeless(count: int, members) -> LabeledComplex:
    return complex_from_top_faces(count, [(v,) for v in members])


class TestAugmentationRank:
    """`reduced_betti` takes the rank of ∂_0 as 1 without building it;
    `reference.reduced_betti_all_ranks` builds and ranks every map."""

    def test_zero_dimensional_complexes_rank_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a 0-dimensional complex needs no matrix")

        monkeypatch.setattr(homology, "boundary_matrix", refuse)
        monkeypatch.setattr(homology, "matrix_rank", refuse)
        for k in range(1, 9):
            for field in ALL_FIELDS:
                profile = reduced_betti(edgeless(8, range(k)), field)
                assert (profile.betti_minus_one, profile.betti) == (0, (k - 1,))

    def test_zero_dimensional_complexes_match_all_ranks(self):
        for count in range(1, 9):
            for members in range(1, 1 << count):
                delta = edgeless(count, _bits(members))
                for field in ALL_FIELDS:
                    assert reduced_betti(delta, field) == reduced_betti_all_ranks(delta, field)

    @given(
        st.integers(min_value=1, max_value=7).flatmap(
            lambda count: st.tuples(
                st.just(count),
                st.lists(
                    st.sets(st.integers(0, count - 1), min_size=1, max_size=4),
                    min_size=1,
                    max_size=6,
                ),
            )
        )
    )
    @settings(max_examples=60)
    def test_random_complexes_match_all_ranks(self, drawn):
        count, tops = drawn
        delta = complex_from_top_faces(count, [tuple(sorted(top)) for top in tops])
        for field in ALL_FIELDS:
            assert reduced_betti(delta, field) == reduced_betti_all_ranks(delta, field)

    def test_named_complexes_match_all_ranks(self):
        pentagon = scarf_complex(build_ideal(path_graph(7), IdealSpec("connected", 3)))
        for delta in (projective_plane(), pentagon, taylor_complex(singleton_ideal(4))):
            for field in ALL_FIELDS:
                assert reduced_betti(delta, field) == reduced_betti_all_ranks(delta, field)

    def test_connected5_sweep_restrictions_match_all_ranks(self):
        # the whole complexes of a connected:5 sweep to n = 6 at x_V: 111 of
        # its 112 are a few points with no edge, which the walk fails on
        # their 1-skeleton without a rank
        pointwise = []
        for graph in enumerate_connected_graphs(6):
            ideal = build_ideal(graph, IdealSpec("connected", 5))
            delta = scarf_complex(ideal)
            if ideal.num_generators >= 2 and delta.dim == 0:
                pointwise.append(delta)
        assert len(pointwise) == 111
        for delta in pointwise:
            for field in ALL_FIELDS:
                profile = reduced_betti(delta, field)
                assert profile == reduced_betti_all_ranks(delta, field)
                assert profile.betti == (len(delta.faces) - 2,)


class TestFieldDependence:
    def test_projective_plane_distinguishes_fields(self):
        delta = projective_plane()
        assert reduced_betti(delta, GF2).betti == (0, 1, 1)
        assert reduced_betti(delta, GF32003).betti == (0, 0, 0)
        assert reduced_betti(delta, RATIONALS).betti == (0, 0, 0)


class TestVerdicts:
    def test_default_battery(self):
        assert DEFAULT_FIELDS == (GF2, GF32003)
        delta = taylor_complex(singleton_ideal(2))
        assert all(reduced_betti(delta, field).is_acyclic for field in DEFAULT_FIELDS)


def dividing(delta: LabeledComplex, mask: int) -> int:
    """The generators of delta's ideal that divide the monomial with this
    mask, read off the generators one by one."""
    return sum(
        1 << g for g, generator in enumerate(delta.ideal.generator_masks) if not generator & ~mask
    )


def collapses_at(delta: LabeledComplex, mask: int = -1, answers=None) -> bool:
    """The scan's collapse answer for the restriction of delta to the
    monomial with this mask (by default delta itself): the facet test on
    the maximal traces of delta's facets on the dividing generators."""
    return facets_collapse_to_point(delta.induced_facets(dividing(delta, mask)), answers)


def assert_collapse_sound(delta: LabeledComplex, point: int | None = None) -> bool:
    """The facet test proves the restriction of delta to the monomial with
    mask point (by default delta itself) acyclic, and it answers on the
    traces of delta's facets as it does on the facets of the restriction
    built as a complex of its own, and as the definition does."""
    mask = -1 if point is None else point
    collapsed = collapses_at(delta, mask)
    restricted = delta if point is None else delta.restrict(point)
    assert set(delta.induced_facets(dividing(delta, mask))) == set(restricted.facets)
    assert facets_collapse_to_point(restricted.facets) == collapsed
    assert strong_collapses_bruteforce(restricted) == collapsed, restricted.faces
    if collapsed:
        for field in ALL_FIELDS:
            assert reduced_betti(restricted, field).is_acyclic, restricted.faces
    return collapsed


class TestCollapse:
    """The per-point path of the Scarf scan: `facets_collapse_to_point` on
    `LabeledComplex.induced_facets`, the maximal traces of the facets."""

    def test_simplex_and_single_vertex_collapse(self):
        assert collapses_at(taylor_complex(singleton_ideal(4)))
        assert collapses_at(complex_from_top_faces(3, [(1,)]))
        assert collapses_at(complex_from_top_faces(4, [(0, 1), (1, 2), (1, 3)]))

    def test_non_acyclic_complexes_stay(self):
        assert not collapses_at(projective_plane())
        assert not collapses_at(complex_from_top_faces(3, [(0, 1), (1, 2), (0, 2)]))
        assert not collapses_at(complex_from_top_faces(3, [(0,), (1,), (2,)]))

    def test_faceless_complexes_stay(self):
        ideal = singleton_ideal(2)
        assert LabeledComplex(ideal, (0,)).facets == (0,)
        assert LabeledComplex(ideal, ()).facets == ()
        for faces in ((0,), ()):
            delta = LabeledComplex(ideal, faces)
            assert not collapses_at(delta)
            assert not strong_collapses_bruteforce(delta)
            for mask in range(4):
                assert not collapses_at(delta, mask)
                assert not collapses_at(delta.restrict(mask))

    def test_points_without_vertices_stay(self):
        delta = taylor_complex(singleton_ideal(3))
        assert delta.induced_facets(0) == [0]
        assert not collapses_at(delta, 0)
        assert not collapses_at(delta.restrict(0))

    def test_simplex_check_needs_no_collapse(self):
        # At a Scarf face's label the traces leave that face as the one
        # facet, which answers before any table lookup or deletion, so a
        # shared table stays empty; the whole complex needs deletions.
        ideal = build_ideal(path_graph(7), IdealSpec("connected", 3))
        delta = scarf_complex(ideal)
        answers = {}
        for face, mask in zip(delta.faces[1:], delta.label_masks[1:]):
            assert delta.induced_facets(dividing(delta, mask)) == [face]
            assert collapses_at(delta, mask, answers)
        assert answers == {}
        assert not collapses_at(delta, -1, answers)
        assert answers

    def test_scarf_face_labels_restrict_to_simplices(self, oracle_corpus):
        checked = 0
        for ideal in oracle_corpus:
            delta = scarf_complex(ideal)
            for face, mask in zip(delta.faces, delta.label_masks):
                if not face:
                    continue
                expected = tuple(
                    face_mask(sub) for size in range(face.bit_count() + 1)
                    for sub in itertools.combinations(_bits(face), size)
                )
                restricted = delta.restrict(mask)
                assert restricted.faces == expected
                assert restricted.facets == (face,)
                assert collapses_at(delta, mask)
                checked += 1
        assert checked > 1000

    def test_sound_on_random_restrictions(self):
        rng = random.Random(41)
        done = 0
        while done < 120:
            ideal = random_ideal(rng)
            if not 0 < ideal.num_generators <= 7:
                continue
            delta = taylor_complex(ideal) if rng.random() < 0.5 else scarf_complex(ideal)
            bound = rng.getrandbits(ideal.universe.size)
            if delta.restrict(bound).vertices:
                done += 1
                assert_collapse_sound(delta, bound)

    def test_sound_on_random_top_faces(self):
        rng = random.Random(47)
        collapsed = stuck = 0
        for _ in range(150):
            count = rng.randint(3, 7)
            tops = [
                tuple(sorted(rng.sample(range(count), rng.randint(1, min(4, count)))))
                for _ in range(rng.randint(1, 6))
            ]
            if assert_collapse_sound(complex_from_top_faces(count, tops)):
                collapsed += 1
            else:
                stuck += 1
        assert collapsed and stuck

    def test_sound_on_cones(self):
        rng = random.Random(43)
        done = collapsed = 0
        while done < 15:
            ideal = random_ideal(rng)
            q = ideal.num_generators
            if not 1 < q <= 7:
                continue
            done += 1
            delta = LabeledComplex(singleton_ideal(q + 1), scarf_complex(ideal).faces)
            collapsed += assert_collapse_sound(cone(q, delta))
        assert collapsed

    def test_sound_on_scarf_restrictions_of_corpus(self, oracle_corpus):
        collapsed = stuck = 0
        for ideal in oracle_corpus:
            delta = scarf_complex(ideal)
            for point in lcm_lattice(ideal):
                if assert_collapse_sound(delta, point):
                    collapsed += 1
                else:
                    stuck += 1
        assert collapsed and stuck

    def test_agrees_with_greedy_collapse_on_corpus(self, oracle_corpus):
        """The strong-collapse test settles exactly the Scarf-complex
        restrictions of the corpus that greedy elementary collapses settle."""
        counts = {True: 0, False: 0}
        for ideal in oracle_corpus:
            delta = scarf_complex(ideal)
            for point in lcm_lattice(ideal):
                collapsed = collapses_at(delta, point)
                assert collapsed == collapses_greedy(delta.restrict(point)), (
                    ideal.render(), point
                )
                counts[collapsed] += 1
        assert counts == {True: 1986, False: 956}

    def test_agrees_with_definition_on_corpora(self, oracle_corpus):
        """At every lattice point of the oracle corpus and of random ideals,
        the facet-trace answer, from a table shared by the points of one
        complex and from a fresh one, is the definitional strong collapse of
        the restriction.  Some random Scarf complexes are not flag, so their
        facets come off the face list only."""
        rng = random.Random(107)
        ideals = oracle_corpus + [random_ideal(rng, (5, 8), (6, 10)) for _ in range(60)]
        counts = {True: 0, False: 0}
        not_flag = 0
        for ideal in ideals:
            delta = scarf_complex(ideal)
            not_flag += not is_flag(delta)
            answers = {}
            for point in lcm_lattice(ideal):
                expected = strong_collapses_bruteforce(delta.restrict(point))
                assert collapses_at(delta, point, answers) == expected, (ideal.render(), point)
                assert collapses_at(delta, point, {}) == expected
                counts[expected] += 1
        assert not_flag >= 5
        assert min(counts.values()) > 1000, counts

    @pytest.mark.parametrize("legs", [(3, 3, 3), (4, 3, 3)])
    def test_spider_lattices_collapse(self, legs):
        ideal = build_ideal(spider5_graph(*legs), IdealSpec("path", 4))
        delta = scarf_complex(ideal)
        answers = {}
        assert all(collapses_at(delta, point, answers) for point in lcm_lattice(ideal))


def facet_masks(tops) -> list[int]:
    """The maximal sets among the given vertex tuples, as masks."""
    return list(maximal_sets(face_mask(top) for top in tops))


class TestFacetCollapse:
    """`facets_collapse_to_point` answers the definitional strong collapse
    of the complex its facets span."""

    def test_known_complexes(self):
        assert facets_collapse_to_point([0b1111])
        assert facets_collapse_to_point([0b0001])
        assert facets_collapse_to_point(facet_masks([(0, 1), (1, 2), (1, 3)]))
        assert facets_collapse_to_point(facet_masks([(0, 1, 2), (1, 2, 3), (3, 4)]))
        assert not facets_collapse_to_point(facet_masks(PROJECTIVE_PLANE_TRIANGLES))
        assert not facets_collapse_to_point(facet_masks([(0, 1), (1, 2), (0, 2)]))
        assert not facets_collapse_to_point(facet_masks([(0,), (1,), (2,)]))
        # a cone over the projective plane collapses to its apex
        assert facets_collapse_to_point(
            facet_masks([top + (6,) for top in PROJECTIVE_PLANE_TRIANGLES])
        )

    def test_no_vertex_is_false(self):
        """The void complex and {∅} are not contractible ({∅} has reduced
        H_{-1} != 0), with a table or without, and nothing is stored."""
        for facets in ([], [0], (), [0, 0]):
            answers = {}
            assert facets_collapse_to_point(facets) is False
            assert facets_collapse_to_point(facets, answers) is False
            assert answers == {}

    def test_matches_face_collapse_on_random_top_faces(self):
        rng = random.Random(97)
        answers = {True: 0, False: 0}
        for _ in range(300):
            count = rng.randint(2, 8)
            tops = [
                tuple(sorted(rng.sample(range(count), rng.randint(1, min(5, count)))))
                for _ in range(rng.randint(1, 7))
            ]
            delta = complex_from_top_faces(count, tops)
            assert set(delta.facets) == set(facet_masks(tops)), tops
            expected = strong_collapses_bruteforce(delta)
            assert facets_collapse_to_point(facet_masks(tops)) == expected, tops
            answers[expected] += 1
        assert answers[True] >= 30 and answers[False] >= 30

    def test_matches_face_collapse_on_graph_ideals(self):
        """Every connected graph on at most 7 vertices and every tree on at
        most 10, under connected:2..5 and path:2..5: each Scarf complex is
        flag, its facets are its maximal faces, and the facet answer is the
        definitional answer on the face list."""
        graphs = [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]
        graphs += [g for n in range(8, 11) for g in enumerate_trees(n)]
        specs = [IdealSpec(kind, t) for kind in ("connected", "path") for t in (2, 3, 4, 5)]
        answers = {True: 0, False: 0}
        for graph in graphs:
            for spec in specs:
                ideal = build_ideal(graph, spec)
                if ideal.num_generators < 2:
                    continue
                delta = scarf_complex(ideal)
                facets = scarf_facets(ideal, scarf_neighbours(ideal))
                assert facets is not None, (spec, graph.edges)
                assert set(facets) == set(delta.facets) == maximal_sets(delta.faces)
                answer = facets_collapse_to_point(facets)
                assert answer == strong_collapses_bruteforce(delta), (spec, graph.edges)
                answers[answer] += 1
        # all 9,246 of these complexes are flag, and most are disconnected;
        # `test_flag_facets_on_random_ideals` meets complexes that are not flag
        assert answers == {True: 428, False: 8818}


def dominates(delta: LabeledComplex, w: int, v: int) -> bool:
    """Every face containing v is still a face after adding w."""
    return all(face | 1 << w in delta.face_set for face in delta.faces if face >> v & 1)


class TestDomination:
    def test_facet_criterion_matches_definition(self):
        """The criterion `facets_collapse_to_point` reads off the facets,
        w in the AND of the facets containing v, is domination."""
        rng = random.Random(67)
        dominated = free = 0
        for _ in range(200):
            count = rng.randint(2, 7)
            tops = [
                tuple(sorted(rng.sample(range(count), rng.randint(1, min(4, count)))))
                for _ in range(rng.randint(1, 6))
            ]
            delta = complex_from_top_faces(count, tops)
            for v in _bits(delta.vertices):
                common = -1
                for facet in delta.facets:
                    if facet >> v & 1:
                        common &= facet
                for w in _bits(delta.vertices):
                    if w == v:
                        continue
                    by_facets = bool(common >> w & 1)
                    assert by_facets == dominates(delta, w, v), (tops, v, w)
                    if by_facets:
                        dominated += 1
                    else:
                        free += 1
        assert dominated > 100 and free > 100


def is_simplex(delta: LabeledComplex, vertices: int) -> bool:
    """Whether the subcomplex of delta induced on these vertices is a full
    simplex with a vertex."""
    return bool(vertices) and vertices in delta.face_set


def assert_table_closed(delta: LabeledComplex, table: dict[int, bool]) -> None:
    """Every entry of a collapse table shared by the induced subcomplexes of
    delta is the answer for the subcomplex induced on its key, read from the
    definitions: the key is a vertex set of delta, not a simplex (those are
    answered before the table is read); False on a core; and otherwise the
    answer of the key less some dominated vertex, stored or a simplex."""
    for key, answer in table.items():
        assert not key & ~delta.vertices and not is_simplex(delta, key), (delta.faces, key)
        sub = LabeledComplex(delta.ideal, [face for face in delta.faces if not face & ~key])
        members = list(_bits(key))
        dominated = [v for v in members if any(dominates(sub, w, v) for w in members if w != v)]
        if not dominated:
            assert answer is False, (delta.faces, key)
        else:
            assert any(
                (True if is_simplex(delta, key & ~(1 << v)) else table.get(key & ~(1 << v)))
                is answer
                for v in dominated
            ), (delta.faces, key)


class CountedTable(dict):
    """A collapse table that counts its lookups."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


class ForgetfulTable(dict):
    """A collapse table that finds nothing and keeps nothing, and counts the
    vertex sets stored in it: one per deletion, and one for a core."""

    def __init__(self):
        super().__init__()
        self.stores = 0

    def __contains__(self, key):
        return False

    def __setitem__(self, key, value):
        self.stores += 1


class TestCollapseTable:
    def assert_table_agrees(self, delta: LabeledComplex, masks) -> set[bool]:
        """Queries one complex at the masks in the order given with one
        shared table, compares each answer with a fresh table, with no
        table and with greedy collapses of the restriction, and returns the
        answers seen."""
        table = {}
        answers = set()
        for mask in masks:
            answer = collapses_at(delta, mask, table)
            answers.add(answer)
            assert collapses_at(delta, mask, {}) is answer, (delta.faces, mask)
            assert collapses_at(delta, mask) is answer, (delta.faces, mask)
            assert collapses_greedy(delta.restrict(mask)) == answer, (delta.faces, mask)
            facets = delta.induced_facets(dividing(delta, mask))
            if len(facets) > 1:
                assert table[dividing(delta, mask) & delta.vertices] is answer
        assert_table_closed(delta, table)
        return answers

    def test_shuffled_lattice_scans_on_corpus(self, oracle_corpus):
        rng = random.Random(71)
        seen = set()
        for ideal in oracle_corpus:
            masks = list(lcm_lattice(ideal))
            rng.shuffle(masks)
            seen |= self.assert_table_agrees(scarf_complex(ideal), masks)
        assert seen == {True, False}

    def test_random_masks_on_random_complexes(self):
        rng = random.Random(73)
        seen = set()
        for _ in range(50):
            count = rng.randint(4, 8)
            tops = [
                tuple(sorted(rng.sample(range(count), rng.randint(1, min(4, count)))))
                for _ in range(rng.randint(2, 7))
            ]
            masks = [rng.getrandbits(count) for _ in range(30)]
            seen |= self.assert_table_agrees(complex_from_top_faces(count, tops), masks)
        assert seen == {True, False}

        # Scarf complexes of ideals whose generators share variables, in
        # universes with unused variables, queried off the lattice
        seen = set()
        for _ in range(50):
            used, unused = rng.randint(3, 6), rng.randint(0, 3)
            universe = VariableUniverse.of_size(used + unused)
            gens = [rng.randint(1, (1 << used) - 1) for _ in range(rng.randint(2, 8))]
            ideal = minimalize(gens, universe=universe)
            lattice = set(lcm_lattice(ideal))
            masks = [mask for mask in (rng.getrandbits(universe.size) for _ in range(30))
                     if mask not in lattice]
            seen |= self.assert_table_agrees(scarf_complex(ideal), masks)
        assert seen == {True, False}

    def test_restrictions_with_non_vertex_generators(self, oracle_corpus):
        """A restriction keeps the generators of its ideal, so a generator
        that divides a monomial may be no vertex of it, and its traces leave
        that generator out.  Queries on such restrictions agree with greedy
        collapses, with a table shared by them."""
        rng = random.Random(79)
        shifted = 0
        seen = set()
        for ideal in oracle_corpus[::7]:
            delta = scarf_complex(ideal)
            lattice = lcm_lattice(ideal)
            for point in rng.sample(lattice, min(4, len(lattice))):
                restricted = delta.restrict(point)
                shifted += restricted.vertices != (1 << ideal.num_generators) - 1
                masks = [rng.getrandbits(ideal.universe.size) for _ in range(8)]
                seen |= self.assert_table_agrees(restricted, [point, *masks])
        assert shifted > 10
        assert seen == {True, False}

    def test_spider_scan_counts(self, monkeypatch):
        """The counts the docstrings give for the path:4 scans of
        S5(3,3,3), S5(4,3,3) and S5(4,4,4): `is_scarf` calls the test at
        each prefix point with one table, which ends with one vertex set
        per deletion; a table that keeps nothing would see 384, 520 and
        1,000 deletions."""
        tables = []

        def recording(facets, answers=None):
            tables.append(answers)
            return facets_collapse_to_point(facets, answers)

        monkeypatch.setattr(analysis, "facets_collapse_to_point", recording)
        for legs, points, entries, unshared in (
            ((3, 3, 3), 126, 75, 384), ((4, 3, 3), 150, 94, 520), ((4, 4, 4), 223, 144, 1000),
        ):
            tables.clear()
            ideal = build_ideal(spider5_graph(*legs), IdealSpec("path", 4))
            assert analysis.is_scarf(ideal).all_scarf
            assert len(tables) == points and all(table is tables[0] for table in tables)
            assert len(tables[0]) == entries, legs
            delta = scarf_complex(ideal)
            forgetful = ForgetfulTable()
            for point in _prefix_masks(_variable_twin_classes(ideal), lcm_lattice(ideal)):
                assert collapses_at(delta, point, forgetful)
            assert forgetful.stores == unshared, legs

    def test_spider_scan_reads_the_table(self):
        """After one scan of the lattice, a second one answers from the table
        alone: each point with two or more facets looks its vertex set up
        once, finds it, and stores nothing."""
        ideal = build_ideal(spider5_graph(3, 3, 3), IdealSpec("path", 4))
        delta = scarf_complex(ideal)
        masks = lcm_lattice(ideal)
        table = {}
        assert all(collapses_at(delta, mask, table) for mask in masks)
        again = CountedTable(table)
        assert all(collapses_at(delta, mask, again) for mask in masks)
        assert again == table
        assert again.lookups == sum(
            len(delta.induced_facets(dividing(delta, mask))) > 1 for mask in masks
        ) > 500
