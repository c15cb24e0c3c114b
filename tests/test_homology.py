import itertools
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from scarflab.complexes import LabeledComplex, lcm_lattice, scarf_complex, taylor_complex
from scarflab.graphs import _bits, path_graph, spider5_graph
from scarflab.homology import (
    DEFAULT_FIELDS,
    GF2,
    GF32003,
    FieldSpec,
    HomologyError,
    boundary_matrix,
    collapses_to_point,
    matrix_rank,
    reduced_betti,
)
from scarflab.ideals import IdealSpec, build_ideal
from scarflab.monomials import MonomialIdeal, VariableUniverse, minimalize

from reference import (
    RATIONALS,
    collapses_greedy,
    complex_from_faces,
    cone,
    face_mask,
    member_tuples,
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


# the 6-vertex triangulation of the projective plane, read off the antipodal
# quotient of the icosahedron; every one of the 15 edges lies in two triangles
PROJECTIVE_PLANE_TRIANGLES = (
    (0, 1, 3), (0, 1, 4), (0, 2, 4), (0, 2, 5), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (3, 4, 5),
)


def projective_plane() -> LabeledComplex:
    return complex_from_top_faces(6, PROJECTIVE_PLANE_TRIANGLES)


def random_ideal(rng: random.Random) -> MonomialIdeal:
    d = rng.randint(3, 6)
    universe = VariableUniverse.of_size(d)
    gens = []
    for _ in range(rng.randint(2, 6)):
        mask = 0
        for v in range(d):
            if rng.random() < 0.5:
                mask |= 1 << v
        if mask:
            gens.append(mask)
    return minimalize(gens, universe=universe)


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


def assert_collapse_sound(delta: LabeledComplex, point: int | None = None) -> bool:
    """collapses_to_point proves the restriction of delta to the monomial
    with mask point (by default delta itself) acyclic, and it answers on
    delta's face columns as it does on the restriction built as a complex of
    its own."""
    collapsed = collapses_to_point(delta, -1 if point is None else point)
    restricted = delta if point is None else delta.restrict(point)
    assert collapses_to_point(restricted) == collapsed
    if collapsed:
        for field in ALL_FIELDS:
            assert reduced_betti(restricted, field).is_acyclic, restricted.faces
    return collapsed


class NoIndexFaces(tuple):
    def __getitem__(self, index):
        raise AssertionError("the domination loop ran")


class TestCollapse:
    def test_simplex_and_single_vertex_collapse(self):
        assert collapses_to_point(taylor_complex(singleton_ideal(4)))
        assert collapses_to_point(complex_from_top_faces(3, [(1,)]))
        assert collapses_to_point(complex_from_top_faces(4, [(0, 1), (1, 2), (1, 3)]))

    def test_non_acyclic_complexes_stay(self):
        assert not collapses_to_point(projective_plane())
        assert not collapses_to_point(complex_from_top_faces(3, [(0, 1), (1, 2), (0, 2)]))
        assert not collapses_to_point(complex_from_top_faces(3, [(0,), (1,), (2,)]))

    def test_faceless_complexes_stay(self):
        ideal = singleton_ideal(2)
        assert not collapses_to_point(LabeledComplex(ideal, (0,)))
        assert not collapses_to_point(LabeledComplex(ideal, ()))
        for faces in ((0,), ()):
            delta = LabeledComplex(ideal, faces)
            for mask in range(4):
                assert not collapses_to_point(delta, mask)
                assert not collapses_to_point(delta.restrict(mask))

    def test_points_without_vertices_stay(self):
        delta = taylor_complex(singleton_ideal(3))
        assert not collapses_to_point(delta, 0)
        assert not collapses_to_point(delta.restrict(0))

    def test_simplex_check_needs_no_collapse(self):
        # With faces that refuse indexing, the domination loop cannot pick a
        # candidate dominator, so only the simplex check can answer.
        ideal = build_ideal(path_graph(7), IdealSpec("connected", 3))
        delta = scarf_complex(ideal)
        object.__setattr__(delta, "faces", NoIndexFaces(delta.faces))
        for mask in delta.label_masks[1:]:
            assert collapses_to_point(delta, mask)
        with pytest.raises(AssertionError, match="domination loop"):
            collapses_to_point(delta)

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
                assert collapses_to_point(restricted)
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
                collapsed = collapses_to_point(delta, point)
                assert collapsed == collapses_greedy(delta.restrict(point)), (
                    ideal.render(), point
                )
                counts[collapsed] += 1
        assert counts == {True: 1986, False: 956}

    @pytest.mark.parametrize("legs", [(3, 3, 3), (4, 3, 3)])
    def test_spider_lattices_collapse(self, legs):
        ideal = build_ideal(spider5_graph(*legs), IdealSpec("path", 4))
        delta = scarf_complex(ideal)
        assert all(collapses_to_point(delta, point) for point in lcm_lattice(ideal))


def dominates(delta: LabeledComplex, w: int, v: int) -> bool:
    """Every face containing v is still a face after adding w."""
    return all(face | 1 << w in delta.face_set for face in delta.faces if face >> v & 1)


class TestDomination:
    def test_count_criterion_matches_definition(self):
        """The count test `collapses_to_point` reads off the face columns is
        domination, and every dominator of v lies in the last face of its
        star, the only candidates the test tries."""
        rng = random.Random(67)
        dominated = free = 0
        for _ in range(200):
            count = rng.randint(2, 7)
            tops = [
                tuple(sorted(rng.sample(range(count), rng.randint(1, min(4, count)))))
                for _ in range(rng.randint(1, 6))
            ]
            delta = complex_from_top_faces(count, tops)
            columns = delta.face_columns
            for (v,) in member_tuples(delta.faces_of_size(1)):
                star = columns[v]
                top = delta.faces[star.bit_length() - 1]
                for (w,) in member_tuples(delta.faces_of_size(1)):
                    if w == v:
                        continue
                    by_count = 2 * (star & columns[w]).bit_count() == star.bit_count()
                    assert by_count == dominates(delta, w, v), (tops, v, w)
                    if by_count:
                        assert top >> w & 1
                        dominated += 1
                    else:
                        free += 1
        assert dominated > 100 and free > 100


def vertex_set(delta: LabeledComplex, mask: int) -> int:
    """The vertices of delta whose generators divide the monomial, as the
    key of the restriction in `delta.collapse_answers`: bit i for the
    singleton face `delta.faces[i]`."""
    columns = delta.face_columns
    return sum(
        1 << delta.faces.index(1 << g) for g, generator in enumerate(delta.ideal.generator_masks)
        if not generator & ~mask and columns[g]
    )


def key_generators(delta: LabeledComplex, key: int) -> int:
    """The generator bit set of a `delta.collapse_answers` key, whose bits
    index singleton faces."""
    assert all(delta.faces[i].bit_count() == 1 for i in _bits(key)), (delta.faces, key)
    return sum(delta.faces[i] for i in _bits(key))


def assert_table_closed(delta: LabeledComplex) -> None:
    """Every entry of delta's collapse table is the answer for the induced
    subcomplex on its vertex set, read from the definitions: True on a
    simplex, False on a core with two or more vertices, and otherwise the
    answer stored for the set less some dominated vertex."""
    table = delta.collapse_answers
    for key, answer in table.items():
        generators = key_generators(delta, key)
        members = {g for g in range(delta.ideal.num_generators) if generators >> g & 1}
        sub = LabeledComplex(delta.ideal, [face for face in delta.faces if not face & ~generators])
        vertices = [v for (v,) in member_tuples(sub.faces_of_size(1))]
        if len(sub.faces) == 1 << len(members):
            assert answer and sorted(members) == vertices, (delta.faces, key)
            continue
        dominated = [
            v for v in vertices if any(dominates(sub, w, v) for w in vertices if w != v)
        ]
        if not dominated:
            assert answer is False, (delta.faces, key)
        else:
            assert any(
                table.get(key & ~(1 << delta.faces.index(1 << v))) is answer for v in dominated
            ), (delta.faces, key)


class TestCollapseTable:
    def assert_table_agrees(self, delta: LabeledComplex, masks) -> set[bool]:
        """Queries one complex at the masks in the order given, compares
        each answer with a copy whose table is empty and with greedy
        collapses of the restriction, and returns the answers seen."""
        answers = set()
        for mask in masks:
            answer = collapses_to_point(delta, mask)
            answers.add(answer)
            fresh = LabeledComplex(delta.ideal, delta.faces)
            assert collapses_to_point(fresh, mask) is answer, (delta.faces, mask)
            assert collapses_greedy(delta.restrict(mask)) == answer, (delta.faces, mask)
            if vertex_set(delta, mask):
                assert delta.collapse_answers[vertex_set(delta, mask)] is answer
        assert_table_closed(delta)
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
        """A restriction keeps the generators of its ideal, so one below a
        vertex may be no vertex, and the singleton face of generator g then
        sits at an index other than g + 1.  Queries on such restrictions
        agree with greedy collapses."""
        rng = random.Random(79)
        shifted = 0
        seen = set()
        for ideal in oracle_corpus[::7]:
            delta = scarf_complex(ideal)
            lattice = lcm_lattice(ideal)
            for point in rng.sample(lattice, min(4, len(lattice))):
                restricted = delta.restrict(point)
                singles = restricted.faces_of_size(1)
                shifted += any(face != 1 << i for i, face in enumerate(singles))
                masks = [rng.getrandbits(ideal.universe.size) for _ in range(8)]
                seen |= self.assert_table_agrees(restricted, [point, *masks])
        assert shifted > 10
        assert seen == {True, False}

    def test_spider_scan_counts(self):
        """The counts the README gives for the path:4 scans of S5(3,3,3),
        S5(4,3,3) and S5(4,4,4): vertex domination tests and table entries.
        Each domination test indexes the faces twice, for its vertex and for
        the last face of that vertex's star, and nothing else in
        `collapses_to_point` indexes them."""

        class CountedFaces(tuple):
            reads = 0

            def __getitem__(self, index):
                CountedFaces.reads += 1
                return tuple.__getitem__(self, index)

        for legs, tests, entries in (
            ((3, 3, 3), 567, 568), ((4, 3, 3), 1135, 1136), ((4, 4, 4), 4335, 4336),
        ):
            ideal = build_ideal(spider5_graph(*legs), IdealSpec("path", 4))
            delta = scarf_complex(ideal)
            labels = set(delta.label_masks)
            object.__setattr__(delta, "faces", CountedFaces(delta.faces))
            CountedFaces.reads = 0
            assert all(
                collapses_to_point(delta, point)
                for point in lcm_lattice(ideal) if point not in labels
            )
            assert CountedFaces.reads == 2 * tests, legs
            assert len(delta.collapse_answers) == entries, legs

    def test_tables_only_for_absent_variables(self):
        """A query at a monomial that lacks no variable, as a sweep's x_V,
        builds no `faces_without` table; one that lacks a variable builds it."""
        ideal = build_ideal(path_graph(7), IdealSpec("connected", 3))
        top = (1 << ideal.universe.size) - 1
        for mask in (-1, top):
            delta = scarf_complex(ideal)
            assert not collapses_to_point(delta, mask)
            assert "faces_without" not in vars(delta)
        assert collapses_to_point(delta, top >> 1)
        assert "faces_without" in vars(delta)

    def test_spider_scan_reads_the_table(self):
        """After one scan of the lattice, a second one answers from the table
        alone: with faces that refuse indexing no vertex can be tested."""
        ideal = build_ideal(spider5_graph(3, 3, 3), IdealSpec("path", 4))
        delta = scarf_complex(ideal)
        masks = lcm_lattice(ideal)
        assert all(collapses_to_point(delta, mask) for mask in masks)
        object.__setattr__(delta, "faces", NoIndexFaces(delta.faces))
        assert all(collapses_to_point(delta, mask) for mask in masks)
