import itertools
import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scarflab import complexes
from scarflab.complexes import (
    ComplexError,
    LabeledComplex,
    glue_leaf_ideal,
    lcm_lattice,
    leaf_split,
    scarf_complex,
    scarf_facets,
    scarf_neighbours,
    taylor_complex,
)
from scarflab.graphs import _bits, cycle_graph, path_graph, spider5_graph, spider6_graph
from scarflab.ideals import IdealSpec, build_ideal
from scarflab.monomials import MonomialIdeal, VariableUniverse, minimalize

from reference import (
    cliques_bruteforce,
    is_flag,
    maximal_sets,
    random_ideal,
    _face_key,
    complex_from_faces,
    cone,
    evaluate_bar,
    face_mask,
    generator_index_map,
    ideals_isomorphic,
    lcm_of,
    member_tuples,
    scarf_complex_bruteforce,
)

P4 = IdealSpec("path", 4)
C3 = IdealSpec("connected", 3)


def ideal_of(*texts: str, size: int) -> MonomialIdeal:
    universe = VariableUniverse.of_size(size)
    return minimalize([universe.parse(t) for t in texts], universe=universe)


def middle_leaf(graph) -> int:
    (leaf,) = [v for v in range(graph.n) if graph.adjacency[2] >> v & 1 and graph.degrees[v] == 1]
    return leaf


def relabel(face: int, mapping: dict[int, int]) -> int:
    """The face whose members are the images of this face's members."""
    return sum(1 << mapping[i] for i in _bits(face))


class TestTaylor:
    def test_two_generators(self):
        delta = taylor_complex(ideal_of("x1*x2", "x2*x3", size=3))
        assert delta.faces == (0, 0b01, 0b10, 0b11)
        assert delta.label_masks == (0, 0b011, 0b110, 0b111)

    def test_c3_of_p6_has_sixteen_faces(self):
        delta = taylor_complex(build_ideal(path_graph(6), C3))
        assert len(delta.faces) == 16
        assert delta.label_masks[0] == 0

    def test_zero_ideal(self):
        delta = taylor_complex(MonomialIdeal.zero(VariableUniverse.of_size(2)))
        assert delta.faces == (0,)
        assert not delta.vertices

    def test_cap(self):
        with pytest.raises(ComplexError):
            taylor_complex(build_ideal(path_graph(6), C3), max_generators=3)


class TestScarfShapes:
    def test_c3_of_p6_is_a_path(self):
        delta = scarf_complex(build_ideal(path_graph(6), C3))
        assert delta.f_vector() == (4, 3)
        assert member_tuples(delta.faces_of_size(2)) == ((0, 1), (1, 2), (2, 3))

    def test_c3_of_p7_is_a_pentagon_boundary(self):
        delta = scarf_complex(build_ideal(path_graph(7), C3))
        assert delta.f_vector() == (5, 5)
        degree = {v: 0 for (v,) in member_tuples(delta.faces_of_size(1))}
        for a, b in member_tuples(delta.faces_of_size(2)):
            degree[a] += 1
            degree[b] += 1
        assert set(degree.values()) == {2}

    def test_p4_of_smallest_spider(self):
        delta = scarf_complex(build_ideal(spider5_graph(1, 1, 1), P4))
        assert delta.f_vector() == (6, 7, 2)
        first, second = (set(t) for t in member_tuples(delta.faces_of_size(3)))
        assert first & second == set()
        bridges = [
            e
            for e in member_tuples(delta.faces_of_size(2))
            if not set(e) <= first and not set(e) <= second
        ]
        assert len(bridges) == 1
        (bridge,) = bridges
        assert len(set(bridge) & first) == 1 and len(set(bridge) & second) == 1

    def test_zero_and_single_generator(self):
        assert scarf_complex(MonomialIdeal.zero(VariableUniverse.of_size(1))).faces == (0,)
        single = ideal_of("x1*x2", size=2)
        assert scarf_complex(single).faces == (0, 0b1)


class TestScarfAgainstBruteforce:
    def test_matches_on_corpus(self, oracle_corpus):
        for ideal in oracle_corpus:
            fast = scarf_complex(ideal)
            slow = scarf_complex_bruteforce(ideal)
            assert fast.faces == slow.faces, ideal.render()

    def test_matches_on_random_ideals(self):
        rng = random.Random(31)
        ideals = [random_ideal(rng) for _ in range(60)]
        # 7 to 12 generators of mixed degrees over up to 10 variables, some
        # of them unused, and the unit ideal in universes of each size
        while len(ideals) < 100:
            used = rng.randint(4, 10)
            universe = VariableUniverse.of_size(rng.randint(used, 10))
            gens = [
                universe.monomial(rng.sample(range(used), rng.randint(2, min(5, used))))
                for _ in range(rng.randint(7, 16))
            ]
            ideal = minimalize(gens, universe=universe)
            if 7 <= ideal.num_generators <= 12:
                ideals.append(ideal)
        for size in range(1, 11):
            universe = VariableUniverse.of_size(size)
            ideals.append(minimalize([0], universe=universe))
        for ideal in ideals:
            assert scarf_complex(ideal).faces == scarf_complex_bruteforce(ideal).faces, (
                ideal.render()
            )

    def test_closedness_tests_on_spiders(self, monkeypatch):
        """The path:4 ideals of S5(3,3,3) and S5(4,3,3) have 14 and 15
        generators; their Scarf complexes are found with 289 and 423
        closedness tests (`_meet` calls): one per pair of generators (91
        and 105), the rest on faces grown over common Scarf-edge
        neighbours.  Testing every candidate face against every generator
        took 883 and 1,621."""
        calls = 0
        original = complexes._meet

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        monkeypatch.setattr(complexes, "_meet", counted)
        for legs, faces, tests in (((3, 3, 3), 256, 289), ((4, 3, 3), 384, 423)):
            calls = 0
            delta = scarf_complex(build_ideal(spider5_graph(*legs), P4))
            assert (len(delta.faces), calls) == (faces, tests)

    def test_singletons_always_present_and_labels_distinct(self, oracle_corpus):
        for ideal in oracle_corpus:
            delta = scarf_complex(ideal)
            for i in range(ideal.num_generators):
                assert 1 << i in delta.face_set
            labels = delta.label_masks
            assert len(set(labels)) == len(labels)

    def test_scarf_inside_taylor(self):
        rng = random.Random(13)
        for _ in range(20):
            ideal = random_ideal(rng)
            if ideal.num_generators > 10:
                continue
            taylor = taylor_complex(ideal)
            assert scarf_complex(ideal).face_set <= taylor.face_set

    def test_label_monotonicity(self):
        rng = random.Random(17)
        for _ in range(20):
            delta = scarf_complex(random_ideal(rng))
            masks = dict(zip(delta.faces, delta.label_masks))
            for face in delta.faces:
                for i in _bits(face):
                    assert masks[face ^ 1 << i] & ~masks[face] == 0


class TestScarfFacets:
    """The 1-skeleton, the maximal cliques and the flag facets that the
    walk's x_V check reads instead of the face list."""

    @given(st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
    )))
    def test_maximal_cliques_match_bruteforce(self, drawn):
        n, pairs = drawn
        neighbours = [0] * n
        for u, v in pairs:
            if u != v:
                neighbours[u] |= 1 << v
                neighbours[v] |= 1 << u
        found = complexes._maximal_cliques(neighbours)
        assert len(found) == len(set(found))
        assert set(found) == maximal_sets(cliques_bruteforce(neighbours))

    def test_neighbours_are_the_scarf_edges(self, oracle_corpus):
        for ideal in oracle_corpus:
            edges = {
                1 << i | 1 << j
                for i, row in enumerate(scarf_neighbours(ideal)) for j in _bits(row)
            }
            assert edges == set(scarf_complex(ideal).faces_of_size(2)), ideal.render()

    def test_flag_facets_on_random_ideals(self):
        """None exactly when the complex is not flag; otherwise its maximal
        faces.  Random ideals give both kinds."""
        rng = random.Random(83)
        kinds = {True: 0, False: 0}
        for _ in range(300):
            ideal = random_ideal(rng, (5, 8), (6, 10))
            delta = scarf_complex(ideal)
            facets = scarf_facets(ideal, scarf_neighbours(ideal))
            flag = is_flag(delta)
            kinds[flag] += 1
            assert (facets is not None) == flag, ideal.render()
            if flag:
                assert len(facets) == len(set(facets))
                assert set(facets) == maximal_sets(delta.faces), ideal.render()
        assert kinds[True] and kinds[False] >= 10

    def test_scarf_face_test_matches_the_face_list(self, oracle_corpus):
        for ideal in oracle_corpus[:150]:
            faces = scarf_complex(ideal).face_set
            for face in range(1, 1 << ideal.num_generators):
                assert complexes._is_scarf_face(ideal, face) == (face in faces)


class TestRestrictComplex:
    def test_top_is_identity(self):
        ideal = build_ideal(path_graph(6), C3)
        delta = scarf_complex(ideal)
        assert delta.restrict((1 << 6) - 1) is delta

    def test_unit_keeps_only_empty_face(self):
        delta = scarf_complex(build_ideal(path_graph(6), C3))
        assert delta.restrict(delta.ideal.universe.parse("1")).faces == (0,)

    def test_prefix_window(self):
        ideal = build_ideal(path_graph(6), C3)
        delta = scarf_complex(ideal)
        bound = ideal.universe.parse("x1*x2*x3*x4")
        got = delta.restrict(bound)
        expected = [
            f for f, mask in zip(delta.faces, delta.label_masks)
            if mask & ~bound == 0
        ]
        assert got.faces == tuple(expected)
        assert got.f_vector() == (2, 1)

    def test_skipped_validation_would_pass(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(30):
            ideal = random_ideal(rng)
            if ideal.num_generators > 8:
                continue
            size = ideal.universe.size
            masks = [0, (1 << size) - 1] + [rng.getrandbits(size) for _ in range(6)]
            for delta in (taylor_complex(ideal), scarf_complex(ideal), LabeledComplex(ideal, ())):
                for mask in masks:
                    got = delta.restrict(mask)
                    assert LabeledComplex(got.ideal, got.faces) == got
                    checked += 1
        assert checked > 300


def label_filter(delta: LabeledComplex, mask: int) -> list[int]:
    """Indices of the faces whose label divides the monomial with this mask."""
    return [i for i, label in enumerate(delta.label_masks) if label & ~mask == 0]


def dividing_vertices(delta: LabeledComplex, mask: int) -> int:
    """The generators dividing the monomial whose singleton is a face."""
    return sum(
        1 << g for g, generator in enumerate(delta.ideal.generator_masks)
        if not generator & ~mask and 1 << g in delta.face_set
    )


class TestIncidenceIndex:
    """The per-variable table `MonomialIdeal.generators_without`, from which
    the Scarf scan reads the generators dividing a point (`complexes._meet`),
    the facets of a complex and their traces on those generators, and
    `restrict`."""

    def complexes(self, ideal):
        q = ideal.num_generators
        yield taylor_complex(ideal)
        yield scarf_complex(ideal)
        yield LabeledComplex(ideal, (0,))
        yield LabeledComplex(ideal, ())
        if q > 1:
            # a cone over the Scarf complex of the first q-1 generators
            base = scarf_complex(MonomialIdeal(ideal.universe, ideal.generator_masks[:-1]))
            yield cone(q - 1, LabeledComplex(ideal, base.faces))

    def test_restrict_matches_label_filter(self):
        """`restrict` keeps the faces whose label divides the monomial, in
        order; they are the faces inside the dividing generators, its
        vertices are the dividing vertices, and its facets are the maximal
        traces of the complex's facets on the dividing generators."""
        rng = random.Random(53)
        checked = 0
        for _ in range(40):
            ideal = random_ideal(rng)
            if not 0 < ideal.num_generators <= 8:
                continue
            size = ideal.universe.size
            masks = [0, (1 << size) - 1] + [rng.getrandbits(size) for _ in range(8)]
            for delta in self.complexes(ideal):
                assert set(delta.facets) == maximal_sets(delta.faces)
                for mask in masks:
                    kept = label_filter(delta, mask)
                    absent = ~mask & ((1 << size) - 1)
                    dividing = complexes._meet(
                        (1 << ideal.num_generators) - 1, absent, ideal.generators_without
                    )
                    assert dividing == sum(
                        1 << g for g, generator in enumerate(ideal.generator_masks)
                        if not generator & ~mask
                    )
                    got = delta.restrict(mask)
                    assert got.faces == tuple(delta.faces[i] for i in kept), (delta.faces, mask)
                    assert got.faces == tuple(f for f in delta.faces if not f & ~dividing)
                    assert got.vertices == dividing_vertices(delta, mask)
                    assert got.vertices == dividing & delta.vertices
                    assert set(delta.induced_facets(dividing)) == set(got.facets)
                    checked += 1
        assert checked > 1000

    def test_restriction_of_restriction(self):
        """A restriction cut from a restriction has the faces of one cut
        fresh at the intersection of the two monomials."""
        rng = random.Random(59)
        checked = 0
        for _ in range(40):
            ideal = random_ideal(rng)
            if not 0 < ideal.num_generators <= 8:
                continue
            size = ideal.universe.size
            for delta in self.complexes(ideal):
                for _ in range(4):
                    outer, inner = (rng.getrandbits(size) for _ in range(2))
                    got = delta.restrict(outer).restrict(inner)
                    fresh = delta.restrict(outer & inner)
                    assert got.faces == fresh.faces
                    checked += 1
        assert checked > 300

    def test_incidences(self):
        delta = taylor_complex(ideal_of("x1", "x2", "x3", size=3))
        # faces: (), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)
        assert delta.vertices == 0b111
        assert delta.facets == (0b111,)
        assert delta.ideal.generators_without == (0b110, 0b101, 0b011)
        assert delta.induced_facets(0b101) == [0b101]
        assert delta.induced_facets(0) == [0]
        hollow = LabeledComplex(delta.ideal, delta.faces[:-1])
        assert hollow.facets == (0b011, 0b101, 0b110)
        assert sorted(hollow.induced_facets(0b011)) == [0b011]
        for faces in ((), (0,)):
            empty = LabeledComplex(delta.ideal, faces)
            assert empty.vertices == 0
            assert empty.facets == faces
            assert empty.induced_facets(0b111) == list(faces)

    def test_restrict_keeps_face_order(self):
        rng = random.Random(61)
        for _ in range(20):
            delta = scarf_complex(random_ideal(rng))
            size = delta.ideal.universe.size
            got = delta.restrict(rng.getrandbits(size))
            kept = set(got.faces)
            assert got.faces == tuple(face for face in delta.faces if face in kept)


def unit_ideal(size: int) -> MonomialIdeal:
    return MonomialIdeal.from_json_dict(
        {"variables": [f"x{i + 1}" for i in range(size)], "mingens": [[]]}
    )


class TestLcmLattice:
    def test_single_generator(self):
        ideal = ideal_of("x1*x2", size=2)
        lattice = lcm_lattice(ideal)
        assert lattice == (0b11,)
        # the closure starts from no point, and the unit ideal's one
        # generator 1 is its one point
        assert lcm_lattice(unit_ideal(2)) == (0,)
        assert lcm_lattice(unit_ideal(0)) == (0,)

    def test_c3_of_p6(self):
        ideal = build_ideal(path_graph(6), C3)
        lattice = lcm_lattice(ideal)
        assert lattice[-1] == (1 << 6) - 1
        expected = {
            lcm_of(ideal.generator_masks[i] for i in subset)
            for r in range(1, ideal.num_generators + 1)
            for subset in itertools.combinations(range(ideal.num_generators), r)
        }
        assert set(lattice) == expected
        assert len(lattice) == 10

    def test_matches_subset_lcms_on_corpus(self, oracle_corpus):
        universe = VariableUniverse.of_size(3)
        for ideal in oracle_corpus + [unit_ideal(3), MonomialIdeal.zero(universe)]:
            q = ideal.num_generators
            if q > 10:
                continue
            expected = set()
            for bits in range(1, 1 << q):
                mask = 0
                for i in range(q):
                    if bits >> i & 1:
                        mask |= ideal.generator_masks[i]
                expected.add(mask)
            assert set(lcm_lattice(ideal)) == expected

    def test_points_sorted_and_closed(self):
        for ideal in (
            build_ideal(cycle_graph(5), C3),
            unit_ideal(2),
            MonomialIdeal.zero(VariableUniverse.of_size(2)),
        ):
            masks = list(lcm_lattice(ideal))
            assert masks == sorted(set(masks))
            assert all(0 <= m < 1 << ideal.universe.size for m in masks)
            points = set(masks)
            for a, b in itertools.combinations(masks, 2):
                assert a | b in points

    def test_zero_ideal_has_no_top(self):
        assert lcm_lattice(MonomialIdeal.zero(VariableUniverse.of_size(2))) == ()
        assert lcm_lattice(MonomialIdeal.zero(VariableUniverse(()))) == ()


    def test_cap_refuses_only_larger_lattices(self):
        """The cap is checked while the set grows: a lattice of exactly
        max_points points is built, one more point is refused, on both the
        doubling and the point-by-point steps."""
        rng = random.Random(89)
        for _ in range(60):
            ideal = random_ideal(rng)
            lattice = lcm_lattice(ideal)
            for cap in range(max(1, len(lattice) - 3), len(lattice) + 3):
                if cap >= len(lattice):
                    assert lcm_lattice(ideal, cap) == lattice
                else:
                    with pytest.raises(ComplexError, match=f"capped at {cap} points"):
                        lcm_lattice(ideal, cap)

    def test_default_cap_holds_the_largest_spider_run(self):
        assert complexes.DEFAULT_LATTICE_CAP > 2_162_686  # S5(7,7,7) under path:4


class TestStarAndCone:
    def test_star_of_empty_face_is_whole(self):
        delta = scarf_complex(build_ideal(path_graph(6), C3))
        assert delta.star(0).faces == delta.faces

    def test_star_in_full_simplex(self):
        delta = taylor_complex(ideal_of("x1", "x2", "x3", size=3))
        assert delta.star(0b10).faces == delta.faces

    def test_star_of_middle_vertex_in_path(self):
        delta = scarf_complex(build_ideal(path_graph(6), C3))
        assert delta.star(0b10).face_set == {
            face_mask(face) for face in [(), (0,), (1,), (2,), (0, 1), (1, 2)]
        }

    def test_star_requires_a_face(self):
        delta = scarf_complex(build_ideal(path_graph(6), C3))
        with pytest.raises(ComplexError):
            delta.star(0b101)

    def test_cone_over_empty_face_complex(self):
        ideal = ideal_of("x1", "x2", size=2)
        fragment = complex_from_faces(ideal, [()])
        assert cone(0, fragment).faces == (0, 0b1)

    def test_cone_over_edge_is_triangle(self):
        ideal = ideal_of("x1", "x2", "x3", size=3)
        edge = complex_from_faces(ideal, [(0, 1), (0,), (1,)])
        assert cone(2, edge).faces == taylor_complex(ideal).restrict(
            ideal.universe.parse("x1*x2*x3")
        ).faces

    def test_cone_doubles_face_count(self):
        base = build_ideal(path_graph(6), C3)
        delta = scarf_complex(base)
        # borrow a wider ideal so a fifth vertex index exists
        wide = build_ideal(path_graph(7), C3)
        lifted = LabeledComplex(wide, delta.faces)
        assert len(cone(4, lifted).faces) == 2 * len(delta.faces)

    def test_cone_rejects_used_apex(self):
        delta = scarf_complex(build_ideal(path_graph(6), C3))
        with pytest.raises(ComplexError):
            cone(2, delta)
        with pytest.raises(ComplexError):
            cone(9, delta)

    def test_cones_have_no_reduced_homology_shape(self):
        # every face of the cone either contains the apex or extends to it
        ideal = build_ideal(path_graph(7), C3)
        fragment = LabeledComplex(ideal, scarf_complex(build_ideal(path_graph(6), C3)).faces)
        grown = cone(4, fragment)
        for face in grown.faces:
            assert face >> 4 & 1 or face | 1 << 4 in grown.face_set


class TestComplexValidation:
    def test_not_downward_closed(self):
        ideal = ideal_of("x1", "x2", size=2)
        with pytest.raises(ComplexError):
            LabeledComplex(ideal, (0, 0b11))

    def test_missing_empty_face(self):
        ideal = ideal_of("x1", "x2", size=2)
        with pytest.raises(ComplexError):
            LabeledComplex(ideal, (0b1,))

    def test_out_of_range_index(self):
        ideal = ideal_of("x1", "x2", size=2)
        with pytest.raises(ComplexError):
            LabeledComplex(ideal, (0, 1 << 5))

    def test_from_faces_normalizes_but_does_not_close(self):
        ideal = ideal_of("x1", "x2", "x3", size=3)
        delta = complex_from_faces(ideal, [(1, 0), (0,), (1,), (0,)])
        assert delta.faces == (0, 0b01, 0b10, 0b11)
        with pytest.raises(ComplexError):
            complex_from_faces(ideal, [(0, 1)])

    @given(st.data())
    def test_accepts_exactly_the_sorted_family(self, data):
        """On a downward-closed family, the constructor accepts a sequence
        exactly when it is the family sorted by size and then members, and
        the JSON lists each face's members ascending."""
        q = data.draw(st.integers(0, 5), label="q")
        tops = data.draw(st.lists(st.integers(0, (1 << q) - 1), max_size=4), label="tops")
        family = sorted(
            {sub for top in tops for sub in range(top + 1) if not sub & ~top}, key=_face_key
        )
        sequence = list(family)
        how = data.draw(st.sampled_from(["kept", "swapped", "shuffled"]), label="how")
        if how == "swapped" and len(family) > 1:
            i = data.draw(st.integers(0, len(family) - 2), label="i")
            sequence[i:i + 2] = sequence[i + 1], sequence[i]
        elif how == "shuffled":
            sequence = data.draw(st.permutations(family), label="sequence")
        universe = VariableUniverse.of_size(q)
        ideal = MonomialIdeal(universe, tuple(1 << i for i in range(q)))
        try:
            delta = LabeledComplex(ideal, sequence)
        except ComplexError:
            assert sequence != family
            return
        assert sequence == family
        listed = delta.to_json_dict()["faces"]
        assert [face_mask(members) for members in listed] == family
        assert all(members == sorted(set(members)) for members in listed)
        assert listed == sorted(listed, key=lambda members: (len(members), members))

    def test_void_complex(self):
        delta = LabeledComplex(ideal_of("x1", size=1), ())
        assert delta.faces == () and not delta.vertices


class TestLeafGluing:
    def test_split_indices(self):
        ideal = ideal_of("x1*x2", "x2*x3", "x3*x4", size=4)
        assert leaf_split(ideal, 1) == (0, 1)

    def test_split_rejects_unused_variable(self):
        ideal = ideal_of("x1*x2", size=3)
        with pytest.raises(ComplexError):
            leaf_split(ideal, 2)

    def test_smallest_glue(self):
        ideal = ideal_of("x1*x2", size=2)
        glued = glue_leaf_ideal(ideal, 0)
        assert glued.universe.names == ("x1", "x2", "x1'")
        assert glued.render() == "(x1*x2, x2*x1')"

    def test_glued_spider_matches_graph_side(self):
        base = build_ideal(spider5_graph(1, 1, 1), P4)
        glued = glue_leaf_ideal(base, middle_leaf(spider5_graph(1, 1, 1)))
        target = build_ideal(spider5_graph(1, 2, 1), P4)
        assert ideals_isomorphic(glued, target)

    def test_glued_spider6_matches_graph_side(self):
        base = build_ideal(spider6_graph(1, 1, 1), P4)
        glued = glue_leaf_ideal(base, middle_leaf(spider6_graph(1, 1, 1)))
        target = build_ideal(spider6_graph(1, 2, 1), P4)
        assert ideals_isomorphic(glued, target)

    def test_fresh_name_never_collides(self):
        universe = VariableUniverse(("x1", "x1'"))
        ideal = minimalize([universe.parse("x1"), universe.parse("x1'")], universe=universe)
        glued = glue_leaf_ideal(ideal, 0)
        assert len(set(glued.universe.names)) == 3

    def test_index_map_round_trip(self):
        base = build_ideal(spider5_graph(1, 1, 1), P4)
        glued = glue_leaf_ideal(base, middle_leaf(spider5_graph(1, 1, 1)))
        mapping = generator_index_map(base, glued)
        for i, j in mapping.items():
            assert base.generator_masks[i] == glued.generator_masks[j]

    def test_index_map_rejects_missing_generator(self):
        a = ideal_of("x1*x2", size=3)
        b = ideal_of("x2*x3", size=3)
        with pytest.raises(ComplexError):
            generator_index_map(a, b)


class TestBarEvaluation:
    def setup_method(self):
        self.base = ideal_of("x3*x4", "x1*x2", "x1*x3", size=4)
        self.x = 0
        self.glued = glue_leaf_ideal(self.base, self.x)
        self.x_prime = self.glued.universe.size - 1
        self.fwd = generator_index_map(self.base, self.glued)
        prime_bit = 1 << self.x_prime
        self.primed = {
            i for i, g in enumerate(self.glued.generator_masks) if g & prime_bit
        }

    def glued_index(self, base_index: int, primed: bool) -> int:
        mask = self.base.generator_masks[base_index]
        if primed:
            mask = (mask & ~(1 << self.x)) | (1 << self.x_prime)
        for j, g in enumerate(self.glued.generator_masks):
            if g == mask:
                return j
        raise AssertionError("missing generator")

    def test_face_inside_old_generators_unchanged(self):
        face = 1 << self.fwd[0] | 1 << self.fwd[1]
        assert evaluate_bar(face, self.glued, self.base, self.x, self.x_prime) == 0b11

    def test_primed_generator_drops_back(self):
        # a plain generator plus a primed one: only the primed one moves
        face = 1 << self.fwd[2] | 1 << self.glued_index(1, primed=True)
        assert evaluate_bar(face, self.glued, self.base, self.x, self.x_prime) == 0b110

    def test_pair_collapses(self):
        face = 1 << self.glued_index(1, primed=False) | 1 << self.glued_index(1, primed=True)
        assert evaluate_bar(face, self.glued, self.base, self.x, self.x_prime) == 0b10

    def test_lcm_transfer_three_cases_exhaustive(self):
        for base in (
            self.base,
            build_ideal(spider5_graph(1, 1, 1), P4),
            ideal_of("x1*x2", "x1*x3", "x2*x3*x4", size=4),
        ):
            xs = [
                v
                for v in range(base.universe.size)
                if any(g >> v & 1 for g in base.generator_masks)
            ]
            for x in xs:
                glued = glue_leaf_ideal(base, x)
                x_prime = glued.universe.size - 1
                x_bit, prime_bit = 1 << x, 1 << x_prime
                q = glued.num_generators
                for face in range(1, 1 << q):
                    lcm_mask = 0
                    for i in _bits(face):
                        lcm_mask |= glued.generator_masks[i]
                    bar = evaluate_bar(face, glued, base, x, x_prime)
                    bar_mask = 0
                    for i in _bits(bar):
                        bar_mask |= base.generator_masks[i]
                    if not lcm_mask & prime_bit:
                        assert lcm_mask == bar_mask
                    elif not lcm_mask & x_bit:
                        assert lcm_mask == (bar_mask & ~x_bit) | prime_bit
                    else:
                        assert lcm_mask == bar_mask | prime_bit


class TestFaceTransfer:
    @staticmethod
    def check(base: MonomialIdeal, x: int) -> None:
        glued = glue_leaf_ideal(base, x)
        x_prime = glued.universe.size - 1
        gamma = scarf_complex(base).face_set
        gamma_prime = scarf_complex(glued).face_set
        fwd = generator_index_map(base, glued)
        base_indices = sum(1 << i for i in fwd.values())
        back = {v: k for k, v in fwd.items()}
        candidates = set(gamma) | {
            relabel(f, back) for f in gamma_prime if not f & ~base_indices
        }
        for face in candidates:
            assert (face in gamma) == (relabel(face, fwd) in gamma_prime)
        for face in gamma_prime:
            assert evaluate_bar(face, glued, base, x, x_prime) in gamma

    def test_on_spider_examples(self):
        for graph in (spider5_graph(1, 1, 1), spider6_graph(1, 1, 1)):
            self.check(build_ideal(graph, P4), middle_leaf(graph))

    def test_on_random_split_ideals(self):
        rng = random.Random(41)
        done = 0
        while done < 40:
            ideal = random_ideal(rng)
            if ideal.is_zero:
                continue
            x = rng.randrange(ideal.universe.size)
            if not any(g >> x & 1 for g in ideal.generator_masks):
                continue
            self.check(ideal, x)
            done += 1


class TestLeafLemmaStructure:
    @staticmethod
    def structure_holds(base: MonomialIdeal, x: int) -> None:
        glued = glue_leaf_ideal(base, x)
        x_prime_bit = 1 << (glued.universe.size - 1)
        gamma = scarf_complex(base)
        gamma_prime = scarf_complex(glued)
        fwd = generator_index_map(base, glued)
        leafed = leaf_split(base, x)
        expected = {relabel(face, fwd) for face in gamma.faces}
        for j in leafed:
            apex_mask = (base.generator_masks[j] & ~(1 << x)) | x_prime_bit
            (apex,) = [
                k for k, g in enumerate(glued.generator_masks) if g == apex_mask
            ]
            star_faces = {relabel(face, fwd) for face in gamma.star(1 << j).faces}
            expected |= star_faces
            expected |= {f | 1 << apex for f in star_faces}
            # the star of the old generator in the new complex is the cone
            assert gamma_prime.star(1 << fwd[j]).face_set == star_faces | {
                f | 1 << apex for f in star_faces
            }
        assert gamma_prime.face_set == expected

    def test_on_spider5(self):
        graph = spider5_graph(1, 1, 1)
        self.structure_holds(build_ideal(graph, P4), middle_leaf(graph))

    def test_on_spider6(self):
        graph = spider6_graph(1, 1, 1)
        self.structure_holds(build_ideal(graph, P4), middle_leaf(graph))

    def test_forbidden_pairs_absent(self):
        graph = spider5_graph(1, 1, 1)
        base = build_ideal(graph, P4)
        x = middle_leaf(graph)
        glued = glue_leaf_ideal(base, x)
        x_bit = 1 << x
        x_prime_bit = 1 << (glued.universe.size - 1)
        gamma_prime = scarf_complex(glued)
        plain_leafed = [
            i for i, g in enumerate(glued.generator_masks) if g & x_bit
        ]
        primed = [i for i, g in enumerate(glued.generator_masks) if g & x_prime_bit]
        assert len(plain_leafed) >= 2 and len(primed) >= 2
        for group_a, group_b in (
            (plain_leafed, plain_leafed),
            (primed, primed),
            (plain_leafed, primed),
        ):
            for a, b in itertools.product(group_a, group_b):
                if a == b:
                    continue
                la = glued.generator_masks[a]
                lb = glued.generator_masks[b]
                if (la & ~x_bit & ~x_prime_bit) == (lb & ~x_bit & ~x_prime_bit):
                    # the same root generator in both dressings is exempt
                    continue
                assert 1 << a | 1 << b not in gamma_prime.face_set


class TestIdealIsomorphism:
    def test_detects_renaming(self):
        a = ideal_of("x1*x2", "x2*x3", size=3)
        b = ideal_of("x3*x2", "x2*x1", size=3)
        assert ideals_isomorphic(a, b)

    def test_detects_difference(self):
        a = ideal_of("x1*x2", "x2*x3", size=3)
        b = ideal_of("x1*x2", "x3*x4", size=4)
        assert not ideals_isomorphic(a, b)

    def test_matched_padding_maps_unused_to_unused(self):
        a = ideal_of("x1*x2", size=5)
        b = ideal_of("x4*x5", size=5)
        assert ideals_isomorphic(a, b)

    def test_requires_equal_universe_sizes(self):
        a = ideal_of("x1*x2", size=2)
        b = ideal_of("x1*x2", size=5)
        assert not ideals_isomorphic(a, b)


class TestJsonShape:
    def test_deterministic_and_structured(self):
        delta = scarf_complex(build_ideal(spider5_graph(1, 1, 1), P4))
        data = delta.to_json_dict()
        assert set(data) == {"vertices", "faces", "labels"}
        assert data["faces"] == sorted(data["faces"], key=lambda f: (len(f), f))
        again = scarf_complex(build_ideal(spider5_graph(1, 1, 1), P4))
        assert json.dumps(data, sort_keys=True) == json.dumps(
            again.to_json_dict(), sort_keys=True
        )

    def test_labels_keyed_by_face(self):
        delta = scarf_complex(build_ideal(path_graph(6), C3))
        data = delta.to_json_dict()
        assert data["labels"][""] == "1"
        assert data["labels"]["0"] == "x1*x2*x3"
