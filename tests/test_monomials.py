import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scarflab.monomials import (
    DEFAULT_MAX_VARIABLES,
    MonomialError,
    MonomialIdeal,
    SquarefreeMonomial,
    VariableUniverse,
    minimalize,
)

from reference import lcm_of, restrict_ideal

U6 = VariableUniverse.of_size(6)
U8 = VariableUniverse.of_size(8)


def mono(universe, *indices):
    return universe.monomial(indices)


class TestUniverse:
    def test_of_size_names(self):
        assert U6.names == ("x1", "x2", "x3", "x4", "x5", "x6")
        assert U6.size == 6

    def test_distinct_names_required(self):
        with pytest.raises(MonomialError):
            VariableUniverse(("a", "a"))

    def test_size_cap(self):
        with pytest.raises(MonomialError):
            VariableUniverse.of_size(DEFAULT_MAX_VARIABLES + 1)

    def test_extend_and_index(self):
        bigger = U6.extend("y")
        assert bigger.size == 7
        assert bigger.index_of("y") == 6
        with pytest.raises(MonomialError):
            bigger.index_of("z")

    def test_parse_round_trip(self):
        m = U6.parse("x1*x3*x4")
        assert m.support == (0, 2, 3)
        assert m.render() == "x1*x3*x4"
        assert U6.parse("1").mask == 0
        with pytest.raises(MonomialError):
            U6.parse("x9")


class TestMonomial:
    def test_degree_and_support(self):
        m = mono(U6, 1, 4)
        assert m.support == (1, 4)
        assert m.render() == "x2*x5"

    def test_one(self):
        one = U6.one()
        assert one.mask == 0 and one.support == () and one.render() == "1"

    def test_mask_must_fit(self):
        with pytest.raises(MonomialError):
            SquarefreeMonomial(U6, 1 << 6)

    def test_cross_universe_rejected(self):
        with pytest.raises(MonomialError):
            MonomialIdeal(U6, (mono(U8, 0),))
        with pytest.raises(MonomialError):
            minimalize([mono(U6, 0), mono(U8, 1)])


class TestLcm:
    def test_pair_union(self):
        a = mono(U6, 0, 1, 2)
        b = mono(U6, 3, 4, 5)
        assert lcm_of([a, b]).render() == "x1*x2*x3*x4*x5*x6"

    def test_empty_needs_universe(self):
        assert lcm_of([], universe=U6).mask == 0
        with pytest.raises(MonomialError):
            lcm_of([])

    def test_overlapping_supports(self):
        got = lcm_of([mono(U6, 1, 2, 3), mono(U6, 2, 3, 4)])
        assert got.support == (1, 2, 3, 4)

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1), min_size=0, max_size=8),
           st.data())
    def test_partition_invariance(self, masks, data):
        monomials = [SquarefreeMonomial(U8, m) for m in masks]
        cut = data.draw(st.integers(min_value=0, max_value=len(monomials)))
        left = lcm_of(monomials[:cut], universe=U8)
        right = lcm_of(monomials[cut:], universe=U8)
        assert lcm_of([left, right]).mask == lcm_of(monomials, universe=U8).mask

    @given(st.integers(min_value=0, max_value=(1 << 8) - 1))
    def test_idempotent(self, mask):
        m = SquarefreeMonomial(U8, mask)
        assert lcm_of([m, m]) == m


class TestMinimalize:
    def test_drops_multiples(self):
        ideal = minimalize([mono(U6, 0, 1), mono(U6, 0, 1, 2)])
        assert [g.support for g in ideal.mingens] == [(0, 1)]

    def test_keeps_antichain(self):
        ideal = minimalize([mono(U6, 0, 1, 2), mono(U6, 1, 2, 3)])
        assert ideal.num_generators == 2

    def test_empty_gives_zero_ideal(self):
        ideal = minimalize([], universe=U6)
        assert ideal.is_zero and ideal.render() == "(0)"

    def test_deduplicates(self):
        ideal = minimalize([mono(U6, 2, 3), mono(U6, 2, 3)])
        assert ideal.num_generators == 1

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1), max_size=10))
    def test_idempotent_and_order_insensitive(self, masks):
        gens = [SquarefreeMonomial(U8, m) for m in masks]
        once = minimalize(gens, universe=U8)
        again = minimalize(list(once.mingens), universe=U8)
        assert once == again
        assert minimalize(list(reversed(gens)), universe=U8) == once

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1), max_size=10))
    def test_every_input_generator_stays_in_the_ideal(self, masks):
        gens = [SquarefreeMonomial(U8, m) for m in masks]
        ideal = minimalize(gens, universe=U8)
        for g in gens:
            assert any(k & ~g.mask == 0 for k in ideal.generator_masks)


class TestIdeal:
    def test_sorted_antichain_enforced(self):
        with pytest.raises(MonomialError):
            MonomialIdeal(U6, (mono(U6, 1), mono(U6, 0)))
        with pytest.raises(MonomialError):
            MonomialIdeal(U6, (mono(U6, 0), mono(U6, 0, 1)))
        # the divisor x2 is two degrees below x2*x3*x4, and x1*x3 between
        # them divides neither
        with pytest.raises(MonomialError):
            MonomialIdeal(U6, (mono(U6, 1), mono(U6, 0, 2), mono(U6, 1, 2, 3)))

    def test_structural_equality(self):
        a = minimalize([mono(U6, 0, 1), mono(U6, 1, 2)])
        b = minimalize([mono(U6, 1, 2), mono(U6, 0, 1)])
        assert a == b and hash(a) == hash(b)

    def test_restrict_keeps_dividing_generators(self):
        ideal = minimalize(
            [mono(U6, 0, 1, 2), mono(U6, 1, 2, 3), mono(U6, 2, 3, 4), mono(U6, 3, 4, 5)]
        )
        cut = restrict_ideal(ideal, mono(U6, 0, 1, 2, 3))
        assert [g.support for g in cut.mingens] == [(0, 1, 2), (1, 2, 3)]

    def test_restrict_top_is_identity(self):
        ideal = minimalize([mono(U6, 0, 1), mono(U6, 2, 3)])
        assert restrict_ideal(ideal, mono(U6, 0, 1, 2, 3, 4, 5)) == ideal

    def test_restrict_one_gives_zero(self):
        ideal = minimalize([mono(U6, 0, 1)])
        assert restrict_ideal(ideal, U6.one()).is_zero

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1), max_size=8),
           st.integers(min_value=0, max_value=(1 << 8) - 1),
           st.integers(min_value=0, max_value=(1 << 8) - 1))
    def test_restrict_composition_is_intersection(self, masks, m1, m2):
        ideal = minimalize([SquarefreeMonomial(U8, m) for m in masks], universe=U8)
        inner = restrict_ideal(ideal, SquarefreeMonomial(U8, m1))
        a = restrict_ideal(inner, SquarefreeMonomial(U8, m2))
        b = restrict_ideal(ideal, SquarefreeMonomial(U8, m1 & m2))
        assert a == b

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 8) - 1), max_size=8),
           st.integers(min_value=0, max_value=(1 << 8) - 1))
    def test_restricted_generators_divide(self, masks, m):
        ideal = minimalize([SquarefreeMonomial(U8, mk) for mk in masks], universe=U8)
        bound = SquarefreeMonomial(U8, m)
        for g in restrict_ideal(ideal, bound).mingens:
            assert g.mask & ~bound.mask == 0

    def test_json_round_trip(self):
        ideal = minimalize([mono(U6, 0, 1, 2), mono(U6, 1, 2, 3)])
        data = json.loads(json.dumps(ideal.to_json_dict()))
        assert data["variables"] == list(U6.names)
        assert MonomialIdeal.from_json_dict(data) == ideal

    def test_render(self):
        ideal = minimalize([mono(U6, 0, 1, 2)])
        assert ideal.render() == "(x1*x2*x3)"
