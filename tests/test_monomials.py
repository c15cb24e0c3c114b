import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from scarflab.graphs import _bits
from scarflab.monomials import (
    DEFAULT_MAX_VARIABLES,
    MonomialError,
    MonomialIdeal,
    VariableUniverse,
    minimalize,
)

from reference import lcm_of, restrict_ideal

U6 = VariableUniverse.of_size(6)
U8 = VariableUniverse.of_size(8)
# names that parse back although they are not x<i>
ODD_NAMES = VariableUniverse(("a", "b c", "c'", "x1", "10", "(", "é", "1a"))
masks8 = st.integers(min_value=0, max_value=(1 << 8) - 1)


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
        assert tuple(_bits(m)) == (0, 2, 3)
        assert U6.render(m) == "x1*x3*x4"
        assert U6.parse("1") == 0
        with pytest.raises(MonomialError):
            U6.parse("x9")

    @pytest.mark.parametrize("name", ["", " a", "a ", "1", "a*b", "*"], ids=[
        "empty", "padded-left", "padded-right", "one", "product", "star",
    ])
    def test_names_must_parse_back(self, name):
        with pytest.raises(MonomialError, match="does not parse back"):
            VariableUniverse(("x", name))
        with pytest.raises(MonomialError, match="does not parse back"):
            U6.extend(name)

    @given(masks8)
    def test_render_parse_round_trip(self, mask):
        for universe in (U8, ODD_NAMES):
            assert universe.parse(universe.render(mask)) == mask

    @given(st.lists(st.text(alphabet="ab1* '", max_size=3), max_size=6, unique=True), st.data())
    def test_accepted_names_round_trip(self, names, data):
        try:
            universe = VariableUniverse(tuple(names))
        except MonomialError:
            return
        mask = data.draw(st.integers(min_value=0, max_value=(1 << universe.size) - 1))
        assert universe.parse(universe.render(mask)) == mask


class TestMonomial:
    def test_degree_and_support(self):
        m = mono(U6, 1, 4)
        assert m == 0b10010 and tuple(_bits(m)) == (1, 4)
        assert U6.render(m) == "x2*x5"

    def test_one(self):
        assert U6.parse("1") == mono(U6) == 0 and U6.render(0) == "1"

    def test_mask_must_fit(self):
        with pytest.raises(MonomialError):
            MonomialIdeal(U6, (1 << 6,))
        with pytest.raises(MonomialError):
            MonomialIdeal(U6, (-1, 1))
        with pytest.raises(MonomialError):
            mono(U6, 6)


class TestLcm:
    def test_pair_union(self):
        a = mono(U6, 0, 1, 2)
        b = mono(U6, 3, 4, 5)
        assert U6.render(lcm_of([a, b])) == "x1*x2*x3*x4*x5*x6"

    def test_empty_is_one(self):
        assert lcm_of([]) == 0

    def test_overlapping_supports(self):
        got = lcm_of([mono(U6, 1, 2, 3), mono(U6, 2, 3, 4)])
        assert tuple(_bits(got)) == (1, 2, 3, 4)

    @given(st.lists(masks8, min_size=0, max_size=8), st.data())
    def test_partition_invariance(self, masks, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(masks)))
        left = lcm_of(masks[:cut])
        right = lcm_of(masks[cut:])
        assert lcm_of([left, right]) == lcm_of(masks)

    @given(masks8)
    def test_idempotent(self, mask):
        assert lcm_of([mask, mask]) == mask


class TestMinimalize:
    def test_drops_multiples(self):
        ideal = minimalize([mono(U6, 0, 1), mono(U6, 0, 1, 2)], U6)
        assert [tuple(_bits(g)) for g in ideal.generator_masks] == [(0, 1)]

    def test_keeps_antichain(self):
        ideal = minimalize([mono(U6, 0, 1, 2), mono(U6, 1, 2, 3)], U6)
        assert ideal.num_generators == 2

    def test_empty_gives_zero_ideal(self):
        ideal = minimalize([], universe=U6)
        assert ideal.is_zero and ideal.render() == "(0)"

    def test_deduplicates(self):
        ideal = minimalize([mono(U6, 2, 3), mono(U6, 2, 3)], U6)
        assert ideal.num_generators == 1

    @given(st.lists(masks8, max_size=10))
    def test_idempotent_and_order_insensitive(self, masks):
        once = minimalize(masks, universe=U8)
        again = minimalize(once.generator_masks, universe=U8)
        assert once == again
        assert minimalize(list(reversed(masks)), universe=U8) == once

    @given(st.lists(masks8, max_size=10))
    def test_every_input_generator_stays_in_the_ideal(self, masks):
        ideal = minimalize(masks, universe=U8)
        for g in masks:
            assert any(k & ~g == 0 for k in ideal.generator_masks)


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
        a = minimalize([mono(U6, 0, 1), mono(U6, 1, 2)], U6)
        b = minimalize([mono(U6, 1, 2), mono(U6, 0, 1)], U6)
        assert a == b and hash(a) == hash(b)

    def test_restrict_keeps_dividing_generators(self):
        ideal = minimalize(
            [mono(U6, 0, 1, 2), mono(U6, 1, 2, 3), mono(U6, 2, 3, 4), mono(U6, 3, 4, 5)], U6
        )
        cut = restrict_ideal(ideal, mono(U6, 0, 1, 2, 3))
        assert [tuple(_bits(g)) for g in cut.generator_masks] == [(0, 1, 2), (1, 2, 3)]

    def test_restrict_top_is_identity(self):
        ideal = minimalize([mono(U6, 0, 1), mono(U6, 2, 3)], U6)
        assert restrict_ideal(ideal, mono(U6, 0, 1, 2, 3, 4, 5)) == ideal

    def test_restrict_one_gives_zero(self):
        ideal = minimalize([mono(U6, 0, 1)], U6)
        assert restrict_ideal(ideal, U6.parse("1")).is_zero

    @given(st.lists(masks8, max_size=8), masks8, masks8)
    def test_restrict_composition_is_intersection(self, masks, m1, m2):
        ideal = minimalize(masks, universe=U8)
        inner = restrict_ideal(ideal, m1)
        a = restrict_ideal(inner, m2)
        b = restrict_ideal(ideal, m1 & m2)
        assert a == b

    @given(st.lists(masks8, max_size=8), masks8)
    def test_restricted_generators_divide(self, masks, m):
        ideal = minimalize(masks, universe=U8)
        for g in restrict_ideal(ideal, m).generator_masks:
            assert g & ~m == 0

    def test_json_round_trip(self):
        ideal = minimalize([mono(U6, 0, 1, 2), mono(U6, 1, 2, 3)], U6)
        data = json.loads(json.dumps(ideal.to_json_dict()))
        assert data["variables"] == list(U6.names)
        assert MonomialIdeal.from_json_dict(data) == ideal

    def test_render(self):
        ideal = minimalize([mono(U6, 0, 1, 2)], U6)
        assert ideal.render() == "(x1*x2*x3)"
