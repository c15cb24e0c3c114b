"""Square-free monomials and square-free monomial ideals.

A square-free monomial over a fixed variable universe is identified with its
support, stored as an int bit mask (variable i <-> bit i); the universe
names the variables, parses a product such as 'x1*x3' into its mask and
renders a mask back.  Divisibility is subset inclusion of supports and lcm
is union, so everything here is integer bit arithmetic.  Ideals are kept as
the masks of their unique minimal generating set, which for square-free
monomials is just the divisibility antichain of the generators.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

from .graphs import _bits, _Frozen, _set

DEFAULT_MAX_VARIABLES = 32


class MonomialError(ValueError):
    pass


class VariableUniverse(_Frozen):
    """An ordered tuple of distinct variable names; a monomial over it is
    the bit mask of its support.

    Every name parses back from a rendering: it is nonempty, unpadded, not
    '1' and free of '*', so `parse(render(mask)) == mask`."""

    _fields = ("names",)

    def __init__(self, names: Sequence[str]) -> None:
        names = tuple(names)
        if len(set(names)) != len(names):
            raise MonomialError("variable names must be distinct")
        if len(names) > DEFAULT_MAX_VARIABLES:
            raise MonomialError(
                f"universe has {len(names)} variables, cap is {DEFAULT_MAX_VARIABLES}"
            )
        for name in names:
            if not name or name != name.strip() or name == "1" or "*" in name:
                raise MonomialError(
                    f"variable name {name!r} does not parse back: a name is nonempty, "
                    "unpadded, not '1' and has no '*'"
                )
        _set(self, "names", names)

    @classmethod
    def of_size(cls, count: int) -> "VariableUniverse":
        """Universe x1, ..., x<count>; the standard choice for graph vertex 0..count-1."""
        return cls(tuple(f"x{i + 1}" for i in range(count)))

    @property
    def size(self) -> int:
        return len(self.names)

    def extend(self, name: str) -> "VariableUniverse":
        return VariableUniverse(self.names + (name,))

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise MonomialError(f"unknown variable {name!r}") from None

    def monomial(self, indices: Iterable[int]) -> int:
        """The mask of the product of the variables with these indices."""
        mask = 0
        for i in indices:
            if not 0 <= i < self.size:
                if not self.size:
                    raise MonomialError(f"variable index {i}: the universe has no variables")
                raise MonomialError(f"variable index {i} out of range 0..{self.size - 1}")
            mask |= 1 << i
        return mask

    def parse(self, text: str) -> int:
        """The mask of '1' or of a *-separated variable product such as 'x1*x3*x4'."""
        text = text.strip()
        if text == "1":
            return 0
        return self.monomial(self.index_of(part.strip()) for part in text.split("*"))

    def render(self, mask: int) -> str:
        """'1' for mask 0, else the names of its variables joined by '*'."""
        if not mask:
            return "1"
        return "*".join(self.names[i] for i in _bits(mask))


class MonomialIdeal(_Frozen):
    """A square-free monomial ideal held as the masks of its minimal
    generators.

    The masks form an antichain sorted ascending, so structurally equal
    ideals compare and hash equal.  The empty tuple is the zero ideal.
    """

    _fields = ("universe", "generator_masks")

    def __init__(self, universe: VariableUniverse, generator_masks: Sequence[int]) -> None:
        masks = tuple(generator_masks)
        if any(a >= b for a, b in zip(masks, masks[1:])):
            raise MonomialError("mingens must be strictly sorted by support bit pattern")
        # sorted, so the first mask is the least and the last the greatest
        if masks and (masks[0] < 0 or masks[-1] >> universe.size):
            raise MonomialError("support does not fit the universe")
        # A generator divides only generators of higher degree, as distinct
        # masks of equal degree are not submasks of each other.
        by_degree = sorted(masks, key=int.bit_count)
        higher = 0
        for a in by_degree:
            while higher < len(by_degree) and by_degree[higher].bit_count() <= a.bit_count():
                higher += 1
            if any(a & ~b == 0 for b in by_degree[higher:]):
                raise MonomialError("mingens must form a divisibility antichain")
        _set(self, "universe", universe)
        _set(self, "generator_masks", masks)

    @classmethod
    def zero(cls, universe: VariableUniverse) -> "MonomialIdeal":
        return cls(universe, ())

    @property
    def is_zero(self) -> bool:
        return not self.generator_masks

    @property
    def num_generators(self) -> int:
        return len(self.generator_masks)

    @cached_property
    def generators_without(self) -> tuple[int, ...]:
        """Per variable x, the bit set of the generators that x does not
        divide: bit g of `generators_without[x]` is set when generator g
        lacks x."""
        without = [(1 << len(self.generator_masks)) - 1] * self.universe.size
        for g, mask in enumerate(self.generator_masks):
            for x in _bits(mask):
                without[x] ^= 1 << g
        return tuple(without)

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.universe.names),
            "mingens": [list(_bits(g)) for g in self.generator_masks],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MonomialIdeal":
        """Ideal from {"variables": [names], "mingens": [[indices], ...]}; the
        schema is checked and the generators are minimalized."""
        if not (
            isinstance(data, dict)
            and isinstance(data.get("variables"), list)
            and isinstance(data.get("mingens"), list)
        ):
            raise MonomialError("an ideal is a JSON object with 'variables' and 'mingens' lists")
        if not all(isinstance(name, str) for name in data["variables"]):
            raise MonomialError("variable names must be strings")
        for gen in data["mingens"]:
            if not (isinstance(gen, list) and all(type(i) is int for i in gen)):
                raise MonomialError(f"generator {gen!r} is not a list of variable indices")
        universe = VariableUniverse(tuple(data["variables"]))
        return minimalize((universe.monomial(ix) for ix in data["mingens"]), universe)

    def render(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(self.universe.render(g) for g in self.generator_masks) + ")"

    def __str__(self) -> str:
        return self.render()


def minimalize(masks: Iterable[int], universe: VariableUniverse) -> MonomialIdeal:
    """Ideal over universe generated by the monomials with these masks,
    reduced to the minimal antichain.

    A generator survives unless a distinct generator (strictly smaller support,
    or equal support seen once already) divides it.
    """
    kept: list[int] = []
    for m in sorted(set(masks), key=lambda m: (m.bit_count(), m)):
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return MonomialIdeal(universe, tuple(sorted(kept)))
