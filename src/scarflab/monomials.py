"""Square-free monomials and square-free monomial ideals.

A square-free monomial over a fixed variable universe is identified with its
support, stored as a bit set (variable i <-> bit i).  Divisibility is subset
inclusion of supports and lcm is union, so everything here is integer bit
arithmetic.  Ideals are kept as their unique minimal generating set, which for
square-free monomials is just the divisibility antichain of the generators.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

from .graphs import _bits, _Frozen, _set

DEFAULT_MAX_VARIABLES = 32


class MonomialError(ValueError):
    pass


class VariableUniverse(_Frozen):
    """An ordered tuple of distinct variable names shared by a family of monomials."""

    _fields = ("names",)

    def __init__(self, names: tuple[str, ...]) -> None:
        if len(set(names)) != len(names):
            raise MonomialError("variable names must be distinct")
        if len(names) > DEFAULT_MAX_VARIABLES:
            raise MonomialError(
                f"universe has {len(names)} variables, cap is {DEFAULT_MAX_VARIABLES}"
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

    def monomial(self, indices: Iterable[int]) -> "SquarefreeMonomial":
        mask = 0
        for i in indices:
            if not 0 <= i < self.size:
                raise MonomialError(f"variable index {i} out of range 0..{self.size - 1}")
            mask |= 1 << i
        return SquarefreeMonomial(self, mask)

    def one(self) -> "SquarefreeMonomial":
        return SquarefreeMonomial(self, 0)

    def parse(self, text: str) -> "SquarefreeMonomial":
        """Parse '1' or a *-separated variable product such as 'x1*x3*x4'."""
        text = text.strip()
        if text == "1":
            return self.one()
        return self.monomial(self.index_of(part.strip()) for part in text.split("*"))


class SquarefreeMonomial(_Frozen):
    _fields = ("universe", "mask")

    def __init__(self, universe: VariableUniverse, mask: int) -> None:
        if mask < 0 or mask >> universe.size:
            raise MonomialError("support does not fit the universe")
        _set(self, "universe", universe)
        _set(self, "mask", mask)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(_bits(self.mask))

    def render(self) -> str:
        if self.mask == 0:
            return "1"
        return "*".join(self.universe.names[i] for i in self.support)

    def __str__(self) -> str:
        return self.render()


def _require_universe(m: SquarefreeMonomial, universe: VariableUniverse) -> None:
    if m.universe is not universe and m.universe != universe:
        raise MonomialError("monomials live in different variable universes")


class MonomialIdeal(_Frozen):
    """A square-free monomial ideal held as its minimal generators.

    Generators are stored as an antichain sorted by ascending support bit
    pattern, so structurally equal ideals compare and hash equal.  The empty
    tuple is the zero ideal.
    """

    _fields = ("universe", "mingens")

    def __init__(self, universe: VariableUniverse, mingens: tuple[SquarefreeMonomial, ...]) -> None:
        masks = [g.mask for g in mingens]
        if sorted(masks) != masks or len(set(masks)) != len(masks):
            raise MonomialError("mingens must be strictly sorted by support bit pattern")
        for g in mingens:
            _require_universe(g, universe)
        for i, a in enumerate(masks):
            for b in masks[i + 1:]:
                if a & ~b == 0 or b & ~a == 0:
                    raise MonomialError("mingens must form a divisibility antichain")
        _set(self, "universe", universe)
        _set(self, "mingens", mingens)

    @classmethod
    def zero(cls, universe: VariableUniverse) -> "MonomialIdeal":
        return cls(universe, ())

    @property
    def is_zero(self) -> bool:
        return not self.mingens

    @property
    def num_generators(self) -> int:
        return len(self.mingens)

    @cached_property
    def generator_masks(self) -> tuple[int, ...]:
        return tuple(g.mask for g in self.mingens)

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.universe.names),
            "mingens": [list(g.support) for g in self.mingens],
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
        gens = [universe.monomial(ix) for ix in data["mingens"]]
        return minimalize(gens, universe)

    def render(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(g.render() for g in self.mingens) + ")"

    def __str__(self) -> str:
        return self.render()


def minimalize(
    generators: Sequence[SquarefreeMonomial],
    universe: VariableUniverse | None = None,
) -> MonomialIdeal:
    """Ideal generated by the given monomials, reduced to the minimal antichain.

    A generator survives unless a distinct generator (strictly smaller support,
    or equal support seen once already) divides it.
    """
    gens = list(generators)
    if not gens:
        if universe is None:
            raise MonomialError("minimalize of an empty list needs a universe")
        return MonomialIdeal.zero(universe)
    if universe is None:
        universe = gens[0].universe
    for g in gens:
        _require_universe(g, universe)
    masks = sorted({g.mask for g in gens}, key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in masks:
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    kept.sort()
    return MonomialIdeal(universe, tuple(SquarefreeMonomial(universe, m) for m in kept))
