"""Ideals attached to a finite simple graph.

Two constructions, both square-free and generated in one degree t >= 2:

* connected ideal: one generator per t-element vertex set whose induced
  subgraph is connected;
* path ideal: one generator per vertex set realizable as a simple path on
  t vertices.

Vertex i of the graph is variable i of the universe, displayed as x{i+1},
so a vertex set is the bit mask of its generator.  The masks come straight
from searches over the graph's adjacency rows: the connected ideal scans the
t-element masks in ascending order, the path ideal extends paths one
neighbour at a time.  Both give distinct sets of exactly t vertices, which
are already the minimal generators.  A graph with fewer than t vertices (or
no qualifying subsets) gives the zero ideal, which is a valid result
everywhere downstream.
"""

from __future__ import annotations

from .graphs import SimpleGraph, _connected_within, _Frozen, _set
from .monomials import MonomialIdeal, VariableUniverse

IDEAL_KINDS = ("connected", "path")


class IdealSpecError(ValueError):
    pass


class IdealSpec(_Frozen):
    _fields = ("kind", "t")

    def __init__(self, kind: str, t: int) -> None:
        if kind not in IDEAL_KINDS:
            raise IdealSpecError(f"kind must be one of {IDEAL_KINDS}, got {kind!r}")
        if t < 2:
            raise IdealSpecError("degree t must be at least 2")
        _set(self, "kind", kind)
        _set(self, "t", t)

    def render(self) -> str:
        return f"{self.kind}:{self.t}"

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def parse(cls, text: str) -> "IdealSpec":
        kind, _, t_text = text.strip().partition(":")
        try:
            t = int(t_text)
        except ValueError:
            raise IdealSpecError(
                f"bad ideal spec {text!r}; use connected:<t> or path:<t>"
            ) from None
        try:
            return cls(kind, t)
        except IdealSpecError as exc:
            raise IdealSpecError(f"bad ideal spec {text!r}: {exc}") from None


def _connected_masks(adjacency: tuple[int, ...], t: int) -> list[int]:
    """The t-element vertex sets whose induced subgraph is connected, in
    ascending mask order.

    The scan visits every mask with t bits below 2^n in ascending order:
    from a mask, Gosper's step adds its lowest set bit (`ripple`), which
    carries its lowest run of ones one place up as a single bit, and puts
    the rest of that run back at the bottom; that is the next larger
    integer with the same number of bits."""
    found = []
    mask = (1 << t) - 1
    limit = 1 << len(adjacency)
    while mask < limit:
        if _connected_within(adjacency, mask):
            found.append(mask)
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple
    return found


def _path_masks(adjacency: tuple[int, ...], t: int) -> list[int]:
    """The vertex sets of the simple paths on t >= 2 vertices, in ascending
    mask order.

    A depth-first search from each start s grows a path by one unused
    neighbour of its last vertex at a time, keeping the bit set of the
    vertices used.  A path and its reverse have the same set, so the last
    step keeps only ends above s, and each path is found once, from its
    lower end; the set of masks drops the paths that share a vertex set."""
    found = set()

    def extend(last: int, used: int, left: int, above: int) -> None:
        step = adjacency[last] & ~used
        if left:
            while step:
                low = step & -step
                extend(low.bit_length() - 1, used | low, left - 1, above)
                step ^= low
        else:
            step &= above
            while step:
                low = step & -step
                found.add(used | low)
                step ^= low

    for start in range(len(adjacency)):
        extend(start, 1 << start, t - 2, -2 << start)
    return sorted(found)


def build_ideal(graph: SimpleGraph, spec: IdealSpec) -> MonomialIdeal:
    """Ideal of the requested kind; disconnected input graphs are fine.

    The masks are the minimal generators as found, with no minimalisation:
    each has exactly t bits and they are distinct, and a set of t elements
    contains no other set of t elements, so no generator divides another.
    Both searches return them in ascending order, as `MonomialIdeal`
    asks, and its constructor still checks the antichain."""
    universe = VariableUniverse.of_size(graph.n)
    if spec.t > graph.n:
        return MonomialIdeal.zero(universe)
    if spec.kind == "connected":
        masks = _connected_masks(graph.adjacency, spec.t)
    else:
        masks = _path_masks(graph.adjacency, spec.t)
    return MonomialIdeal(universe, tuple(masks))
