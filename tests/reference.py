"""Reference implementations that only the tests use.

Each is the plain, slow form of something the package decides faster, or a
small graph utility no production code needs.  Tests import them from here
(`from reference import ...`).
"""

from functools import lru_cache
from typing import Iterable, Sequence

from scarflab.graphs import (
    GraphError,
    SimpleGraph,
    _bits,
    canonical_form,
    contains_induced,
    family_catalog,
    is_connected,
    parse_graph6,
)

SPECIAL_TREE_FAMILY_KINDS = ("star", "broom3", "broom4", "spider5", "spider6")


def induced_subgraph(
    graph: SimpleGraph, vertices: Iterable[int]
) -> tuple[SimpleGraph, tuple[int, ...]]:
    """Induced subgraph on the given vertex set, relabelled to 0..k-1.

    Returns the subgraph together with the relabelling map: entry i is the
    original vertex that became vertex i.
    """
    chosen = sorted(set(vertices))
    for v in chosen:
        if not 0 <= v < graph.n:
            raise GraphError(f"vertex {v} out of range")
    position = {v: i for i, v in enumerate(chosen)}
    edges = [
        (position[u], position[v])
        for u, v in graph.edges
        if u in position and v in position
    ]
    return SimpleGraph.from_edges(len(chosen), edges), tuple(chosen)


def are_isomorphic(a: SimpleGraph, b: SimpleGraph) -> bool:
    if a.n != b.n or a.num_edges != b.num_edges:
        return False
    return canonical_form(a) == canonical_form(b)


def diameter(graph: SimpleGraph) -> int:
    if not is_connected(graph):
        raise GraphError("diameter needs a connected graph")
    best = 0
    for source in range(graph.n):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for u in graph.neighbors(v):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        best = max(best, max(dist.values()))
    return best


@lru_cache(maxsize=None)
def catalog_forms(n: int) -> tuple:
    """(tag, canonical form) of each member of `family_catalog(n)`, in order."""
    return tuple((tag, canonical_form(member)) for tag, member in family_catalog(n))


def matches_special_tree_family(graph: SimpleGraph) -> bool:
    """Tree families of the degree-4 path classification (no triangle member)."""
    form = canonical_form(graph)
    return any(
        tag.kind in SPECIAL_TREE_FAMILY_KINDS and member_form == form
        for tag, member_form in catalog_forms(graph.n)
    )


def recognize_family_linear(graph: SimpleGraph):
    """`recognize_family` by scanning `family_catalog` in order."""
    form = canonical_form(graph)
    for tag, member_form in catalog_forms(graph.n):
        if member_form == form:
            return tag
    return None


def minimal_induced(bad: list[SimpleGraph]) -> list[SimpleGraph]:
    """The graphs of `bad` (distinct classes) that contain no other one of
    them as an induced subgraph, by pairwise containment search.  Only a
    graph on fewer vertices can be a proper induced subgraph."""
    return [
        graph
        for graph in bad
        if not any(other.n < graph.n and contains_induced(graph, other) for other in bad)
    ]


def order_bits_bytewise(adjacency: Sequence[int], order: Sequence[int]) -> bytes:
    """`graphs._order_bits` with one byte per bit, first bit first."""
    bits = bytearray()
    for j in range(1, len(order)):
        row = adjacency[order[j]]
        for i in range(j):
            bits.append((row >> order[i]) & 1)
    return bytes(bits)


def pack_graph6_bytewise(n: int, bits: bytes) -> bytes:
    """`graphs._pack_graph6` for a string of one byte per bit."""
    out = bytearray([n + 63])
    for start in range(0, len(bits), 6):
        chunk = bits[start:start + 6]
        value = 0
        for pos in range(6):
            value <<= 1
            if pos < len(chunk) and chunk[pos]:
                value |= 1
        out.append(value + 63)
    return bytes(out)


def refine_colors_multiset(adjacency: Sequence[int], colors: list[int]) -> list[int]:
    """`graphs._refine_colors` with the signature (colour, sorted neighbour
    colours), which needs no precondition on the colouring."""
    n = len(adjacency)
    num = len(set(colors))
    while True:
        signatures = []
        for v in range(n):
            neighbor_colors = sorted(colors[u] for u in _bits(adjacency[v]))
            signatures.append((colors[v], tuple(neighbor_colors)))
        ranking = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [ranking[sig] for sig in signatures]
        if len(ranking) == num:
            return new_colors
        colors, num = new_colors, len(ranking)


def extend_by_vertex_all_masks(
    reps: tuple[SimpleGraph, ...], neighbour_masks: Sequence[int]
) -> tuple[tuple[SimpleGraph, ...], tuple[tuple[int, ...], ...]]:
    """`graphs._extend_by_vertex` with every mask for every representative,
    no twin-orbit pruning."""
    seen: dict[bytes, set[int]] = {}
    for index, graph in enumerate(reps):
        new = graph.n
        for mask in neighbour_masks:
            grown = SimpleGraph(new + 1, graph.edges | {(u, new) for u in _bits(mask)})
            seen.setdefault(canonical_form(grown), set()).add(index)
    forms = sorted(seen)
    return (
        tuple(parse_graph6(form.decode("ascii")) for form in forms),
        tuple(tuple(sorted(seen[form])) for form in forms),
    )
