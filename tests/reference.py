"""Reference implementations that only the tests use.

Each is the plain, slow form of something the package decides faster, or a
small graph or ideal utility no production code needs.  Tests import them
from here (`from reference import ...`).
"""

import itertools
from collections import Counter
from functools import lru_cache
from typing import Iterable, Sequence

from scarflab.analysis import (
    VERDICT_NOT_SCARF,
    VERDICT_SCARF,
    VERDICT_TRIVIALLY_SCARF,
    ScarfReport,
)
from scarflab.complexes import ComplexError, Face, LabeledComplex, lcm_lattice, scarf_complex
from scarflab.graphs import (
    GraphError,
    SimpleGraph,
    _bits,
    _order_bits,
    _pack_graph6,
    canonical_form,
    contains_induced,
    family_catalog,
    is_connected,
    parse_graph6,
)
from scarflab.homology import DEFAULT_FIELDS, reduced_betti
from scarflab.monomials import MonomialIdeal, SquarefreeMonomial, VariableUniverse

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
        new = 1 << graph.n
        for mask in neighbour_masks:
            rows = [row | new if mask >> u & 1 else row for u, row in enumerate(graph.adjacency)]
            grown = SimpleGraph((*rows, mask))
            seen.setdefault(canonical_form(grown), set()).add(index)
    forms = sorted(seen)
    return (
        tuple(parse_graph6(form.decode("ascii")) for form in forms),
        tuple(tuple(sorted(seen[form])) for form in forms),
    )


def automorphisms(adjacency: Sequence[int]) -> list[tuple[int, ...]]:
    """Every automorphism of the graph, as the tuple of vertex images, by
    trying each permutation that keeps degrees."""
    n = len(adjacency)
    by_degree: dict[int, list[int]] = {}
    for v, row in enumerate(adjacency):
        by_degree.setdefault(row.bit_count(), []).append(v)
    groups = list(by_degree.values())
    found = []
    for images in itertools.product(*(itertools.permutations(g) for g in groups)):
        image = [0] * n
        for group, moved in zip(groups, images):
            for v, w in zip(group, moved):
                image[v] = w
        if all(
            sum(1 << image[u] for u in _bits(adjacency[v])) == adjacency[image[v]]
            for v in range(n)
        ):
            found.append(tuple(image))
    return found


def evaluate_bar(
    face: Iterable[int],
    glued: MonomialIdeal,
    base: MonomialIdeal,
    x: int,
    x_prime: int,
) -> Face:
    """Replace every generator x'*n by x*n inside a face of the glued side and
    return the resulting face over the base ideal (duplicates collapse)."""
    x_bit = 1 << x
    x_prime_bit = 1 << x_prime
    base_lookup = {g.mask: i for i, g in enumerate(base.mingens)}
    out = set()
    for index in face:
        if not 0 <= index < glued.num_generators:
            raise ComplexError(f"generator index {index} out of range")
        mask = glued.mingens[index].mask
        if mask & x_prime_bit:
            mask = (mask & ~x_prime_bit) | x_bit
        if mask not in base_lookup:
            raise ComplexError("bar image is not a generator of the base ideal")
        out.add(base_lookup[mask])
    return tuple(sorted(out))


def ideals_isomorphic(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """True when some bijection of variables carries one generator set onto the other.

    Backtracking over variables grouped by how often and in which generator
    degrees they occur; adequate for the desk-scale ideals used here.
    """
    if a.universe.size != b.universe.size or a.num_generators != b.num_generators:
        return False
    size = a.universe.size

    def profile(ideal: MonomialIdeal) -> list[tuple[int, ...]]:
        rows = []
        for v in range(size):
            bit = 1 << v
            degrees = sorted(g.degree for g in ideal.mingens if g.mask & bit)
            rows.append(tuple(degrees))
        return rows

    prof_a, prof_b = profile(a), profile(b)
    if sorted(prof_a) != sorted(prof_b):
        return False
    targets_b = {g.mask for g in b.mingens}
    order = sorted(range(size), key=lambda v: (prof_a[v], v))
    assignment = [-1] * size

    def gens_consistent(partial_done: int) -> bool:
        decided = [v for v in order[:partial_done]]
        decided_mask = 0
        for v in decided:
            decided_mask |= 1 << v
        for g in a.mingens:
            if g.mask & ~decided_mask:
                continue
            image = 0
            for v in (i for i in decided if g.mask & (1 << i)):
                image |= 1 << assignment[v]
            if image not in targets_b:
                return False
        return True

    used = [False] * size

    def backtrack(k: int) -> bool:
        if k == size:
            return True
        v = order[k]
        for w in range(size):
            if used[w] or prof_b[w] != prof_a[v]:
                continue
            assignment[v] = w
            used[w] = True
            if gens_consistent(k + 1) and backtrack(k + 1):
                return True
            used[w] = False
            assignment[v] = -1
        return False

    return backtrack(0)


def collapses_greedy(delta: LabeledComplex) -> bool:
    """`homology.collapses_to_point` by greedy elementary collapses on the
    faces of delta: True when delta is a simplex, or when removing free
    faces (a nonempty face with exactly one coface) together with their
    coface, as long as any is free, leaves one vertex.

    Each face keeps the count of its live cofaces and the xor of their
    indices, which names the coface once the count is 1.  A removed face has
    count 0 for good, so the count alone tells live free faces from stale
    stack entries.
    """
    faces = delta.faces
    vertices = len(delta.vertices)
    if not vertices:
        return False
    if len(faces) == 1 << vertices:
        return True
    position = {face: i for i, face in enumerate(faces)}
    facets = [
        [position[face[:k] + face[k + 1:]] for k in range(len(face))] if len(face) > 1 else []
        for face in faces
    ]
    cofaces = [0] * len(faces)
    coface_xor = [0] * len(faces)
    for i, below in enumerate(facets):
        for f in below:
            cofaces[f] += 1
            coface_xor[f] ^= i
    remaining = len(faces) - 1  # the empty face is never collapsed
    stack = [i for i in range(1, len(faces)) if cofaces[i] == 1]
    while stack:
        free = stack.pop()
        if cofaces[free] != 1:
            continue
        coface = coface_xor[free]
        remaining -= 2
        for gone in (coface, free):
            for f in facets[gone]:
                cofaces[f] -= 1
                coface_xor[f] ^= gone
                if cofaces[f] == 1:
                    stack.append(f)
    return remaining == 1


def canonical_form_bruteforce(graph: SimpleGraph, max_vertices: int = 8) -> bytes:
    """`graphs.canonical_form` as the smallest bit string over all vertex
    orderings."""
    if graph.n > max_vertices:
        raise GraphError(f"brute-force form capped at {max_vertices} vertices")
    best = min(
        _order_bits(graph.adjacency, order)
        for order in itertools.permutations(range(graph.n))
    )
    return _pack_graph6(graph.n, best)


def scarf_complex_bruteforce(ideal: MonomialIdeal, max_generators: int = 16) -> LabeledComplex:
    """`complexes.scarf_complex` by enumerating all 2^q generator subsets and
    keeping those whose label no other subset shares."""
    q = ideal.num_generators
    if q > max_generators:
        raise ComplexError(f"brute-force Scarf capped at {max_generators} generators")
    by_label: dict[int, list[Face]] = {}
    for size in range(q + 1):
        for combo in itertools.combinations(range(q), size):
            mask = 0
            for i in combo:
                mask |= ideal.generator_masks[i]
            by_label.setdefault(mask, []).append(combo)
    return LabeledComplex.from_faces(
        ideal, (group[0] for group in by_label.values() if len(group) == 1)
    )


def is_scarf_bruteforce(ideal: MonomialIdeal, fields=DEFAULT_FIELDS) -> ScarfReport:
    """`analysis.is_scarf` by building and ranking the restriction of the
    Scarf complex at every monomial some generator divides, in ascending mask
    order, with no collapse test and no lattice."""
    fields = tuple(fields)
    delta = scarf_complex(ideal)
    witnesses = []
    if ideal.num_generators <= 1:
        verdicts = dict.fromkeys(fields, VERDICT_TRIVIALLY_SCARF)
    else:
        verdicts = dict.fromkeys(fields, VERDICT_SCARF)
        masks = ideal.generator_masks
        for m in range(1 << ideal.universe.size):
            if not any(g & ~m == 0 for g in masks):
                continue
            point = SquarefreeMonomial(ideal.universe, m)
            restricted = delta.restrict(point)
            for field in fields:
                if verdicts[field] == VERDICT_SCARF:
                    profile = reduced_betti(restricted, field)
                    if not profile.is_acyclic:
                        verdicts[field] = VERDICT_NOT_SCARF
                        witnesses.append((field, point, profile))
    return ScarfReport(
        ideal=ideal,
        verdicts=tuple((f, verdicts[f]) for f in fields),
        witnesses=tuple(witnesses),
        num_generators=ideal.num_generators,
        num_scarf_faces=len(delta.faces),
        num_lattice_points=len(lcm_lattice(ideal)),
    )


def degree_t_ideals(t: int) -> list[MonomialIdeal]:
    """Every ideal generated by a subset of the t+1 square-free monomials of
    degree t in t+1 variables, 2^(t+1) of them."""
    universe = VariableUniverse.of_size(t + 1)
    full = (1 << (t + 1)) - 1
    gens = [SquarefreeMonomial(universe, full & ~(1 << i)) for i in range(t + 1)]
    return [
        MonomialIdeal(universe, tuple(sorted(combo, key=lambda m: m.mask)))
        for size in range(t + 2)
        for combo in itertools.combinations(gens, size)
    ]


def is_polygon_boundary(delta: LabeledComplex, sides: int) -> bool:
    """Exactly `sides` vertices and edges forming one closed cycle, nothing else."""
    if delta.f_vector() != (sides, sides):
        return False
    edges = delta.faces_of_size(2)
    degrees = Counter(v for edge in edges for v in edge)
    if len(degrees) != sides or any(d != 2 for d in degrees.values()):
        return False
    adjacency: dict[int, set[int]] = {v: set() for v in degrees}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    start = next(iter(adjacency))
    seen = {start}
    stack = [start]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == sides
