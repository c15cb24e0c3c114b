"""Reference implementations that only the tests use.

Each is the plain, slow form of something the package decides faster, or a
small graph or ideal utility no production code needs.  Tests import them
from here (`from reference import ...`).
"""

import itertools
import random
from collections import Counter
from functools import lru_cache
from typing import Iterable, Sequence

from scarflab import graphs
from scarflab.analysis import (
    VERDICT_NOT_SCARF,
    VERDICT_SCARF,
    VERDICT_TRIVIALLY_SCARF,
    ScarfReport,
    _failing_fields,
)
from scarflab.complexes import (
    DEFAULT_TAYLOR_CAP,
    ComplexError,
    LabeledComplex,
    lcm_lattice,
    scarf_complex,
    taylor_complex,
)
from scarflab.graphs import (
    GraphError,
    SimpleGraph,
    _bits,
    _check_level_size,
    _connected_within,
    _order_bits,
    _pack_graph6,
    canonical_form,
    contains_induced,
    contains_subgraph,
    family_catalog,
    is_connected,
    parse_graph6,
)
from scarflab.homology import (
    DEFAULT_FIELDS,
    FieldSpec,
    HomologyProfile,
    boundary_matrix,
    matrix_rank,
    reduced_betti,
)
from scarflab.monomials import MonomialIdeal, VariableUniverse, minimalize

SPECIAL_TREE_FAMILY_KINDS = ("star", "broom3", "broom4", "spider5", "spider6")
RATIONALS = FieldSpec("rationals")
# the 6-vertex triangulation of the projective plane, read off the antipodal
# quotient of the icosahedron; every one of the 15 edges lies in two triangles
PROJECTIVE_PLANE_TRIANGLES = (
    (0, 1, 3), (0, 1, 4), (0, 2, 4), (0, 2, 5), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (3, 4, 5),
)


def complete_graph(n: int) -> SimpleGraph:
    if n < 1:
        raise GraphError("need at least one vertex")
    return SimpleGraph.from_edges(n, ((u, v) for v in range(n) for u in range(v)))


def removable_vertices(graph: SimpleGraph) -> tuple[int, ...]:
    """Vertices whose removal keeps the graph connected; empty for a single
    vertex.  The deletions the enumeration records as parents are these."""
    if not is_connected(graph):
        raise GraphError("removable_vertices needs a connected graph")
    if graph.n == 1:
        return ()
    full = (1 << graph.n) - 1
    return tuple(v for v in range(graph.n) if _connected_within(graph.adjacency, full & ~(1 << v)))


def lcm_of(masks: Iterable[int]) -> int:
    """Mask of the lcm of the monomials with these masks; the empty
    collection gives 1, mask 0."""
    lcm = 0
    for m in masks:
        lcm |= m
    return lcm


def restrict_ideal(ideal: MonomialIdeal, m: int) -> MonomialIdeal:
    """Subideal generated by the minimal generators dividing the monomial
    with mask m."""
    return MonomialIdeal(ideal.universe, tuple(g for g in ideal.generator_masks if g & ~m == 0))


def _face_key(face: int) -> tuple[int, list[int]]:
    """The order of `LabeledComplex.faces`: by size, then lexicographically
    by members."""
    return (face.bit_count(), list(_bits(face)))


def face_mask(members: Iterable[int]) -> int:
    """The mask of the face with these generator indices; repeats collapse."""
    return sum(1 << i for i in set(members))


def member_tuples(faces: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """Each face mask as the tuple of its members, ascending."""
    return tuple(tuple(_bits(face)) for face in faces)


def complex_from_faces(ideal: MonomialIdeal, faces: Iterable[Iterable[int]]) -> LabeledComplex:
    """The complex with these faces, each given by its members, plus the
    empty face when there is any; not closed under subsets."""
    masks = {face_mask(face) for face in faces}
    if masks:
        masks.add(0)
    return LabeledComplex(ideal, sorted(masks, key=_face_key))


def cone(apex: int, delta: LabeledComplex) -> LabeledComplex:
    """Cone with apex a generator index not yet used by the complex; doubles
    the faces."""
    if not 0 <= apex < delta.ideal.num_generators:
        raise ComplexError(f"apex {apex} is not a generator index")
    if not delta.faces:
        raise ComplexError("cannot cone the void complex")
    if delta.vertices >> apex & 1:
        raise ComplexError(f"apex {apex} already appears in the complex")
    grown = delta.faces + tuple(face | 1 << apex for face in delta.faces)
    return LabeledComplex(delta.ideal, sorted(grown, key=_face_key))


def generator_index_map(source: MonomialIdeal, target: MonomialIdeal) -> dict[int, int]:
    """Map generator indices of source to indices of equal-support generators of target.

    Works across universes that agree on the variables the source uses (the
    leaf-glued ideal extends the universe without renumbering).
    """
    lookup = {g: j for j, g in enumerate(target.generator_masks)}
    mapping = {}
    for i, g in enumerate(source.generator_masks):
        if g not in lookup:
            raise ComplexError(
                f"generator {source.universe.render(g)} has no counterpart in the target"
            )
        mapping[i] = lookup[g]
    return mapping


def fields_disagree(report: ScarfReport) -> bool:
    """True when the report's fields do not all give the same Scarf answer."""
    return len({verdict != VERDICT_NOT_SCARF for _, verdict in report.verdicts}) > 1


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


def connected_induced_subsets(graph: SimpleGraph, k: int) -> tuple[tuple[int, ...], ...]:
    """All k-element vertex sets whose induced subgraph is connected, sorted;
    the generators of the connected ideal, found by testing every k-subset."""
    if not 1 <= k <= graph.n:
        raise GraphError(f"subset size {k} out of range 1..{graph.n}")
    found = []
    for combo in itertools.combinations(range(graph.n), k):
        mask = 0
        for v in combo:
            mask |= 1 << v
        if _connected_within(graph.adjacency, mask):
            found.append(combo)
    return tuple(found)


def path_vertex_sets(graph: SimpleGraph, t: int) -> tuple[tuple[int, ...], ...]:
    """Distinct vertex sets realizable as a simple path on t vertices, sorted;
    the generators of the path ideal.  A state is a path's last vertex and
    its sorted vertices, which is all that its extensions depend on; the
    states of the one-vertex paths are extended t - 1 times."""
    if t < 2:
        raise GraphError("paths of interest have at least two vertices")
    states = {(v, (v,)) for v in range(graph.n)}
    for _ in range(t - 1):
        states = {
            (nxt, tuple(sorted(used + (nxt,))))
            for last, used in states
            for nxt in _bits(graph.adjacency[last])
            if nxt not in used
        }
    return tuple(sorted({used for _, used in states}))


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
                for u in _bits(graph.adjacency[v]):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        best = max(best, max(dist.values()))
    return best


@lru_cache(maxsize=None)
def catalog_forms(n: int) -> tuple:
    """(tag, canonical form) of each member of `family_catalog(n)`, in order;
    the forms are computed at n itself, past the default cap."""
    return tuple((tag, canonical_form(member, n)) for tag, member in family_catalog(n))


def matches_special_tree_family(graph: SimpleGraph) -> bool:
    """Tree families of the degree-4 path classification (no triangle member)."""
    form = canonical_form(graph, graph.n)
    return any(
        tag.kind in SPECIAL_TREE_FAMILY_KINDS and member_form == form
        for tag, member_form in catalog_forms(graph.n)
    )


def recognize_family(graph: SimpleGraph):
    """The most specific family tag whose member is isomorphic to the graph,
    or None: the first of `graphs._family_tags`, as reports print it."""
    tags = graphs._family_tags(graph)
    return tags[0] if tags else None


def recognize_family_linear(graph: SimpleGraph):
    """`recognize_family` by scanning `family_catalog` in order."""
    form = canonical_form(graph, graph.n)
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


def minimal_subgraphs(bad: list[SimpleGraph]) -> list[SimpleGraph]:
    """The graphs of `bad` (distinct classes) that contain no other one of
    them as a subgraph, by pairwise containment search over all of them.
    Only a graph with fewer vertices, or as many and fewer edges, can be a
    proper subgraph."""
    return [
        graph
        for graph in bad
        if not any(
            (other.n, other.num_edges) < (graph.n, graph.num_edges)
            and contains_subgraph(graph, other)
            for other in bad
        )
    ]


def order_bits_bytewise(adjacency: Sequence[int], order: Sequence[int]) -> bytes:
    """`graphs._order_bits` with one byte per bit, first bit first."""
    bits = bytearray()
    for j in range(1, len(order)):
        row = adjacency[order[j]]
        for i in range(j):
            bits.append((row >> order[i]) & 1)
    return bytes(bits)


def graph6_edges_bytewise(data: bytes) -> list[tuple[int, int]]:
    """The edges (i, j), i < j, sorted, of well-formed graph6 bytes with no
    header, read one bit at a time: bit k of the string is the k-th pair of
    (0, 1), (0, 2), (1, 2), (0, 3), ...; the padding bits are ignored."""
    n = data[0] - 63
    bits = [(byte - 63) >> shift & 1 for byte in data[1:] for shift in range(5, -1, -1)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return sorted(pair for pair, bit in zip(pairs, bits) if bit)


def to_adjacency_text(graph: SimpleGraph) -> str:
    """`graphs._edge_text` of the graph's rows, rendered from its sorted
    `edges` tuple."""
    parts = ", ".join(f"{u}-{v}" for u, v in graph.edges)
    return f"n={graph.n}; edges: {parts}" if parts else f"n={graph.n}; edges:"


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


def reduced_betti_all_ranks(delta: LabeledComplex, field: FieldSpec) -> HomologyProfile:
    """`homology.reduced_betti` with every boundary map built and ranked,
    the augmentation row ∂_0 included; the complex needs a vertex."""
    ranks = [matrix_rank(boundary_matrix(delta, i), field) for i in range(delta.dim + 1)] + [0]
    counts = delta.f_vector()
    betti = tuple(counts[i] - ranks[i] - ranks[i + 1] for i in range(delta.dim + 1))
    return HomologyProfile(field=field, betti_minus_one=1 - ranks[0], betti=betti)


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


def deletion_parents(n: int, trees_only: bool = False) -> tuple[tuple[int, ...], ...]:
    """Per representative of `enumerate_connected_graphs(n)` (or of
    `enumerate_trees(n)`), the sorted indices of the (n-1)-representatives
    isomorphic to G - u for a non-cut vertex u of G; empty for n = 1.  They
    are the parents the enumeration records (`graphs._extend_by_vertex`),
    mapped into the levels the enumerators sort by canonical form, through
    the forms of levels n and n-1.  n is checked against that enumerator's
    default cap before any level runs."""
    _check_level_size(n, trees_only)
    below = []
    if n > 1:
        below = [canonical_form(g, n - 1) for g in graphs._level(n - 1, trees_only)[0]]
    position = {form: i for i, form in enumerate(sorted(below))}
    reps, parents = graphs._level(n, trees_only)
    return tuple(
        mapped
        for _, mapped in sorted(
            (canonical_form(g, n), tuple(sorted(position[below[p]] for p in ps)))
            for g, ps in zip(reps, parents)
        )
    )


def extend_by_vertex_all_masks(
    reps: tuple[SimpleGraph, ...], neighbour_masks: Sequence[int]
) -> tuple[tuple[SimpleGraph, ...], tuple[tuple[int, ...], ...]]:
    """`graphs._extend_by_vertex` with every mask for every representative,
    no twin-orbit pruning, and its classes canonically labelled and sorted
    by form, as the enumerators return them."""
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
    face: int,
    glued: MonomialIdeal,
    base: MonomialIdeal,
    x: int,
    x_prime: int,
) -> int:
    """Replace every generator x'*n by x*n inside a face (a mask) of the
    glued side and return the resulting face mask over the base ideal
    (duplicates collapse)."""
    x_bit = 1 << x
    x_prime_bit = 1 << x_prime
    base_lookup = {g: i for i, g in enumerate(base.generator_masks)}
    if not 0 <= face < 1 << glued.num_generators:
        raise ComplexError(f"face mask {face} references a missing generator")
    out = 0
    for index in _bits(face):
        mask = glued.generator_masks[index]
        if mask & x_prime_bit:
            mask = (mask & ~x_prime_bit) | x_bit
        if mask not in base_lookup:
            raise ComplexError("bar image is not a generator of the base ideal")
        out |= 1 << base_lookup[mask]
    return out


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
            degrees = sorted(g.bit_count() for g in ideal.generator_masks if g & bit)
            rows.append(tuple(degrees))
        return rows

    prof_a, prof_b = profile(a), profile(b)
    if sorted(prof_a) != sorted(prof_b):
        return False
    targets_b = set(b.generator_masks)
    order = sorted(range(size), key=lambda v: (prof_a[v], v))
    assignment = [-1] * size

    def gens_consistent(partial_done: int) -> bool:
        decided = [v for v in order[:partial_done]]
        decided_mask = 0
        for v in decided:
            decided_mask |= 1 << v
        for g in a.generator_masks:
            if g & ~decided_mask:
                continue
            image = 0
            for v in (i for i in decided if g & (1 << i)):
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
    vertices = len(delta.faces_of_size(1))
    if not vertices:
        return False
    if len(faces) == 1 << vertices:
        return True
    position = {face: i for i, face in enumerate(faces)}
    facets = [
        [position[face ^ 1 << k] for k in _bits(face)] if face.bit_count() > 1 else []
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


def strong_collapses_bruteforce(delta: LabeledComplex) -> bool:
    """`homology.facets_collapse_to_point` from the definition, on the face
    list: while two or more vertices are left, delete a vertex v, with every
    face containing it, when some other vertex w dominates it (every face
    containing v is still a face with w added); True when one vertex is
    left, False when none is dominated or the complex has no vertex.  As
    {v} contains v, a dominating w makes {v, w} a face, so only such w are
    tried."""
    faces = set(delta.faces)
    vertices = list(_bits(delta.vertices))
    while len(vertices) > 1:
        for v in vertices:
            star = [face for face in faces if face >> v & 1]
            if any(
                all(face | 1 << w in faces for face in star)
                for w in vertices if w != v and 1 << v | 1 << w in faces
            ):
                faces.difference_update(star)
                vertices.remove(v)
                break
        else:
            return False
    return len(vertices) == 1


def betti_numbers_bruteforce(
    ideal: MonomialIdeal, field: FieldSpec, max_generators: int = DEFAULT_TAYLOR_CAP
) -> tuple[int, ...]:
    """The total Betti numbers beta_1, beta_2, ... of S/I over the field,
    up to the last nonzero one, from the Taylor complex T of the ideal.

    T is a free resolution of S/I, so beta_{i,m} is the dimension of the
    homology, at its faces of size i, of T tensored with the field in
    multidegree m, which keeps the faces labelled exactly m.  That is the
    relative homology H_{i-1}(T_{<=m}, T_{<m}), with T_{<=m} the faces whose
    label divides m and T_{<m} those whose label also is not m.  T_{<=m} is
    a full simplex, so this is reduced H_{i-2}(T_{<m}) (Gasharov, Peeva and
    Welker, 1999; Miller and Sturmfels, Combinatorial commutative algebra,
    2005).  Only lattice points label faces.  At a generator m, T_{<m} is
    {∅} and beta_{1,m} = 1; elsewhere T_{<m} holds every generator dividing
    m, so it has a vertex.  ComplexError above max_generators generators."""
    taylor = taylor_complex(ideal, max_generators)
    generators = set(ideal.generator_masks)
    betti = [0] * (ideal.num_generators + 1)
    for m in lcm_lattice(ideal):
        if m in generators:
            betti[1] += 1
            continue
        below = LabeledComplex(ideal, [
            face for face, label in zip(taylor.faces, taylor.label_masks)
            if not label & ~m and label != m
        ])
        for i, count in enumerate(reduced_betti(below, field).betti, start=2):
            betti[i] += count
    while betti and not betti[-1]:
        betti.pop()
    return tuple(betti[1:])


def random_ideal(
    rng: random.Random, variables: tuple[int, int] = (3, 6), masks: tuple[int, int] = (2, 6)
) -> MonomialIdeal:
    """A minimalized ideal of random nonzero masks, their number and the
    number of variables each drawn from an inclusive range."""
    d = rng.randint(*variables)
    universe = VariableUniverse.of_size(d)
    gens = []
    for _ in range(rng.randint(*masks)):
        mask = 0
        for v in range(d):
            if rng.random() < 0.5:
                mask |= 1 << v
        if mask:
            gens.append(mask)
    return minimalize(gens, universe=universe)


def maximal_sets(masks: Iterable[int]) -> set[int]:
    """The masks that lie in no other mask: for the faces of a complex, its
    facets."""
    masks = set(masks)
    return {m for m in masks if not any(m != other and m & other == m for other in masks)}


def cliques_bruteforce(neighbours: Sequence[int]) -> set[int]:
    """Every clique, the empty one included, of the graph with these
    neighbour masks, by testing every vertex subset."""
    n = len(neighbours)
    return {
        mask for mask in range(1 << n)
        if all(neighbours[u] >> v & 1 for u, v in itertools.combinations(_bits(mask), 2))
    }


def is_flag(delta: LabeledComplex) -> bool:
    """Whether delta is the clique complex of its 1-skeleton."""
    neighbours = [0] * delta.ideal.num_generators
    for face in delta.faces_of_size(2):
        u, v = _bits(face)
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u
    return delta.face_set == cliques_bruteforce(neighbours)


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
    keeping those whose label no other subset shares, and the empty face.

    The empty face is kept also for the unit ideal, where the one
    generator 1 shares its label: a complex here holds the empty face
    unless it is void, and `scarf_complex` gives the unit ideal the complex
    whose one face is the empty face."""
    q = ideal.num_generators
    if q > max_generators:
        raise ComplexError(f"brute-force Scarf capped at {max_generators} generators")
    by_label: dict[int, list[tuple[int, ...]]] = {}
    for size in range(q + 1):
        for combo in itertools.combinations(range(q), size):
            mask = 0
            for i in combo:
                mask |= ideal.generator_masks[i]
            by_label.setdefault(mask, []).append(combo)
    return complex_from_faces(
        ideal, (group[0] for group in by_label.values() if len(group) == 1 or not group[0])
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
            restricted = delta.restrict(m)
            for field in fields:
                if verdicts[field] == VERDICT_SCARF:
                    profile = reduced_betti(restricted, field)
                    if not profile.is_acyclic:
                        verdicts[field] = VERDICT_NOT_SCARF
                        witnesses.append((field, m, profile))
    return ScarfReport(
        ideal=ideal,
        verdicts=tuple((f, verdicts[f]) for f in fields),
        witnesses=tuple(witnesses),
        num_scarf_faces=len(delta.faces),
        num_lattice_points=len(lcm_lattice(ideal)),
    )


def is_scarf_full_scan(ideal: MonomialIdeal, fields=DEFAULT_FIELDS) -> ScarfReport:
    """`analysis.is_scarf` without the orbit skip: the same lattice scan
    and collapse test, at every lattice point."""
    fields = tuple(fields)
    delta = scarf_complex(ideal)
    lattice = lcm_lattice(ideal)
    witnesses = []
    if ideal.num_generators <= 1:
        verdicts = dict.fromkeys(fields, VERDICT_TRIVIALLY_SCARF)
    else:
        alive = list(fields)
        verdicts = {}
        answers: dict[int, bool] = {}
        for point in lattice:
            if not alive:
                break
            for field, profile in _failing_fields(delta, point, alive, answers):
                verdicts[field] = VERDICT_NOT_SCARF
                witnesses.append((field, point, profile))
                alive.remove(field)
        verdicts.update(dict.fromkeys(alive, VERDICT_SCARF))
    return ScarfReport(
        ideal=ideal,
        verdicts=tuple((f, verdicts[f]) for f in fields),
        witnesses=witnesses,
        num_scarf_faces=len(delta.faces),
        num_lattice_points=len(lattice),
    )


def swap_fixes_generators(ideal: MonomialIdeal, x: int, y: int) -> bool:
    """Whether exchanging variables x and y maps the generator set onto itself."""
    def swapped(g: int) -> int:
        return g & ~(1 << x | 1 << y) | (g >> x & 1) << y | (g >> y & 1) << x

    return {swapped(g) for g in ideal.generator_masks} == set(ideal.generator_masks)


def degree_t_ideals(t: int) -> list[MonomialIdeal]:
    """Every ideal generated by a subset of the t+1 square-free monomials of
    degree t in t+1 variables, 2^(t+1) of them."""
    universe = VariableUniverse.of_size(t + 1)
    full = (1 << (t + 1)) - 1
    gens = [full & ~(1 << i) for i in range(t + 1)]
    return [
        MonomialIdeal(universe, tuple(sorted(combo)))
        for size in range(t + 2)
        for combo in itertools.combinations(gens, size)
    ]


def is_polygon_boundary(delta: LabeledComplex, sides: int) -> bool:
    """Exactly `sides` vertices and edges forming one closed cycle, nothing else."""
    if delta.f_vector() != (sides, sides):
        return False
    edges = delta.faces_of_size(2)
    degrees = Counter(v for edge in edges for v in _bits(edge))
    if len(degrees) != sides or any(d != 2 for d in degrees.values()):
        return False
    adjacency: dict[int, set[int]] = {v: set() for v in degrees}
    for u, v in map(_bits, edges):
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
