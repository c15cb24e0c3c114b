"""Finite simple graphs at desk scale.

A graph is its adjacency rows: vertices are 0..n-1, bit u of row v is set
when u and v are joined, and edges and degrees are read off the rows.  The
module covers exactly what the ideal constructions and the classification
sweeps need: connectivity of a vertex set, canonical forms, the named graph
families (paths, cycles, stars, triangles with pendant leaves, double
brooms, spiders), subgraph containment, graph6 and adjacency-list input and
output, and JSON input.

Canonical forms are exact: colour refinement first, then minimisation of the
graph6 bit string over the colour-respecting orderings by a pruned depth-first
search, branching through individualisation when the colour classes allow too
many orderings.  Colour refinement splits classes by neighbour counts per
class, read off as bit counts.  The brute-force all-permutations form is a
test oracle in `tests/reference.py`.  A bit string is one integer, first bit
highest; all strings of one n have the same length, so integers compare as
strings.

A colouring whose every colour class lies inside one twin class (vertices
with the same neighbours apart from each other) is *twin-trivial*: every
colour-respecting permutation is then a product of twin swaps, and so an
automorphism.  Its canonical form is read off the colour order with no
search.

Connected graphs and trees are enumerated by adding one vertex at a time,
one cached level per n.  A candidate is a representative's rows, with the new
vertex's bit set in those it joins, plus the new vertex's mask.  Each
representative gets one mask per orbit under the permutations inside its
twin classes, the mask that picks the lowest-numbered members of every
class, so no class and no parent is lost; the canonical-form search prunes
by the same twin classes.  The enumeration also records, for
each class, the classes of its one-vertex deletions that stay connected.
Classes are told apart without canonical forms: every candidate is filed by
a cheap isomorphism invariant (its sorted vertex labels, degree and
neighbour-degree sum), and it joins the class it matches by an exact
isomorphism test against a plan stored once per class, or opens a new one.
A level holds its classes in the order found, each labelled as its first
candidate.  The public enumerators are a view of one level each: its
representatives relabelled by their canonical forms, so `to_graph6` of each
is its form, and sorted by form; the view keeps no parents and
canonicalises no other level.  Sweeps and derivations walk the levels
themselves and canonicalise only the graphs they print.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, lru_cache

DEFAULT_CANONICAL_CAP = 10
DEFAULT_ENUMERATION_CAP = 7
DEFAULT_TREE_CAP = 10
DEFAULT_EMBEDDING_CAP = 12
_ORDERING_ENUM_LIMIT = 20000
# Vertex sets are bit masks and graph6 here has only the one-byte size
# header, so a graph has at most 62 vertices.  SimpleGraph checks this, and
# `from_edges` checks it before it reads an edge; the family builders hand
# their edges over lazily, so no input can ask for a huge graph.
MAX_VERTICES = 62


class GraphError(ValueError):
    pass


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_set = object.__setattr__


class _Frozen:
    """Base of the value types: immutable, and equal, hashed and shown by
    the per-class tuple `_fields` of field names.  Each subclass's
    `__init__` validates its arguments and stores each field with `_set`.

    It does what `@dataclass(frozen=True)` did, without its import cost:
    `dataclasses` loads `inspect` (and with it `ast`, `dis` and
    `tokenize`), and each decorated class `exec`s its generated methods,
    which made up most of the time to import `scarflab.cli`.  The
    constructors are written out per class because some run thousands of
    times per command.  Instances keep a `__dict__`, which
    `functools.cached_property` writes to directly."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class SimpleGraph(_Frozen):
    """Undirected simple graph on vertices 0..n-1, stored as its adjacency
    rows: bit u of `adjacency[v]` is set when u and v are joined."""

    _fields = ("adjacency",)

    def __init__(self, adjacency: Sequence[int]) -> None:
        adjacency = tuple(adjacency)
        n = len(adjacency)
        _check_vertex_count(n)
        for v, row in enumerate(adjacency):
            if row >> n:  # a negative row too; before any row is indexed by a bit
                raise GraphError(f"row {v} has a vertex outside 0..{n - 1}")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v} not allowed")
            bit = 1 << v
            while row:  # `_bits` inlined: every new enumeration class runs this
                low = row & -row
                if not adjacency[low.bit_length() - 1] & bit:
                    raise GraphError(f"row {v} is not symmetric")
                row ^= low
        _set(self, "adjacency", adjacency)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "SimpleGraph":
        """n is checked before any edge is read, each endpoint before it is shifted."""
        _check_vertex_count(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"bad edge ({u}, {v}) for {n} vertices")
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(tuple(rows))

    @property
    def n(self) -> int:
        return len(self.adjacency)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edges as pairs (u, v) with u < v, sorted."""
        return tuple((u, v) for u, row in enumerate(self.adjacency) for v in _bits(row >> u << u))

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adjacency)

    @property
    def num_edges(self) -> int:
        return sum(self.degrees) // 2

    @cached_property
    def _form(self) -> bytes:
        """`canonical_form` of the graph under its default cap, computed at
        most once: `classify` reads an input's form for its family tags, and
        the CLI reports the same form."""
        return canonical_form(self)


def _check_vertex_count(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"a graph has 0 to {MAX_VERTICES} vertices, not {n}")


def path_graph(r: int) -> SimpleGraph:
    if r < 1:
        raise GraphError("a path needs at least one vertex")
    return SimpleGraph.from_edges(r, ((i, i + 1) for i in range(r - 1)))


def cycle_graph(r: int) -> SimpleGraph:
    if r < 3:
        raise GraphError("a cycle needs at least three vertices")
    return SimpleGraph.from_edges(r, ((i, (i + 1) % r) for i in range(r)))


def star_graph(k: int) -> SimpleGraph:
    """Star with k leaves attached to the centre vertex 0; k = 0 is a single vertex."""
    if k < 0:
        raise GraphError("leaf count must be nonnegative")
    return SimpleGraph.from_edges(k + 1, ((0, i) for i in range(1, k + 1)))


def triangle_with_leaves(k: int) -> SimpleGraph:
    """Triangle 0-1-2 with k pendant leaves, all attached to vertex 0."""
    if k < 0:
        raise GraphError("leaf count must be nonnegative")
    leaves = ((0, 3 + i) for i in range(k))
    return SimpleGraph.from_edges(3 + k, itertools.chain([(0, 1), (0, 2), (1, 2)], leaves))


def _spine_with_leaves(spine_len: int, attach: dict[int, int]) -> SimpleGraph:
    """Leaves get the vertices after the spine, those of the lowest spine vertex first."""
    spine = ((i, i + 1) for i in range(spine_len - 1))
    hubs = itertools.chain.from_iterable(
        itertools.repeat(v, attach[v]) for v in sorted(attach)
    )
    leaves = zip(hubs, itertools.count(spine_len))
    return SimpleGraph.from_edges(
        spine_len + sum(attach.values()), itertools.chain(spine, leaves)
    )


def broom3_graph(m: int, n: int) -> SimpleGraph:
    """Path on three spine vertices with m pendant leaves at one end, n at the other."""
    if m < 0 or n < 0:
        raise GraphError("leaf counts must be nonnegative")
    return _spine_with_leaves(3, {0: m, 2: n})


def broom4_graph(m: int, n: int) -> SimpleGraph:
    """Path on four spine vertices with m pendant leaves at one end, n at the other."""
    if m < 0 or n < 0:
        raise GraphError("leaf counts must be nonnegative")
    return _spine_with_leaves(4, {0: m, 3: n})


def spider5_graph(m: int, n: int, p: int) -> SimpleGraph:
    """Path on five spine vertices with leaves at the ends (m, p) and the middle (n)."""
    if m < 0 or n < 0 or p < 0:
        raise GraphError("leaf counts must be nonnegative")
    return _spine_with_leaves(5, {0: m, 2: n, 4: p})


def spider6_graph(m: int, n: int, p: int) -> SimpleGraph:
    """Path on six spine vertices with leaves at the ends (m, p) and at the third
    spine vertex from the m end (n).  The family is closed under reversing the
    spine, so the third-versus-fourth attachment choice does not change the set
    of graphs it generates."""
    if m < 0 or n < 0 or p < 0:
        raise GraphError("leaf counts must be nonnegative")
    return _spine_with_leaves(6, {0: m, 2: n, 5: p})


class FamilyTag(_Frozen):
    _fields = ("kind", "params")

    def __init__(self, kind: str, params: Sequence[int]) -> None:
        _set(self, "kind", kind)
        _set(self, "params", tuple(params))

    def render(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}({', '.join(str(p) for p in self.params)})"

    def __str__(self) -> str:
        return self.render()


# kind -> (builder, vertices outside the parameters, parameter count), in
# recognition priority when a graph lies in several families at once.
_FAMILIES = {
    "path": (path_graph, 0, 1),
    "cycle": (cycle_graph, 0, 1),
    "star": (star_graph, 1, 1),
    "triangle": (triangle_with_leaves, 3, 1),
    "broom3": (broom3_graph, 3, 2),
    "broom4": (broom4_graph, 4, 2),
    "spider5": (spider5_graph, 5, 3),
    "spider6": (spider6_graph, 6, 3),
}


def make_family(tag: FamilyTag) -> SimpleGraph:
    if tag.kind not in _FAMILIES:
        raise GraphError(f"unknown family kind {tag.kind!r}")
    builder, _, count = _FAMILIES[tag.kind]
    if len(tag.params) != count:
        raise GraphError(f"family {tag.kind} takes {count} parameters, got {len(tag.params)}")
    return builder(*tag.params)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def family_catalog(n: int) -> tuple[tuple[FamilyTag, SimpleGraph], ...]:
    """All family members with exactly n vertices, in recognition priority
    order: each kind's parameters are the compositions of the vertices
    outside them.  Every family needs a vertex, and a cycle three."""
    return tuple(
        (FamilyTag(kind, params), builder(*params))
        for kind, (builder, outside, count) in _FAMILIES.items()
        if n >= max(outside, 3 if kind == "cycle" else 1)
        for params in _compositions(n - outside, count)
    )


@lru_cache(maxsize=None)
def _family_index(n: int) -> dict[bytes, tuple[FamilyTag, ...]]:
    """Canonical form -> every tag of `family_catalog(n)` with it, in catalog
    order."""
    index: dict[bytes, tuple[FamilyTag, ...]] = {}
    for tag, member in family_catalog(n):
        form = canonical_form(member, n)
        index[form] = index.get(form, ()) + (tag,)
    return index


def _family_tags(graph: SimpleGraph) -> tuple[FamilyTag, ...]:
    """Every tag of `family_catalog(graph.n)` whose member is isomorphic to
    the graph, most specific first; one lookup in a per-size index of the
    catalog's canonical forms.  The graph's own form comes first, so a graph
    past the canonical-form cap fails on it before any catalog is built."""
    form = graph._form
    return _family_index(graph.n).get(form, ())


def recognize_family(graph: SimpleGraph) -> FamilyTag | None:
    """Most specific family tag whose member is isomorphic to the graph, or None."""
    tags = _family_tags(graph)
    return tags[0] if tags else None


def _connected_within(adjacency: Sequence[int], subset_mask: int) -> bool:
    """Whether `subset_mask` is a nonempty vertex set whose induced subgraph
    is connected: a search from its lowest vertex reaches all of it."""
    visited = frontier = subset_mask & -subset_mask
    while frontier:  # `_bits` inlined: `ideals.build_ideal` runs this per vertex set
        low = frontier & -frontier
        frontier ^= low
        reached = adjacency[low.bit_length() - 1] & subset_mask & ~visited
        visited |= reached
        frontier |= reached
    return bool(visited) and visited == subset_mask


def is_connected(graph: SimpleGraph) -> bool:
    if graph.n == 0:
        return False
    return _connected_within(graph.adjacency, (1 << graph.n) - 1)


# ---------------------------------------------------------------------------
# canonical forms


def _refine_colors(adjacency: Sequence[int], colors: list[int]) -> list[int]:
    """Split colour classes by how many neighbours each vertex has in each
    class until stable; the result numbers the classes by the rank of their
    signatures.

    Vertex v's signature is `(colour, (-|N(v) & C| for each class C in colour
    order))`.  *Precondition:* all vertices of one colour have the same
    degree.  The degree colouring has this property, so does every
    refinement of a colouring that has it, and so does an individualised
    branch of one (`_canonical_bits` splits a class in two), which covers
    every call.  Under it the ranking is the one of the plain signature
    `(colour, sorted neighbour colours)`, so every colouring, and every
    canonical form, is the same as with that signature.  Signatures of
    different colours compare by colour either way.  Two vertices of one
    colour have neighbour-colour multisets A and B of the same size d; they
    are equal exactly when the counts are.  Otherwise let c be the smallest
    colour whose counts differ, say A has more c's.  The sorted tuples agree
    on their first p entries, the colours below c and B's c's; A's entry p
    is c, and B's is larger (B has only p entries up to c, and p < d).  So
    sorted(A) < sorted(B), and the negated counts first differ at c with A's
    the smaller.  (Without the precondition this fails: (0,) < (0, 0), while
    one 0 negated exceeds two.)

    The result is a fixed point: `_refine_colors(adj, c) == c` when c is a
    returned colouring.  The last round kept the number of classes, and every
    signature starts with the vertex's old colour, so its classes are the old
    classes, each with one vector of neighbour counts.  c renames those
    classes, keeping their order, so a further round again finds one
    signature per class and keeps the count.  Its signatures start with
    c[v], which is distinct per class, so ranking them sorts the classes by c
    and gives each class the rank c[v] back.

    Two shortcuts give the same result.  A vertex alone in its class gets
    the signature `(colour, ())`: signatures of different colours compare by
    colour, and no other vertex shares its colour, so its counts never
    decide a comparison.  A discrete colouring (n classes) cannot split, so
    the round's ranking is the ranking of the colours themselves, which is
    returned at once.
    """
    while True:
        members: dict[int, int] = {}
        for v, c in enumerate(colors):
            members[c] = members.get(c, 0) | 1 << v
        order = sorted(members)
        if len(order) == len(colors):
            rank = {c: i for i, c in enumerate(order)}
            return [rank[c] for c in colors]
        class_masks = [members[c] for c in order]
        signatures = [
            (c, tuple([-(row & mask).bit_count() for mask in class_masks])
             if members[c] != 1 << v else ())
            for v, (c, row) in enumerate(zip(colors, adjacency))
        ]
        ranking = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new_colors = [ranking[sig] for sig in signatures]
        if len(ranking) == len(class_masks):
            return new_colors
        colors = new_colors


def _twin_classes(adjacency: Sequence[int]) -> list[list[int]]:
    """The classes of the twin relation, each in increasing order: v and w
    are twins when they have the same neighbours apart from each other.

    Twinness is an equivalence relation.  Write v ~ w when they are twins.
    If v ~ w and w ~ x (v, w, x distinct), the two pairs are both edges or
    both non-edges.  Were v-w an edge and w-x not, x would not be a
    neighbour of w, so not of v (v ~ w); yet v is a neighbour of w, so of x
    (w ~ x).  Adjacent twins have N[v] = N[w] and non-adjacent ones
    N(v) = N(w), and each of those is transitive.  So a class is a clique or
    an independent set whose members have the same neighbours outside it,
    and every permutation of a class that fixes the other vertices is an
    automorphism.  Testing against a class's first member suffices.
    """
    classes: list[list[int]] = []
    for v, row in enumerate(adjacency):
        for members in classes:
            first = members[0]
            if adjacency[first] & ~(1 << v) == row & ~(1 << first):
                members.append(v)
                break
        else:
            classes.append([v])
    return classes


def _order_bits(adjacency: Sequence[int], order: Sequence[int]) -> int:
    """The graph6 bit string of the graph relabelled so that `order[k]`
    becomes k, first bit highest: for j = 1, 2, ..., the adjacencies of
    `order[j]` to `order[0..j-1]`."""
    bits = 0
    for j in range(1, len(order)):
        row = adjacency[order[j]]
        for i in range(j):
            bits = (bits << 1) | (row >> order[i] & 1)
    return bits


def _color_classes(colors: Sequence[int]) -> list[list[int]]:
    classes: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        classes.setdefault(c, []).append(v)
    return [classes[c] for c in sorted(classes)]


def _min_bits_over_classes(
    adjacency: Sequence[int], classes: list[list[int]], twin: dict[int, int]
) -> int:
    """Smallest `_order_bits` over the orderings that list the classes in turn,
    each class in any order; a depth-first search that returns the same
    minimum as trying every such ordering.  `twin[v]` numbers v's class of
    `_twin_classes`.

    The bit string is row 1, row 2, ..., where row j holds the adjacencies of
    `order[j]` to `order[0..j-1]`, so row j depends only on `order[:j+1]` and
    strings compare row by row.  The search therefore drops three kinds of
    subtree, none of which holds an ordering smaller than one it keeps:

    - *Smallest row.*  At depth j every completion of `prefix + [v]` starts
      with the same rows, so among the unused vertices of slot j's class only
      those whose row j is smallest can lead to the minimum.
    - *Prefix cut.*  While the prefix equals the best string's prefix, a
      vertex whose row j exceeds the best's row j only has larger
      completions.  Once a prefix is strictly smaller, no later row of it is
      compared.
    - *Twins.*  Unused twins v and w of one class (`twin[v] == twin[w]`)
      are swapped by an automorphism that fixes every other
      vertex, so it fixes the prefix and maps the colour-respecting
      completions of `prefix + [v]` onto those of `prefix + [w]` with equal
      bits; exploring one vertex per twin class is enough.

    Row j, read as a j-bit number, is the string's next j bits, so the best
    rows concatenate to the result.
    """
    n = len(adjacency)
    slot_class = [c for c in classes for _ in c]
    rows: list[int] = []
    best_rows: list[int] = []

    def search(depth: int, row_of: list[int], unused: int, less: bool) -> bool:
        """Explore below the prefix whose rows are `rows`; `row_of[v]` is v's
        row against the prefix read as a binary number, and `less` says the
        prefix is strictly smaller than the best one (or no best exists).
        True if the best changed."""
        if depth == n:
            if less:
                best_rows[:] = rows
            return less
        candidates = [v for v in slot_class[depth] if unused >> v & 1]
        low = min(row_of[v] for v in candidates)
        if not less:
            if low > best_rows[depth]:
                return False
            less = low < best_rows[depth]
        replaced = False
        explored: set[int] = set()
        for v in candidates:
            if row_of[v] != low or twin[v] in explored:
                continue
            explored.add(twin[v])
            rows.append(low)
            child_rows = [(r << 1) | (a >> v & 1) for r, a in zip(row_of, adjacency)]
            if search(depth + 1, child_rows, unused & ~(1 << v), less):
                # The new best runs through this prefix, so it is no longer smaller.
                replaced, less = True, False
            rows.pop()
        return replaced

    search(0, [0] * n, (1 << n) - 1, True)
    bits = 0
    for j, row in enumerate(best_rows):
        bits = (bits << j) | row
    return bits


def _canonical_bits(adjacency: Sequence[int], colors: list[int], twin: dict[int, int]) -> int:
    """Smallest `_order_bits` over the orderings that respect the refined
    colouring of `colors`, by search or, above `_ORDERING_ENUM_LIMIT`
    orderings, as the minimum over the branches that individualise each
    vertex of the first nontrivial class.  `twin[v]` numbers v's class of
    `_twin_classes`; the search and every branch read this one partition.

    *Twin-trivial shortcut.*  When every colour class lies inside one twin
    class, any two colour-respecting orderings differ by a permutation of
    each colour class, and so of each twin class, with the other vertices
    fixed.  Each such permutation is an automorphism (`_twin_classes`), so
    every colour-respecting ordering gives the same bits as the colour
    order, and that is the minimum.  It is also what the branches would
    return: a branch's refined colouring refines this one with its classes
    in the same order, so its orderings respect this colouring too.
    """
    colors = _refine_colors(adjacency, colors)
    classes = _color_classes(colors)
    if all(len({twin[v] for v in members}) == 1 for members in classes):
        return _order_bits(adjacency, [v for members in classes for v in members])
    total = 1
    for c in classes:
        total *= math.factorial(len(c))
        if total > _ORDERING_ENUM_LIMIT:
            break
    if total <= _ORDERING_ENUM_LIMIT:
        return _min_bits_over_classes(adjacency, classes, twin)
    target = next(c for c in classes if len(c) > 1)
    return min(
        _canonical_bits(adjacency, [c * 2 + (u != v) for u, c in enumerate(colors)], twin)
        for v in target
    )


def _pack_graph6(n: int, bits: int) -> bytes:
    """graph6 bytes of the n(n-1)/2-bit string `bits`: the size byte, then
    the string padded with zeros to whole groups of six, a byte per group;
    n <= MAX_VERTICES holds for every `SimpleGraph`."""
    length = n * (n - 1) // 2
    groups = (length + 5) // 6
    padded = bits << (6 * groups - length)
    return bytes([n + 63, *((padded >> (6 * k) & 63) + 63 for k in reversed(range(groups)))])


def canonical_form(graph: SimpleGraph, max_vertices: int = DEFAULT_CANONICAL_CAP) -> bytes:
    """Canonical graph6 bytes; equal exactly for isomorphic graphs."""
    if graph.n > max_vertices:
        raise GraphError(f"canonical form capped at {max_vertices} vertices")
    if graph.n == 0:
        raise GraphError("canonical form needs at least one vertex")
    # `_canonical_bits` refines the degree colouring itself; refining it here
    # first would change nothing, since refined colourings are fixed points.
    twin = {v: i for i, members in enumerate(_twin_classes(graph.adjacency)) for v in members}
    return _pack_graph6(graph.n, _canonical_bits(graph.adjacency, list(graph.degrees), twin))


def _canonical_copy(graph: SimpleGraph) -> SimpleGraph:
    """The graph relabelled by its canonical form, so `to_graph6` of the copy
    is `canonical_form(graph)`.  The form's cap is the graph's own size: the
    callers have checked theirs."""
    return parse_graph6(canonical_form(graph, graph.n).decode("ascii"))


# ---------------------------------------------------------------------------
# exhaustive enumeration


def _twin_orbit_masks(adjacency: Sequence[int], masks: Iterable[int]) -> list[int]:
    """One mask of `masks` per orbit under the permutations inside the twin
    classes of the graph, for a set of masks those permutations map onto
    itself: the masks that pick the lowest-numbered members of every class.

    Those permutations are automorphisms (`_twin_classes`).  Each keeps how
    many vertices a mask picks in each class, and any two masks with the same
    counts are mapped onto each other by one of them, so an orbit is fixed by
    the counts and holds exactly one *prefix mask*, the one that picks each
    class's lowest-numbered members.
    """
    checks = []
    for members in _twin_classes(adjacency):
        if len(members) > 1:
            # the masks of the c lowest-numbered members, c = 0..len(members)
            prefix = list(itertools.accumulate((1 << v for v in members), initial=0))
            checks.append((prefix[-1], set(prefix)))
    return [m for m in masks if all(m & whole in prefix for whole, prefix in checks)]


def _vertex_labels(rows: Sequence[int]) -> list[tuple[int, int]]:
    """Per vertex, its degree and the sum of its neighbours' degrees.  An
    isomorphism keeps both, so it maps each vertex to one with its label,
    and the sorted labels are an isomorphism invariant."""
    degrees = [row.bit_count() for row in rows]
    labels = []
    for row, degree in zip(rows, degrees):
        total = 0
        while row:  # `_bits` inlined: every enumeration candidate runs this
            low = row & -row
            total += degrees[low.bit_length() - 1]
            row ^= low
        labels.append((degree, total))
    return labels


def _match_plan(rows: Sequence[int], keys: Sequence) -> tuple[tuple[object, tuple[int, ...]], ...]:
    """The plan `_find_map` maps a graph by: per step, the key of the vertex
    placed there and the earlier steps that hold its neighbours.  The next
    vertex is the one with the most placed neighbours, then the highest
    degree, so in a connected graph every vertex after the first joins an
    earlier one."""
    n = len(rows)
    step = [0] * n
    plan = []
    placed = 0
    for k in range(n):
        best_v, best_key = -1, (-1, -1)
        for v in range(n):
            if placed >> v & 1:
                continue
            key = ((rows[v] & placed).bit_count(), rows[v].bit_count())
            if key > best_key:
                best_v, best_key = v, key
        plan.append((keys[best_v], tuple([step[u] for u in _bits(rows[best_v] & placed)])))
        step[best_v] = k
        placed |= 1 << best_v
    return tuple(plan)


def _find_map(
    plan: Sequence[tuple[object, tuple[int, ...]]],
    rows: Sequence[int],
    allowed: dict,
    induced: bool,
) -> bool:
    """True when the graph the plan was made from (`_match_plan`) maps
    injectively into the graph with these rows, each plan vertex to a vertex
    in `allowed[its key]` (a mask), keeping edges (and non-edges if
    `induced`).

    Step k maps the plan's k-th vertex to an unused allowed vertex g whose
    row, cut to the images of steps 0..k-1, equals (induced) or contains the
    images of the plan vertex's earlier neighbours; the search backtracks
    over every such g.  A full map checks every pair of plan vertices once,
    at the later of its two steps, so it is such a map.  Conversely such a
    map with allowed images meets every step's test, so the search, which
    tries every vertex passing the tests, finds it or another one.
    Requiring g to be a neighbour of the first earlier neighbour's image
    only drops vertices the row test would reject.
    """
    n = len(plan)
    image = [0] * n  # image[k]: the bit of step k's image

    def extend(k: int, used: int) -> bool:
        if k == n:
            return True
        key, earlier = plan[k]
        options = allowed.get(key, 0) & ~used
        want = 0
        if earlier:
            options &= rows[image[earlier[0]].bit_length() - 1]
            for j in earlier:
                want |= image[j]
        while options:
            bit = options & -options
            options ^= bit
            row = rows[bit.bit_length() - 1] & used
            if row == want if induced else row & want == want:
                image[k] = bit
                if extend(k + 1, used | bit):
                    return True
        return False

    return extend(0, 0)


def _class_index(classes: dict, firsts: list[tuple[int, ...]], rows: tuple[int, ...]) -> int:
    """The index in `firsts` of the class of the graph with these rows.
    `firsts` holds the rows of each class's first graph, in the order the
    classes were met, and `classes` maps the sorted `_vertex_labels` of each
    class to its (plan, index) pairs; a graph that matches no class opens a
    new one at the end of `firsts`.

    The sorted labels are an isomorphism invariant, so an isomorphic graph
    was filed under the same key, with as many vertices.  An induced map
    between graphs with as many vertices is an isomorphism, and an
    isomorphism keeps labels, so `_find_map` with each vertex allowed only
    the vertices of its own label decides isomorphism exactly.  No canonical
    form is computed.
    """
    labels = _vertex_labels(rows)
    found = classes.setdefault(tuple(sorted(labels)), [])
    if found:
        by_label: dict[tuple[int, int], int] = {}
        for v, label in enumerate(labels):
            by_label[label] = by_label.get(label, 0) | 1 << v
        for plan, index in found:
            if _find_map(plan, rows, by_label, True):
                return index
    found.append((_match_plan(rows, labels), len(firsts)))
    firsts.append(rows)
    return len(firsts) - 1


def _extend_by_vertex(
    reps: Sequence[SimpleGraph], neighbour_masks: Sequence[int]
) -> tuple[tuple[SimpleGraph, ...], tuple[tuple[int, ...], ...]]:
    """Join a new last vertex to each representative once per twin orbit of
    `neighbour_masks` and keep one graph per class, in the order the classes
    are found, each labelled as its first candidate.

    *Orbits.*  Of the masks, a representative P gets one per orbit under
    the permutations inside its twin classes (`_twin_orbit_masks`).  These
    permutations are automorphisms of P, and they form a subgroup of its
    automorphism group.  For an automorphism sigma of P, P + M and
    P + sigma(M) are isomorphic: sigma, fixing the new vertex, maps one onto
    the other.  The masks used here (all nonempty masks, or all one-bit
    masks) are closed under every permutation of P's vertices, so under the
    subgroup; every orbit of them keeps one mask, and each P still reaches
    every class it reached with all the masks.  The classes found and the
    parents below are therefore unchanged.  Masks in one orbit of the whole
    group but in different orbits of the subgroup give more than one
    candidate of a class, and `_class_index` files them under it exactly.

    Also returns, per class, the sorted indices into `reps` of the
    representatives whose candidates landed in it: its *parents*.  When
    `reps` are all connected classes on n-1 vertices and the masks are every
    nonempty mask (trees: every one-bit mask), the parents of a class G are
    exactly the classes of G - u over the non-cut vertices u of G (for a
    tree, its leaves).  A candidate P + v is connected and v has a nonempty
    neighbourhood, so v is a non-cut vertex and P = G - v.  Conversely, if u
    is non-cut, G - u is isomorphic to some representative P by a map phi,
    the mask of phi(N(u)) is nonempty (one bit when u is a leaf), and that
    candidate of P is isomorphic to G.

    *No forms.*  A candidate stays as rows, and `_class_index` files it;
    only a class's first candidate becomes a `SimpleGraph`.  The classes and
    parents are those of canonicalising every candidate; only their order
    and labelling differ.
    """
    classes: dict = {}
    firsts: list[tuple[int, ...]] = []
    parents: list[list[int]] = []
    for index, graph in enumerate(reps):
        rows, n = graph.adjacency, graph.n
        for mask in _twin_orbit_masks(rows, neighbour_masks):
            grown = (*(row | (mask >> u & 1) << n for u, row in enumerate(rows)), mask)
            k = _class_index(classes, firsts, grown)
            if k == len(parents):
                parents.append([index])
            elif parents[k][-1] != index:  # reps are visited in index order
                parents[k].append(index)
    return tuple(map(SimpleGraph, firsts)), tuple(map(tuple, parents))


def _check_level_size(n: int, trees_only: bool, max_vertices: int | None = None) -> None:
    """n must lie in 1..max_vertices, by default the cap of the enumerator
    trees_only picks; every caller checks before any level runs."""
    if max_vertices is None:
        max_vertices = DEFAULT_TREE_CAP if trees_only else DEFAULT_ENUMERATION_CAP
    if not 1 <= n <= max_vertices:
        kind = "tree enumeration" if trees_only else "enumeration"
        raise GraphError(f"{kind} supports 1..{max_vertices} vertices")


@lru_cache(maxsize=None)
def _level(
    n: int, trees_only: bool
) -> tuple[tuple[SimpleGraph, ...], tuple[tuple[int, ...], ...]]:
    """(representatives, parents) of the connected graphs on n vertices, or
    with trees_only of the trees, as `_extend_by_vertex` returns them from
    the level below: one graph per class, in the order found, and parents
    that index the level below in its own order.  No canonical form is
    computed."""
    if n == 1:
        return (SimpleGraph((0,)),), ((),)
    below = _level(n - 1, trees_only)[0]
    if trees_only:
        return _extend_by_vertex(below, [1 << v for v in range(n - 1)])
    return _extend_by_vertex(below, range(1, 1 << (n - 1)))


@lru_cache(maxsize=None)
def _canonical_level(n: int, trees_only: bool) -> tuple[SimpleGraph, ...]:
    """`_level(n, trees_only)`'s representatives as the public enumerators
    return them: each relabelled by its canonical form, so `to_graph6` of it
    is that form, and sorted by form.  Only this level is canonicalised."""
    return tuple(sorted(map(_canonical_copy, _level(n, trees_only)[0]), key=to_graph6))


def enumerate_connected_graphs(
    n: int, max_vertices: int = DEFAULT_ENUMERATION_CAP
) -> tuple[SimpleGraph, ...]:
    """One canonically labelled representative per connected isomorphism
    class, sorted by canonical form; `to_graph6` of each is its form.

    Extends each (n-1)-vertex representative by a vertex joined to every
    nonempty set of its vertices and keeps one graph per class.  This
    reaches every class: a connected graph on n >= 2 vertices has a vertex
    whose removal leaves it connected (a leaf of a spanning tree), so it is
    isomorphic to some connected (n-1)-vertex representative plus one vertex
    with a nonempty neighbourhood, which is one of the candidates.
    """
    _check_level_size(n, False, max_vertices)
    return _canonical_level(n, False)


def enumerate_trees(n: int, max_vertices: int = DEFAULT_TREE_CAP) -> tuple[SimpleGraph, ...]:
    """One representative per tree isomorphism class, by leaf extension: every
    tree on n >= 2 vertices is a smaller tree plus a leaf joined to one vertex.
    Sorted by canonical form, and `to_graph6` of each is its form."""
    _check_level_size(n, True, max_vertices)
    return _canonical_level(n, True)


# ---------------------------------------------------------------------------
# containment


def _embeds(
    host: SimpleGraph, pattern: SimpleGraph, induced: bool
) -> bool:
    if pattern.n > host.n or pattern.num_edges > host.num_edges:
        return False
    # An embedding maps each pattern vertex to a host vertex of at least its degree.
    allowed = {
        d: sum(1 << g for g, degree in enumerate(host.degrees) if degree >= d)
        for d in set(pattern.degrees)
    }
    plan = _match_plan(pattern.adjacency, pattern.degrees)
    return _find_map(plan, host.adjacency, allowed, induced)


def contains_subgraph(
    host: SimpleGraph, pattern: SimpleGraph, max_vertices: int = DEFAULT_EMBEDDING_CAP
) -> bool:
    """True if some (not necessarily induced) subgraph of host is isomorphic to pattern."""
    if host.n > max_vertices:
        raise GraphError(f"containment search capped at {max_vertices} vertices")
    return _embeds(host, pattern, induced=False)


def contains_induced(
    host: SimpleGraph, pattern: SimpleGraph, max_vertices: int = DEFAULT_EMBEDDING_CAP
) -> bool:
    """True if some induced subgraph of host is isomorphic to pattern.

    No production code calls it: the benchmark's layer trace
    (perfbench/spans.py) wraps it by name, so it stays until a benchmark
    change drops it from there and it moves to the tests."""
    if host.n > max_vertices:
        raise GraphError(f"containment search capped at {max_vertices} vertices")
    return _embeds(host, pattern, induced=True)


# ---------------------------------------------------------------------------
# input / output


def to_graph6(graph: SimpleGraph) -> str:
    return _pack_graph6(graph.n, _order_bits(graph.adjacency, range(graph.n))).decode("ascii")


def parse_graph6(text: str) -> SimpleGraph:
    data = text.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<"):]
    if not data:
        raise GraphError("empty graph6 string")
    values = [ord(ch) - 63 for ch in data]
    if any(v < 0 or v > 63 for v in values):
        raise GraphError(f"invalid graph6 characters in {text!r}")
    n = values[0]
    if n > 62:
        raise GraphError("graph6 support here stops at 62 vertices")
    need = (n * (n - 1) // 2 + 5) // 6
    body = values[1:]
    if len(body) != need:
        raise GraphError(
            f"graph6 body length {len(body)} does not match {need} groups for n={n}"
        )
    padded = 0
    for value in body:
        padded = (padded << 6) | value
    # Read the string from its first (highest) bit; the padding is ignored.
    position = 6 * need
    rows = [0] * n
    for j in range(1, n):
        for i in range(j):
            position -= 1
            if padded >> position & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return SimpleGraph(tuple(rows))


def to_adjacency_text(graph: SimpleGraph) -> str:
    parts = ", ".join(f"{u}-{v}" for u, v in graph.edges)
    return f"n={graph.n}; edges: {parts}" if parts else f"n={graph.n}; edges:"


def parse_adjacency_text(text: str) -> SimpleGraph:
    """Parse the one-line 'n=5; edges: 0-1, 1-2' format; comments start with '#'."""
    graph_line = None
    graph_line_no = 0
    for line_no, raw in enumerate(text.splitlines() or [text], start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if graph_line is not None:
            raise GraphError(f"line {line_no}: expected a single graph line")
        graph_line, graph_line_no = line, line_no
    if graph_line is None:
        raise GraphError("line 1: no graph line found")
    try:
        head, _, tail = graph_line.partition(";")
        key, _, value = head.partition("=")
        if key.strip() != "n":
            raise GraphError("expected 'n=<count>' before ';'")
        try:  # not a number, or past int()'s digit limit
            n = int(value)
        except ValueError:
            raise GraphError(f"bad vertex count {value.strip()!r}") from None
        tail = tail.strip()
        if not tail.startswith("edges:"):
            raise GraphError("expected 'edges:' after ';'")
        body = tail[len("edges:"):].strip()
        edges = []
        if body:
            for chunk in body.split(","):
                token = chunk.strip()
                u_text, _, v_text = token.partition("-")
                try:
                    edges.append((int(u_text), int(v_text)))
                except ValueError:
                    raise GraphError(f"bad edge token {token!r}") from None
        return SimpleGraph.from_edges(n, edges)
    except GraphError as exc:
        detail = exc.args[0] if exc.args else str(exc)
        raise GraphError(f"line {graph_line_no}: {detail}") from None


def graph_from_json_dict(data: dict) -> SimpleGraph:
    """Graph from {"n": count, "edges": [[u, v], ...]}; the schema is checked."""
    if not (
        isinstance(data, dict)
        and type(data.get("n")) is int
        and isinstance(data.get("edges"), list)
    ):
        raise GraphError("a JSON graph is an object with an integer 'n' and an 'edges' list")
    for edge in data["edges"]:
        if not (isinstance(edge, list) and len(edge) == 2 and all(type(v) is int for v in edge)):
            raise GraphError(f"edge {edge!r} is not a pair of vertex indices")
    return SimpleGraph.from_edges(data["n"], data["edges"])
