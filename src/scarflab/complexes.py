"""Labelled simplicial complexes on the generators of a square-free ideal.

A face is the bit mask of its members, bit i set when generator i is one;
the label of a face is the lcm of its members (the empty face, mask 0, is
labelled 1).  Faces are listed by size and then lexicographically by
members, and reports print each face's members in ascending order.  The
Taylor complex is the full power set.  The Scarf complex keeps the faces
whose label is shared by no other subset of generators.  It is grown level
by level on bit sets: the Scarf edges are found once, as neighbour masks,
and a face grows only by a common neighbour of its members, which is then
tested to be closed (no outside generator divides the label: `_meet` ANDs
the ideal's `generators_without` table over the variables the label lacks)
and irredundant (dropping any member changes the label).  The exhaustive
power-set variant is a test oracle in `tests/reference.py`.

The Scarf edges alone (`scarf_neighbours`) and, when the complex is flag,
its facets (`scarf_facets`: the maximal cliques of those edges, each
passing the face test) describe the complex without listing its faces:
the path:4 complex of the spider S5(8,8,8) has 262,144 faces and three
facets.  `analysis` decides the walk's check of the whole complex on
them, and lists the faces only where they do not decide it.  A listed
complex reads its facets off its faces (`LabeledComplex.facets`), and the
facets of a subcomplex induced on a vertex set are the maximal traces of
those facets on it (`induced_facets`): the Scarf scan decides strong
collapse on them.

A monomial is its bit mask, as in `monomials`.  The lcm lattice is the
closure of the generator masks under OR (the lcm), as a sorted tuple of
masks, built by adding one generator at a time and capped at
`DEFAULT_LATTICE_CAP` points; the monomial 1 is excluded and treated as an
implicit bottom (it is a point only of the unit ideal,
whose one generator it is).  A complex restricts to a mask by filtering
its face labels; the restriction is the subcomplex induced on the
generators dividing the mask.  Leaf gluing builds the ideal obtained by
re-attaching, on a fresh variable, every generator divisible by a chosen
variable.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cached_property

from .graphs import _bits, _Frozen, _set
from .monomials import MonomialError, MonomialIdeal, VariableUniverse

DEFAULT_TAYLOR_CAP = 20
# Above the 2,162,686 points of S5(7,7,7) under path:4.
DEFAULT_LATTICE_CAP = 1 << 22


class ComplexError(ValueError):
    pass


class LabeledComplex(_Frozen):
    """A downward-closed face family over the minimal generators of an ideal."""

    _fields = ("ideal", "faces")

    def __init__(self, ideal: MonomialIdeal, faces: Sequence[int]) -> None:
        """Each face is the bit mask of its members (bit i set when
        generator i is one), so it lies in 0..2^q - 1 and cannot repeat or
        misorder a member.  The faces must be sorted by size and then
        lexicographically by members: of two faces of one size, a comes
        first when the lowest member of exactly one of them, the lowest bit
        of a ^ b, is in a.  Strict order rules out duplicates, and the empty
        face, mask 0, comes first.  Dropping member i from a face leaves the
        face with mask `face ^ 1 << i`."""
        faces = tuple(faces)
        limit = 1 << ideal.num_generators
        present = set(faces)
        if faces and faces[0]:
            raise ComplexError("a nonempty complex must start with the empty face")
        size, previous = -1, 0
        for face in faces:
            if not 0 <= face < limit:
                raise ComplexError(f"face mask {face} references a missing generator")
            count = face.bit_count()
            differ = previous ^ face
            if count < size or count == size and not previous & differ & -differ:
                raise ComplexError("faces must be sorted by size then lexicographically")
            size, previous = count, face
            rest = face
            while rest:
                bit = rest & -rest
                if face ^ bit not in present:
                    raise ComplexError(f"faces are not downward closed at {list(_bits(face))}")
                rest ^= bit
        _set(self, "ideal", ideal)
        _set(self, "faces", faces)

    @cached_property
    def face_set(self) -> frozenset[int]:
        return frozenset(self.faces)

    @cached_property
    def label_masks(self) -> tuple[int, ...]:
        """The label of each face, in face order.  A face's label is that of
        the face without its lowest member, which comes earlier as it is
        smaller, ORed with that member's generator."""
        if not self.faces:
            return ()
        gen_masks = self.ideal.generator_masks
        labels = {0: 0}
        for face in self.faces:
            if face:
                low = face & -face
                labels[face] = labels[face ^ low] | gen_masks[low.bit_length() - 1]
        return tuple(labels.values())

    @property
    def dim(self) -> int:
        """Dimension of the largest face; -1 when only the empty face is present."""
        if not self.faces:
            raise ComplexError("the void complex has no dimension")
        return self.faces[-1].bit_count() - 1

    def faces_of_size(self, size: int) -> tuple[int, ...]:
        return tuple(face for face in self.faces if face.bit_count() == size)

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension 0, 1, ...; the empty face is not counted."""
        if not self.faces:
            return ()
        counts = [0] * self.faces[-1].bit_count()
        for face in self.faces:
            if face:
                counts[face.bit_count() - 1] += 1
        return tuple(counts)

    @cached_property
    def vertices(self) -> int:
        """Bit set of the generators that are vertices, the OR of the faces:
        g is in some face exactly when {g} is a face, by downward closure."""
        vertices = 0
        for face in self.faces:
            vertices |= face
        return vertices

    @cached_property
    def facets(self) -> tuple[int, ...]:
        """The maximal faces, in face order: () for the void complex and
        (0,) for the complex {∅}.  Faces are sorted by size, so a face that
        lies in another lies in a larger one, which lies in a facet met
        earlier on a walk from the last face back: a face is kept when it
        lies in no facet kept before it."""
        facets = []
        for face in reversed(self.faces):
            for facet in facets:
                if not face & ~facet:
                    break
            else:
                facets.append(face)
        return tuple(reversed(facets))

    def induced_facets(self, vertices: int) -> list[int]:
        """The facets of the induced subcomplex delta[A] on the vertex bit
        set A = `vertices`, the faces of delta that lie in A: the maximal
        traces F & A over the facets F of delta.  A face in A lies in some
        facet F, so in F & A, and every trace is a face by downward closure.
        A complex with no vertex in A gives [0], the complex {∅}, or [] for
        the void complex.  It is written with plain loops rather than
        `all`, which measured slower, as the `analysis.is_scarf` scan calls
        it at every point it visits."""
        traces = {facet & vertices for facet in self.facets}
        maximal = []
        for trace in traces:
            for other in traces:
                if not trace & ~other and trace != other:
                    break
            else:
                maximal.append(trace)
        return maximal

    def restrict(self, mask: int) -> "LabeledComplex":
        """Subcomplex of faces whose label divides the monomial with this
        mask, in this complex's face order; contains the empty face whenever
        this complex is nonempty.  When it keeps every face it is this
        complex, which is frozen, so that is returned instead of a copy.

        A face's label is the lcm of its members, so it divides the
        monomial exactly when each member does: the restriction is the
        induced subcomplex delta[A] on the set A of generators dividing the
        monomial, and its facets are `induced_facets(A)`.  The Scarf scans
        in `analysis` decide a restriction on those facets
        (`homology.facets_collapse_to_point`) and call this only where the
        collapse leaves ranks to compute."""
        outside = ~mask
        kept = tuple(
            face for face, label in zip(self.faces, self.label_masks) if not label & outside
        )
        return self if len(kept) == len(self.faces) else LabeledComplex(self.ideal, kept)

    def star(self, face: int) -> "LabeledComplex":
        """Faces tau with tau | face still a face; contains face itself and
        the empty face."""
        face_set = self.face_set
        if face not in face_set:
            raise ComplexError(f"face mask {face} is not a face, star undefined")
        return LabeledComplex(self.ideal, [tau for tau in self.faces if tau | face in face_set])

    def to_json_dict(self) -> dict:
        universe = self.ideal.universe
        return {
            "vertices": [universe.render(g) for g in self.ideal.generator_masks],
            "faces": [list(_bits(face)) for face in self.faces],
            "labels": {
                ",".join(str(i) for i in _bits(face)): universe.render(mask)
                for face, mask in zip(self.faces, self.label_masks)
            },
        }


def taylor_complex(ideal: MonomialIdeal, max_generators: int = DEFAULT_TAYLOR_CAP) -> LabeledComplex:
    """Full power set of the minimal generators."""
    q = ideal.num_generators
    if q > max_generators:
        raise ComplexError(f"Taylor complex capped at {max_generators} generators, got {q}")
    faces = [
        sum(1 << i for i in combo)
        for size in range(q + 1)
        for combo in itertools.combinations(range(q), size)
    ]
    return LabeledComplex(ideal, faces)


def _meet(value: int, absent: int, tables: Sequence[int]) -> int:
    """`value` ANDed with `tables[x]` for every variable x in the bit set
    `absent`, stopping as soon as the result is 0.

    With `tables` a per-variable `without` table (the generators, or the
    faces, that x does not divide), a member of `value` survives exactly
    when it lacks every absent variable, that is when it divides the
    monomial whose mask is the complement of `absent`."""
    while value and absent:
        low = absent & -absent
        value &= tables[low.bit_length() - 1]
        absent ^= low
    return value


def scarf_neighbours(ideal: MonomialIdeal) -> list[int]:
    """The Scarf edges as neighbour masks: bit j of `neighbours[i]` is set
    when {i, j} is a face of `scarf_complex(ideal)`, that is when no third
    generator divides the lcm of generators i and j (the pair is
    irredundant, as the minimal generators form an antichain)."""
    gen_masks = ideal.generator_masks
    q = len(gen_masks)
    everything = (1 << ideal.universe.size) - 1
    all_generators = (1 << q) - 1
    without = ideal.generators_without
    neighbours = [0] * q
    for i in range(q):
        for j in range(i + 1, q):
            label = gen_masks[i] | gen_masks[j]
            if not _meet(all_generators ^ (1 << i | 1 << j), everything & ~label, without):
                neighbours[i] |= 1 << j
                neighbours[j] |= 1 << i
    return neighbours


def scarf_complex(ideal: MonomialIdeal) -> LabeledComplex:
    """Faces of the Taylor complex whose lcm label is globally unique.

    A face qualifies exactly when it is closed (no outside generator
    divides its label: `_meet` of the outside generators with
    `ideal.generators_without` over the variables the label lacks is 0)
    and irredundant (removing any member changes the label, that is every
    member has a variable that no other member has).  So the complex is
    grown level by level without touching the full power set:

    * Every generator is a vertex: the minimal generators form an
      antichain, so none divides another, and a generator is not 1 unless
      it is the only one, the unit ideal's, whose one face is the empty
      face (its vertex would share the empty face's label 1).
    * An edge {i, j} is irredundant by the antichain, so it is a face
      exactly when it is closed.  The edges are tested once and kept as
      neighbour masks: bit j of `neighbours[i]` is set when {i, j} is a
      face.
    * The complex is closed under subsets.  Let G be a subset of a face F,
      R = F - G, and say some H != G shares G's label.  Then H + R shares
      F's label, so H + R = F; hence H is G plus a nonempty S inside R,
      every member of S divides G's label, and F - S shares F's label,
      which is impossible.  So every edge of a face is a face, and a face of
      size k + 1 >= 3 is a face of size k, its first members, plus one
      common neighbour of them above its last member.  Only those
      candidates are tested.  The common neighbours are carried with each
      face: a candidate's are its face's ANDed with the new member's.

    A candidate's new member j has a variable the face's label lacks, as
    the face is closed and j is outside it, so irredundancy is tested on
    the face's members only.  It reads, per face, the variables that two or
    more members share (`shared`); a candidate adds j's variables that the
    face's label already has.  Each level extends the previous one's faces,
    in order, by larger indices in ascending order, so the faces come out
    sorted by size and then lexicographically, as the constructor asks.
    """
    gen_masks = ideal.generator_masks
    q = len(gen_masks)
    if q == 1 and not gen_masks[0]:
        return LabeledComplex(ideal, (0,))
    everything = (1 << ideal.universe.size) - 1
    all_generators = (1 << q) - 1
    without = ideal.generators_without
    neighbours = scarf_neighbours(ideal)
    faces = [0]
    # (face, label, variables two members share, common neighbours)
    current = [(1 << i, gen_masks[i], 0, neighbours[i]) for i in range(q)]
    while current:
        faces.extend(entry[0] for entry in current)
        grown = []
        for face, label, shared, common in current:
            step = common & (-1 << face.bit_length())
            while step:
                bit = step & -step
                step ^= bit
                j = bit.bit_length() - 1
                generator = gen_masks[j]
                more_shared = shared | label & generator
                new_label = label | generator
                if face & (face - 1) and not (
                    all(gen_masks[i] & ~more_shared for i in _bits(face))
                    and not _meet(all_generators ^ face ^ bit, everything & ~new_label, without)
                ):
                    continue
                grown.append((face | bit, new_label, more_shared, common & neighbours[j]))
        current = grown
    return LabeledComplex(ideal, faces)


def _is_scarf_face(ideal: MonomialIdeal, face: int) -> bool:
    """Whether the generator set `face` passes the Scarf face test of
    `scarf_complex`: it is irredundant (every member has a variable that no
    other member has, read off the variables two or more members share) and
    closed (no outside generator divides its label)."""
    gen_masks = ideal.generator_masks
    label = shared = 0
    for i in _bits(face):
        shared |= label & gen_masks[i]
        label |= gen_masks[i]
    outside = ((1 << len(gen_masks)) - 1) ^ face
    absent = ((1 << ideal.universe.size) - 1) & ~label
    return all(gen_masks[i] & ~shared for i in _bits(face)) and not _meet(
        outside, absent, ideal.generators_without
    )


def _maximal_cliques(neighbours: Sequence[int]) -> list[int]:
    """The maximal cliques, as vertex masks, of the graph on 0..len - 1
    with these neighbour masks: Bron and Kerbosch's search with Tomita's
    pivot (Tomita, Tanaka and Takahashi, The worst-case time complexity for
    generating all maximal cliques, TCS 2006).

    `expand` reports every maximal clique K that contains `clique` and
    meets no vertex of `excluded`; `candidates` and `excluded` together are
    the common neighbours of `clique` outside it, and a recursion on
    `clique + v` keeps the members of both that are neighbours of v.  With
    no common neighbour left, `clique` is maximal.  Otherwise each K holds a
    candidate outside the neighbours of the pivot u: if K - clique lay
    inside them, u, a common neighbour of `clique`, would be adjacent to
    all of K and so in K by maximality, hence a candidate (K meets no
    excluded vertex) outside its own neighbours.  Each K is reported in the
    branch of its first such candidate v: earlier ones are not in K, and
    moving v to `excluded` afterwards keeps K from being reported again.
    The pivot keeps the most candidates inside its neighbourhood, which
    bounds the search by 3^(n/3), the most maximal cliques a graph on n
    vertices has."""
    cliques = []

    def expand(clique: int, candidates: int, excluded: int) -> None:
        if not candidates | excluded:
            cliques.append(clique)
            return
        pivot = max(
            _bits(candidates | excluded),
            key=lambda u: (candidates & neighbours[u]).bit_count(),
        )
        for v in _bits(candidates & ~neighbours[pivot]):
            expand(clique | 1 << v, candidates & neighbours[v], excluded & neighbours[v])
            candidates ^= 1 << v
            excluded |= 1 << v

    expand(0, (1 << len(neighbours)) - 1, 0)
    return cliques


def scarf_facets(ideal: MonomialIdeal, neighbours: Sequence[int]) -> list[int] | None:
    """The facets of `scarf_complex(ideal)` when it is a flag complex, read
    off its 1-skeleton (`neighbours`, as `scarf_neighbours` gives it)
    without listing a face; None when some maximal clique of the 1-skeleton
    fails the Scarf face test, so that the complex is not flag.

    The complex is closed under subsets (see `scarf_complex`), so every
    edge of a face is a Scarf edge: a face is a clique of the 1-skeleton,
    and lies in a maximal clique.  When every maximal clique is a face,
    every clique is a subset of a face and so a face: the complex is the
    clique complex of its 1-skeleton, and its facets are exactly the
    maximal cliques.  A maximal clique that is not a face is a clique
    outside the complex, so the complex is not flag.  Cliques of at most
    two generators are vertices and Scarf edges, so only the larger ones
    are tested.  Whether the complex is flag is decided per ideal: nothing
    here assumes that an ideal of a graph gives a flag complex."""
    cliques = _maximal_cliques(neighbours)
    if all(clique.bit_count() <= 2 or _is_scarf_face(ideal, clique) for clique in cliques):
        return cliques
    return None


def lcm_lattice(ideal: MonomialIdeal, max_points: int = DEFAULT_LATTICE_CAP) -> tuple[int, ...]:
    """The masks of all lcms of nonempty generator subsets, ascending; the
    last is the top.  The zero ideal's lattice is empty, and the unit
    ideal's is the one point 1, mask 0.  ComplexError when the lattice has
    more than max_points points, raised while the set grows, so that it
    never holds many more.

    The set is closed one generator at a time: after g_1, ..., g_k it holds
    the lcms of the nonempty subsets of those generators.  That is so for
    k = 0, with no subsets, and a nonempty subset of g_1, ..., g_k+1 either
    misses g_k+1, or is {g_k+1}, or is a nonempty subset S of the earlier
    ones plus g_k+1, whose lcm is lcm(S) | g_k+1.  A step at most doubles
    the set, plus one point; a step that could pass the cap adds its new
    points one at a time and counts them as it goes."""
    points: set[int] = set()
    for generator in ideal.generator_masks:
        if 2 * len(points) < max_points:
            points |= {point | generator for point in points}
        else:
            grown = set()
            for point in points:
                joined = point | generator
                if joined not in points:
                    grown.add(joined)
                    if len(points) + len(grown) > max_points:
                        break
            points |= grown
        points.add(generator)
        if len(points) > max_points:
            raise ComplexError(f"lcm lattice capped at {max_points} points")
    return tuple(sorted(points))


# ---------------------------------------------------------------------------
# leaf gluing


def leaf_split(ideal: MonomialIdeal, x: int) -> tuple[int, ...]:
    """Indices of the generators divisible (leafed) by variable x."""
    if not 0 <= x < ideal.universe.size:
        raise ComplexError(f"variable index {x} out of range")
    bit = 1 << x
    leafed = tuple(i for i, g in enumerate(ideal.generator_masks) if g & bit)
    if not leafed:
        raise ComplexError(f"variable {ideal.universe.names[x]} divides no generator")
    return leafed


def _fresh_variable_name(universe: VariableUniverse, base: str) -> str:
    name = base + "'"
    while name in universe.names:
        name += "'"
    return name


def glue_leaf_ideal(ideal: MonomialIdeal, x: int) -> MonomialIdeal:
    """Extend the universe by a fresh variable x' and add x'*(g/x) for every
    generator g divisible by x.  The result is minimally generated as given."""
    leafed = leaf_split(ideal, x)
    universe = ideal.universe
    extended = universe.extend(_fresh_variable_name(universe, universe.names[x]))
    x_prime_bit = 1 << universe.size
    x_bit = 1 << x
    masks = list(ideal.generator_masks)
    for i in leafed:
        masks.append((masks[i] & ~x_bit) | x_prime_bit)
    try:
        return MonomialIdeal(extended, tuple(sorted(masks)))
    except MonomialError as exc:
        raise ComplexError(f"gluing produced a non-minimal generating set: {exc}") from exc
