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

A monomial is its bit mask, as in `monomials`.  The lcm lattice is the
closure of the generator masks under OR (the lcm), as a sorted tuple of
masks, built by adding one generator at a time; the monomial 1 is excluded
and treated as an implicit bottom (it is a point only of the unit ideal,
whose one generator it is).  A complex restricts to a mask, and per variable
it indexes the faces whose label the variable does not divide, so the
restriction's faces are a few ANDs over the variables outside the mask.
Leaf gluing builds the ideal obtained by re-attaching, on a fresh variable,
every generator divisible by a chosen variable.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import cached_property

from .graphs import _bits, _Frozen, _set
from .monomials import MonomialError, MonomialIdeal, VariableUniverse

DEFAULT_TAYLOR_CAP = 20


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
    def face_columns(self) -> tuple[int, ...]:
        """Per generator, the bit set of the faces that contain it: bit i of
        `face_columns[g]` is set when g is in `faces[i]`."""
        columns = [0] * self.ideal.num_generators
        for i, face in enumerate(self.faces):
            while face:  # `_bits` inlined: every Scarf scan runs this per complex
                low = face & -face
                columns[low.bit_length() - 1] |= 1 << i
                face ^= low
        return tuple(columns)

    @cached_property
    def vertices(self) -> int:
        """Bit set of the generators that are vertices: bit g is set when
        some face contains g, so that {g} is a face by downward closure."""
        return sum(1 << g for g, column in enumerate(self.face_columns) if column)

    @cached_property
    def faces_without(self) -> tuple[int, ...]:
        """Per variable x, the bit set of the faces whose label x does not
        divide.  A label is the lcm of its face's generators, so x divides
        it exactly when x divides a member: these are all faces minus the
        `face_columns` of the generators x divides."""
        lacking = [(1 << len(self.faces)) - 1] * self.ideal.universe.size
        for column, generator in zip(self.face_columns, self.ideal.generator_masks):
            for x in _bits(generator):
                lacking[x] &= ~column
        return tuple(lacking)

    @cached_property
    def collapse_answers(self) -> dict[int, bool]:
        """Answers of `homology.collapses_to_point` on this complex, keyed
        by the bit set of the restriction's vertices, which that function
        fills in."""
        return {}

    def restrict(self, mask: int) -> "LabeledComplex":
        """Subcomplex of faces whose label divides the monomial with this
        mask, in this complex's face order; contains the empty face whenever
        this complex is nonempty.  When it keeps every face it is this
        complex, which is frozen, so that is returned instead of a copy.

        The Scarf scans in `analysis` call it only at the points where
        `homology.collapses_to_point` leaves ranks to compute."""
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
    neighbours = [0] * q
    for i in range(q):
        for j in range(i + 1, q):
            label = gen_masks[i] | gen_masks[j]
            if not _meet(all_generators ^ (1 << i | 1 << j), everything & ~label, without):
                neighbours[i] |= 1 << j
                neighbours[j] |= 1 << i
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


def lcm_lattice(ideal: MonomialIdeal) -> tuple[int, ...]:
    """The masks of all lcms of nonempty generator subsets, ascending; the
    last is the top.  The zero ideal's lattice is empty, and the unit
    ideal's is the one point 1, mask 0.

    The set is closed one generator at a time: after g_1, ..., g_k it holds
    the lcms of the nonempty subsets of those generators.  That is so for
    k = 0, with no subsets, and a nonempty subset of g_1, ..., g_k+1 either
    misses g_k+1, or is {g_k+1}, or is a nonempty subset S of the earlier
    ones plus g_k+1, whose lcm is lcm(S) | g_k+1."""
    points: set[int] = set()
    for generator in ideal.generator_masks:
        points |= {point | generator for point in points}
        points.add(generator)
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
