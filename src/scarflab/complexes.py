"""Labelled simplicial complexes on the generators of a square-free ideal.

Faces are sorted tuples of generator indices; the label of a face is the lcm
of its members (the empty face is labelled 1).  The Taylor complex is the full
power set.  The Scarf complex keeps the faces whose label is shared by no
other subset of generators; it is computed level by level from the equivalent
closed-and-irredundant test (no outside generator divides the face label, and
dropping any member changes the label); the exhaustive power-set variant is a
test oracle in `tests/reference.py`.

The lcm lattice is the closure of the generators under pairwise lcm, as a
sorted tuple of points; the monomial 1 is excluded and treated as an
implicit bottom.  Leaf gluing builds the ideal obtained by re-attaching, on a
fresh variable, every generator divisible by a chosen variable.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from functools import cached_property

from .graphs import _Frozen, _set
from .monomials import (
    MonomialError,
    MonomialIdeal,
    SquarefreeMonomial,
    VariableUniverse,
)

DEFAULT_TAYLOR_CAP = 20


class ComplexError(ValueError):
    pass


Face = tuple[int, ...]


def _face_key(face: Face) -> tuple[int, Face]:
    return (len(face), face)


class LabeledComplex(_Frozen):
    """A downward-closed face family over the minimal generators of an ideal."""

    _fields = ("ideal", "faces")

    def __init__(self, ideal: MonomialIdeal, faces: tuple[Face, ...]) -> None:
        q = ideal.num_generators
        seen = set()
        for face in faces:
            if tuple(sorted(face)) != face:
                raise ComplexError(f"face {face} is not sorted")
            if any(not 0 <= i < q for i in face):
                raise ComplexError(f"face {face} references a missing generator")
            seen.add(face)
        if len(seen) != len(faces):
            raise ComplexError("duplicate faces")
        if faces and list(faces) != sorted(faces, key=_face_key):
            raise ComplexError("faces must be sorted by size then lexicographically")
        if faces and () not in seen:
            raise ComplexError("a nonempty complex must contain the empty face")
        for face in faces:
            for drop in range(len(face)):
                if face[:drop] + face[drop + 1:] not in seen:
                    raise ComplexError(f"faces are not downward closed at {face}")
        _set(self, "ideal", ideal)
        _set(self, "faces", faces)

    @cached_property
    def face_set(self) -> frozenset[Face]:
        return frozenset(self.faces)

    @cached_property
    def label_masks(self) -> tuple[int, ...]:
        gen_masks = self.ideal.generator_masks
        out = []
        for face in self.faces:
            mask = 0
            for i in face:
                mask |= gen_masks[i]
            out.append(mask)
        return tuple(out)

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def has_vertices(self) -> bool:
        return any(len(face) == 1 for face in self.faces)

    @property
    def dim(self) -> int:
        """Dimension of the largest face; -1 when only the empty face is present."""
        if not self.faces:
            raise ComplexError("the void complex has no dimension")
        return len(self.faces[-1]) - 1

    def faces_of_size(self, size: int) -> tuple[Face, ...]:
        return tuple(face for face in self.faces if len(face) == size)

    def f_vector(self) -> tuple[int, ...]:
        """Face counts by dimension 0, 1, ...; the empty face is not counted."""
        if not self.faces:
            return ()
        counts = [0] * (len(self.faces[-1]))
        for face in self.faces:
            if face:
                counts[len(face) - 1] += 1
        return tuple(counts)

    @cached_property
    def face_columns(self) -> tuple[int, ...]:
        """Per generator, the bit set of the faces that contain it: bit i of
        `face_columns[g]` is set when g is in `faces[i]`."""
        columns = [0] * self.ideal.num_generators
        for i, face in enumerate(self.faces):
            for g in face:
                columns[g] |= 1 << i
        return tuple(columns)

    @cached_property
    def collapse_answers(self) -> dict[int, bool]:
        """Answers of `homology.collapses_to_point` on this complex, keyed
        by the bit set of the restriction's vertices, which that function
        fills in."""
        return {}

    def restrict(self, m: SquarefreeMonomial) -> "LabeledComplex":
        """Subcomplex of faces whose label divides m, in this complex's face
        order; contains the empty face whenever this complex is nonempty.
        When it keeps every face it is this complex, which is frozen, so
        that is returned instead of a copy.

        The Scarf scans in `analysis` call it only at the points where
        `homology.collapses_to_point` leaves ranks to compute."""
        outside = ~m.mask
        kept = tuple(
            face for face, label in zip(self.faces, self.label_masks) if not label & outside
        )
        return self if len(kept) == len(self.faces) else LabeledComplex(self.ideal, kept)

    def star(self, face: Iterable[int]) -> "LabeledComplex":
        """Faces tau with tau union face still a face; contains face itself and ()."""
        key = tuple(sorted(set(face)))
        if key not in self.face_set:
            raise ComplexError(f"{key} is not a face, star undefined")
        key_set = set(key)
        keep = [
            tau for tau in self.faces
            if tuple(sorted(key_set | set(tau))) in self.face_set
        ]
        return LabeledComplex(self.ideal, tuple(keep))

    def to_json_dict(self) -> dict:
        universe = self.ideal.universe
        return {
            "vertices": [g.render() for g in self.ideal.mingens],
            "faces": [list(face) for face in self.faces],
            "labels": {
                ",".join(str(i) for i in face): SquarefreeMonomial(universe, mask).render()
                for face, mask in zip(self.faces, self.label_masks)
            },
        }


def taylor_complex(ideal: MonomialIdeal, max_generators: int = DEFAULT_TAYLOR_CAP) -> LabeledComplex:
    """Full power set of the minimal generators."""
    q = ideal.num_generators
    if q > max_generators:
        raise ComplexError(f"Taylor complex capped at {max_generators} generators, got {q}")
    faces = [
        combo
        for size in range(q + 1)
        for combo in itertools.combinations(range(q), size)
    ]
    return LabeledComplex(ideal, tuple(faces))


def _face_is_scarf(face: Face, lcm_mask: int, gen_masks: Sequence[int]) -> bool:
    face_set = set(face)
    for j, mask in enumerate(gen_masks):
        if j not in face_set and mask & ~lcm_mask == 0:
            return False
    for drop in face:
        rest = 0
        for i in face:
            if i != drop:
                rest |= gen_masks[i]
        if rest == lcm_mask:
            return False
    return True


def scarf_complex(ideal: MonomialIdeal) -> LabeledComplex:
    """Faces of the Taylor complex whose lcm label is globally unique.

    A face qualifies exactly when no outside generator divides its label and
    removing any single member changes the label, so the complex can be grown
    level by level without touching the full power set.  Each level extends
    the previous one's faces, in order, by larger indices, so the faces come
    out sorted by size and then lexicographically, as the constructor asks.
    """
    gen_masks = ideal.generator_masks
    q = len(gen_masks)
    faces: list[Face] = [()]
    current: list[tuple[Face, int]] = []
    for i in range(q):
        face = (i,)
        if _face_is_scarf(face, gen_masks[i], gen_masks):
            current.append((face, gen_masks[i]))
    while current:
        faces.extend(face for face, _ in current)
        grown: list[tuple[Face, int]] = []
        for face, mask in current:
            for nxt in range(face[-1] + 1, q):
                candidate = face + (nxt,)
                lcm_mask = mask | gen_masks[nxt]
                if _face_is_scarf(candidate, lcm_mask, gen_masks):
                    grown.append((candidate, lcm_mask))
        current = grown
    return LabeledComplex(ideal, tuple(faces))


def cone(apex: int, delta: LabeledComplex) -> LabeledComplex:
    """Cone with apex a generator index not yet used by the complex; doubles
    the faces."""
    if not 0 <= apex < delta.ideal.num_generators:
        raise ComplexError(f"apex {apex} is not a generator index")
    if delta.is_void:
        raise ComplexError("cannot cone the void complex")
    if any(apex in face for face in delta.faces):
        raise ComplexError(f"apex {apex} already appears in the complex")
    grown = list(delta.faces)
    for face in delta.faces:
        grown.append(tuple(sorted(face + (apex,))))
    return LabeledComplex(delta.ideal, tuple(sorted(grown, key=_face_key)))


def lcm_lattice(ideal: MonomialIdeal) -> tuple[SquarefreeMonomial, ...]:
    """All lcms of nonempty generator subsets in ascending mask order; the
    last is the top, and the zero ideal's lattice is empty."""
    gen_masks = ideal.generator_masks
    points = set(gen_masks)
    frontier = set(gen_masks)
    while frontier:
        grown = set()
        for point in frontier:
            for mask in gen_masks:
                joined = point | mask
                if joined not in points:
                    points.add(joined)
                    grown.add(joined)
        frontier = grown
    universe = ideal.universe
    return tuple(SquarefreeMonomial(universe, m) for m in sorted(points))


# ---------------------------------------------------------------------------
# leaf gluing


def leaf_split(ideal: MonomialIdeal, x: int) -> tuple[int, ...]:
    """Indices of the generators divisible (leafed) by variable x."""
    if not 0 <= x < ideal.universe.size:
        raise ComplexError(f"variable index {x} out of range")
    bit = 1 << x
    leafed = tuple(i for i, g in enumerate(ideal.mingens) if g.mask & bit)
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
    masks = [g.mask for g in ideal.mingens]
    for i in leafed:
        masks.append((masks[i] & ~x_bit) | x_prime_bit)
    try:
        return MonomialIdeal(
            extended,
            tuple(SquarefreeMonomial(extended, m) for m in sorted(masks)),
        )
    except MonomialError as exc:
        raise ComplexError(f"gluing produced a non-minimal generating set: {exc}") from exc
