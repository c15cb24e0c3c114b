"""Labelled simplicial complexes on the generators of a square-free ideal.

Faces are sorted tuples of generator indices; the label of a face is the lcm
of its members (the empty face is labelled 1).  The Taylor complex is the full
power set.  The Scarf complex keeps the faces whose label is shared by no
other subset of generators; it is computed level by level from the equivalent
closed-and-irredundant test (no outside generator divides the face label, and
dropping any member changes the label), with the exhaustive power-set variant
retained as an oracle.

The lcm lattice is the closure of the generators under pairwise lcm; the
monomial 1 is excluded and treated as an implicit bottom.  Leaf gluing builds
the ideal obtained by re-attaching, on a fresh variable, every generator
divisible by a chosen variable.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

from .monomials import (
    MonomialError,
    MonomialIdeal,
    SquarefreeMonomial,
    VariableUniverse,
)

DEFAULT_TAYLOR_CAP = 20
DEFAULT_SCARF_ORACLE_CAP = 16


class ComplexError(ValueError):
    pass


Face = tuple[int, ...]


def _face_key(face: Face) -> tuple[int, Face]:
    return (len(face), face)


@dataclass(frozen=True)
class LabeledComplex:
    """A downward-closed face family over the minimal generators of an ideal."""

    ideal: MonomialIdeal
    faces: tuple[Face, ...]

    def __post_init__(self) -> None:
        q = self.ideal.num_generators
        seen = set()
        for face in self.faces:
            if tuple(sorted(face)) != face:
                raise ComplexError(f"face {face} is not sorted")
            if any(not 0 <= i < q for i in face):
                raise ComplexError(f"face {face} references a missing generator")
            seen.add(face)
        if len(seen) != len(self.faces):
            raise ComplexError("duplicate faces")
        if self.faces and list(self.faces) != sorted(self.faces, key=_face_key):
            raise ComplexError("faces must be sorted by size then lexicographically")
        if self.faces and () not in seen:
            raise ComplexError("a nonempty complex must contain the empty face")
        for face in self.faces:
            for drop in range(len(face)):
                if face[:drop] + face[drop + 1:] not in seen:
                    raise ComplexError(f"faces are not downward closed at {face}")

    @classmethod
    def from_faces(cls, ideal: MonomialIdeal, faces: Iterable[Iterable[int]]) -> "LabeledComplex":
        normalized = {tuple(sorted(set(face))) for face in faces}
        if normalized:
            normalized.add(())
        return cls(ideal, tuple(sorted(normalized, key=_face_key)))

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

    def label(self, face: Iterable[int]) -> SquarefreeMonomial:
        key = tuple(sorted(set(face)))
        if key not in self.face_set:
            raise ComplexError(f"{key} is not a face")
        mask = self.label_masks[self.faces.index(key)]
        return SquarefreeMonomial(self.ideal.universe, mask)

    def contains(self, face: Iterable[int]) -> bool:
        return tuple(sorted(set(face))) in self.face_set

    @property
    def is_void(self) -> bool:
        return not self.faces

    @property
    def has_vertices(self) -> bool:
        return any(len(face) == 1 for face in self.faces)

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(face[0] for face in self.faces if len(face) == 1)

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
    def incidence(self) -> "Incidence":
        """Where this complex's faces sit in an incidence index: the complex's
        own, built on first use, or the one of the complex a restriction was
        cut from, which that complex and all its restrictions share."""
        index = IncidenceIndex(self.faces, self.ideal.generator_masks)
        return Incidence(index, -1, range(len(self.faces)))

    def restrict(self, m: SquarefreeMonomial) -> "LabeledComplex":
        """Subcomplex of faces whose label divides m; contains at least the empty face.

        The faces are found by `IncidenceIndex.kept` and the result shares
        this complex's index.  A restriction of a restriction keeps the faces
        whose label divides both monomials, so it walks the shared index with
        the intersection of their masks.  The result skips the validation in
        __post_init__, which would cost O(F*d) per call.  Its faces are a
        subsequence of this complex's validated faces, so they stay sorted,
        duplicate-free and in range.  They include () whenever this complex is
        nonempty, since the empty face's label 1 divides every m.  They are
        downward closed, since a subface's label is a submask of its face's
        label and so divides m too.
        """
        index, mask, _ = self.incidence
        mask &= m.mask
        members = index.kept(mask)
        restricted = object.__new__(LabeledComplex)
        object.__setattr__(restricted, "ideal", self.ideal)
        object.__setattr__(restricted, "faces", tuple(map(index.faces.__getitem__, members)))
        object.__setattr__(restricted, "incidence", Incidence(index, mask, members))
        return restricted

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


class IncidenceIndex:
    """Incidences of a complex's faces, each face named by its index in `faces`.

    - `children[i]` is the range of indices of the children of faces[i] in
      the lexicographic generation tree that `scarf_complex` grows, the faces
      faces[i] + (v,) with v > max(faces[i]).  Every face f != ()
      hangs below its parent f[:-1], a face because the complex is downward
      closed.  In (size, lexicographic) order the faces of size k+1 with one
      prefix are consecutive, and their prefixes ascend, so taking the faces
      of size k in order and listing their children gives the block of faces
      of size k+1 in order.  The blocks follow one another, so each face's
      children start where those of the face before it end, and the
      children of () start at 1.
    - `last[j]` is the mask of the generator that faces[j] adds to its parent.
    - `facets[i]` lists the codimension-one faces of a face of size at least
      2.  Vertices get none: collapses never remove the empty face.  Only
      `homology.collapses_to_point` reads them, so they are built on its
      first call that gets past the simplex check, not with the tree.
    """

    def __init__(self, faces: tuple[Face, ...], gen_masks: Sequence[int]) -> None:
        self.faces = faces
        counts = [0] * len(faces)
        parent = 0
        for face in itertools.islice(faces, 1, None):
            # parents ascend with their children, so the pointer only moves on
            prefix = face[:-1]
            while faces[parent] != prefix:
                parent += 1
            counts[parent] += 1
        first = list(itertools.accumulate(counts, initial=1))
        self.children = [range(a, b) for a, b in zip(first, first[1:])]
        self.last = [0]
        self.last += (gen_masks[face[-1]] for face in itertools.islice(faces, 1, None))

    @cached_property
    def facets(self) -> list[list[int]]:
        position = {face: i for i, face in enumerate(self.faces)}
        return [
            [position[face[:k] + face[k + 1:]] for k in range(len(face))]
            if len(face) > 1 else []
            for face in self.faces
        ]

    def kept(self, mask: int) -> list[int]:
        """Indices, ascending, of the faces whose label divides the monomial
        with this mask: the same list as filtering `label_masks` by mask.

        The walk goes down the generation tree level by level, keeping a child
        when its new generator divides the monomial.  A face is kept exactly
        when its parent is kept and its new generator divides, because its
        label is the parent's label times that generator; so by induction on
        size each level holds the kept faces of one size, each once.  Level
        k+1 lists the kept children of level k's faces parent by parent, in
        ascending last generator.  Tuples compare by prefix first, so if level
        k is in lexicographic order, so is level k+1.  The levels in turn are
        the faces in (size, lexicographic) order, the order of `faces`, so the
        indices ascend.  The walk visits the kept faces and the children it
        rejects, not all faces.
        """
        if not self.faces:
            return []
        children, last = self.children, self.last
        outside = ~mask
        kept = [0]
        level = [0]
        while level:
            level = [j for i in level for j in children[i] if not last[j] & outside]
            kept += level
        return kept


class Incidence(NamedTuple):
    """A complex's place in an incidence index: the faces at `members`,
    ascending, which are those whose label mask lies inside `mask` (-1 for
    the complex the index was built from)."""

    index: IncidenceIndex
    mask: int
    members: Sequence[int]


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
    level by level without touching the full power set.
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
    return LabeledComplex(ideal, tuple(sorted(faces, key=_face_key)))


def scarf_complex_bruteforce(
    ideal: MonomialIdeal, max_generators: int = DEFAULT_SCARF_ORACLE_CAP
) -> LabeledComplex:
    """Oracle variant: enumerate all 2^q subsets and keep globally unique labels."""
    q = ideal.num_generators
    if q > max_generators:
        raise ComplexError(f"brute-force Scarf capped at {max_generators} generators")
    gen_masks = ideal.generator_masks
    by_label: dict[int, list[Face]] = {}
    for size in range(q + 1):
        for combo in itertools.combinations(range(q), size):
            mask = 0
            for i in combo:
                mask |= gen_masks[i]
            by_label.setdefault(mask, []).append(combo)
    unique = [group[0] for group in by_label.values() if len(group) == 1]
    return LabeledComplex(ideal, tuple(sorted(unique, key=_face_key)))


def cone(apex: int, delta: LabeledComplex) -> LabeledComplex:
    """Cone with apex a generator index not yet used by the complex; doubles the faces."""
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


@dataclass(frozen=True)
class LcmLattice:
    """All lcms of nonempty generator subsets; 1 is excluded (implicit bottom)."""

    ideal: MonomialIdeal
    points: tuple[SquarefreeMonomial, ...]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def top(self) -> SquarefreeMonomial:
        if not self.points:
            raise ComplexError("the lattice of the zero ideal has no top")
        return self.points[-1]


def lcm_lattice(ideal: MonomialIdeal) -> LcmLattice:
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
    return LcmLattice(
        ideal,
        tuple(SquarefreeMonomial(universe, m) for m in sorted(points)),
    )


# ---------------------------------------------------------------------------
# leaf gluing


def leaf_split(ideal: MonomialIdeal, x: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Indices of generators not divisible (plain) and divisible (leafed) by variable x."""
    if not 0 <= x < ideal.universe.size:
        raise ComplexError(f"variable index {x} out of range")
    bit = 1 << x
    plain = tuple(i for i, g in enumerate(ideal.mingens) if not g.mask & bit)
    leafed = tuple(i for i, g in enumerate(ideal.mingens) if g.mask & bit)
    if not leafed:
        raise ComplexError(f"variable {ideal.universe.names[x]} divides no generator")
    return plain, leafed


def _fresh_variable_name(universe: VariableUniverse, base: str) -> str:
    name = base + "'"
    while name in universe.names:
        name += "'"
    return name


def glue_leaf_ideal(ideal: MonomialIdeal, x: int) -> MonomialIdeal:
    """Extend the universe by a fresh variable x' and add x'*(g/x) for every
    generator g divisible by x.  The result is minimally generated as given."""
    _, leafed = leaf_split(ideal, x)
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


def generator_index_map(source: MonomialIdeal, target: MonomialIdeal) -> dict[int, int]:
    """Map generator indices of source to indices of equal-support generators of target.

    Works across universes that agree on the variables the source uses (the
    leaf-glued ideal extends the universe without renumbering).
    """
    lookup = {g.mask: j for j, g in enumerate(target.mingens)}
    mapping = {}
    for i, g in enumerate(source.mingens):
        if g.mask not in lookup:
            raise ComplexError(f"generator {g.render()} has no counterpart in the target")
        mapping[i] = lookup[g.mask]
    return mapping


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
