"""Reduced simplicial homology: a collapse test, and exact ranks over GF(p) and Q.

`collapses_to_point` answers True at once when the complex is a full
simplex, and otherwise runs greedy elementary collapses.  When they leave a
single vertex the complex is contractible, so it is acyclic over every field
at once and no rank is needed.  It reads the faces off an incidence index
(`LabeledComplex.incidence`): a restriction shares the index of the complex
it was cut from, so the Scarf scans in `analysis`, which restrict one
complex to every lattice point, build one index per complex.  They run the
collapse first on every restriction and compute ranks only where it gets
stuck.  On the path:4 ideals of the spiders S5(3,3,3), S5(4,3,3) and
S5(4,4,4) it settles every lattice point.

Boundary matrices carry the usual alternating signs over the sorted vertex
order and include the augmentation map sending every vertex to the empty face,
so Betti numbers here are reduced.  All arithmetic is exact: bit-set
elimination over GF(2), modular elimination for odd primes p < 2^31, and
fraction-free (Bareiss) elimination over the integers for the rational ranks.

`reduced_betti` needs a complex with at least one vertex and raises
HomologyError on the void complex or on one whose only face is the empty
face.  The Scarf scans in `analysis` never meet such a complex: every
monomial they restrict to is divided by a generator, whose vertex survives.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from .complexes import LabeledComplex

# Primality is checked by trial division up to sqrt(p), about 46k divisions
# below this bound; larger moduli would stall validation for minutes.
PRIME_FIELD_LIMIT = 2**31


class HomologyError(ValueError):
    pass


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: GF(p) for a prime p, or the rationals."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "prime":
            if self.p is None or self.p < 2:
                raise HomologyError("prime field needs p >= 2")
            if self.p >= PRIME_FIELD_LIMIT:
                raise HomologyError(f"prime field needs p < 2^31, got {self.p}")
            if any(self.p % d == 0 for d in range(2, math.isqrt(self.p) + 1)):
                raise HomologyError(f"{self.p} is not prime")
        elif self.kind == "rationals":
            if self.p is not None:
                raise HomologyError("the rationals take no modulus")
        else:
            raise HomologyError(f"unknown field kind {self.kind!r}")

    def render(self) -> str:
        return "q" if self.kind == "rationals" else f"gf{self.p}"

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def parse(cls, text: str) -> "FieldSpec":
        text = text.strip().lower()
        if text in ("q", "rationals", "rational"):
            return cls("rationals")
        if text.startswith("gf"):
            return cls("prime", int(text[2:]))
        raise HomologyError(f"cannot parse field {text!r}")


GF2 = FieldSpec("prime", 2)
GF32003 = FieldSpec("prime", 32003)
RATIONALS = FieldSpec("rationals")
DEFAULT_FIELDS = (GF2, GF32003)


@dataclass(frozen=True)
class HomologyProfile:
    field: FieldSpec
    betti_minus_one: int
    betti: tuple[int, ...]

    @property
    def is_acyclic(self) -> bool:
        return self.betti_minus_one == 0 and all(b == 0 for b in self.betti)

    def to_json_dict(self) -> dict:
        return {
            "field": self.field.render(),
            "betti_minus_one": self.betti_minus_one,
            "betti": list(self.betti),
        }


def boundary_matrix(delta: LabeledComplex, i: int) -> list[list[int]]:
    """Matrix of the boundary map from i-faces to (i-1)-faces; i = 0 gives the
    augmentation row of ones.  Rows and columns follow the complex's face order."""
    if i < 0:
        raise HomologyError("boundary dimension must be nonnegative")
    cols = delta.faces_of_size(i + 1)
    if i == 0:
        return [[1] * len(cols)]
    rows = delta.faces_of_size(i)
    row_index = {face: r for r, face in enumerate(rows)}
    matrix = [[0] * len(cols) for _ in rows]
    for c, face in enumerate(cols):
        sign = 1
        for drop in range(len(face)):
            sub = face[:drop] + face[drop + 1:]
            matrix[row_index[sub]][c] = sign
            sign = -sign
    return matrix


def _rank_gf2(matrix: Sequence[Sequence[int]]) -> int:
    rows = []
    for row in matrix:
        mask = 0
        for j, entry in enumerate(row):
            if entry % 2:
                mask |= 1 << j
        if mask:
            rows.append(mask)
    rank = 0
    while rows:
        pivot = rows.pop()
        rank += 1
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
    return rank


def _rank_mod_p(matrix: Sequence[Sequence[int]], p: int) -> int:
    rows = [[entry % p for entry in row] for row in matrix]
    rows = [row for row in rows if any(row)]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < cols:
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot_row is None:
            col += 1
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        norm = [(entry * inv) % p for entry in rows[rank]]
        rows[rank] = norm
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], norm)]
        rank += 1
        col += 1
    return rank


def _rank_rational(matrix: Sequence[Sequence[int]]) -> int:
    """Fraction-free elimination over the integers; exact rational rank."""
    rows = [list(row) for row in matrix if any(row)]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    col = 0
    previous_pivot = 1
    while rank < len(rows) and col < cols:
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot_row is None:
            col += 1
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            rows[r] = [
                (pivot * a - factor * b) // previous_pivot
                for a, b in zip(rows[r], rows[rank])
            ]
        previous_pivot = pivot
        rank += 1
        col += 1
    return rank


def matrix_rank(matrix: Sequence[Sequence[int]], field: FieldSpec) -> int:
    if not matrix or not any(len(row) for row in matrix):
        return 0
    if field.kind == "rationals":
        return _rank_rational(matrix)
    if field.p == 2:
        return _rank_gf2(matrix)
    return _rank_mod_p(matrix, field.p)


def collapses_to_point(delta: LabeledComplex) -> bool:
    """True when the complex is a simplex or greedy elementary collapses
    reduce it to one vertex.

    The faces are read off `delta.incidence`, so a restriction is decided in
    the index of the complex it was cut from, which is built once and shared
    by all its restrictions.  If the faces span k >= 1 vertices and number
    2^k - 1 besides the empty face, every nonempty subset of those vertices
    is a face (a face's vertices are vertices of the complex, and there are
    2^k - 1 such subsets), so the complex is the full (k-1)-simplex and
    contractible.  In a Scarf scan this catches every point that is the
    label of a Scarf face: by the closed half of the Scarf test only that
    face's generators divide the label, and the face's subsets are all Scarf
    faces.

    Otherwise the collapse runs.  A nonempty face with exactly one live
    coface is free.  Removing it together with that coface is an elementary
    collapse: the coface is a maximal face (a face above it would give the
    free face a second coface), what is left is again a complex, and the space
    deformation retracts onto it by pushing the coface in from the free face.
    So a chain of collapses ending at a single vertex proves the complex
    contractible, and its reduced homology vanishes over every field.  False
    proves nothing: greedy collapses can get stuck on contractible complexes
    too, and callers fall back to ranks.

    Each face keeps the count of its live cofaces and the xor of their
    indices, which names the coface once the count is 1.  A collapse removes
    the coface, which leaves the free face maximal, then the free face.  A
    removed face then has count 0 for good, since its cofaces are all gone
    (the coface was maximal, the free face's only coface was the coface), so
    the count alone tells live free faces from stale stack entries.  A work
    stack holds the faces whose count dropped to 1; the pass does O(F*d) work
    for F faces of dimension at most d, plus one fill of two arrays as long
    as the index.
    """
    index, _, members = delta.incidence
    kept = members[1:]  # the empty face is never collapsed
    if not kept:
        return False
    # the vertices of the indexed complex are faces 1..n, the children of ()
    if len(kept) == (1 << bisect_right(kept, len(index.children[0]))) - 1:
        return True
    facets = index.facets
    cofaces = [0] * len(facets)
    coface_xor = [0] * len(facets)
    for i in kept:
        for f in facets[i]:
            cofaces[f] += 1
            coface_xor[f] ^= i
    remaining = len(kept)
    stack = [i for i in kept if cofaces[i] == 1]
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


def reduced_betti(delta: LabeledComplex, field: FieldSpec) -> HomologyProfile:
    """Reduced Betti numbers up to the top dimension; needs at least one vertex."""
    if not delta.has_vertices:
        raise HomologyError("reduced homology here needs a complex with a vertex")
    top = delta.dim
    face_counts = delta.f_vector()
    ranks = [matrix_rank(boundary_matrix(delta, i), field) for i in range(top + 1)]
    ranks.append(0)
    betti = tuple(
        face_counts[i] - ranks[i] - ranks[i + 1] for i in range(top + 1)
    )
    return HomologyProfile(field=field, betti_minus_one=1 - ranks[0], betti=betti)
