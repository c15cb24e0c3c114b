"""Reduced simplicial homology: a collapse test, and exact ranks over GF(p) and Q.

`facets_collapse_to_point` is the one strong-collapse test (Barmak and
Minian, 2012).  It reads a complex off its facets and deletes dominated
vertices, in descending order, until one facet is left (True) or no vertex
is dominated (False).  When it ends at one vertex the complex is
contractible, so it is acyclic over every field at once and no rank is
needed.  The level walk asks it once per graph about the whole Scarf
complex.  The `analysis.is_scarf` scan asks it at each lattice point it
visits, about the restriction there, whose facets are the maximal traces
of the complex's facets (`LabeledComplex.induced_facets`); it ranks a
restriction only where the answer is False.  The points of one scan share
a table of answers by vertex set, sound because each restriction is an
induced subcomplex and the answer depends on its vertex set alone.  On the
path:4 ideals of the spiders S5(3,3,3), S5(4,3,3) and S5(4,4,4), whose
scans visit 126, 150 and 223 points, the table holds 75, 94 and 144 vertex
sets, and the scans make as many deletions and domination tests; without
the table they make 384, 520 and 1,000.

A face is the bit mask of its members, as in `complexes`.  Boundary
matrices carry the usual alternating signs over ascending members: dropping
the k-th lowest member, by clearing its bit, has sign (-1)^k.  They include
the augmentation map sending every vertex to the empty face, so Betti
numbers here are reduced; `reduced_betti` takes that map's rank as 1
without building it.  All arithmetic is exact: one
fraction-free elimination serves every field, reduced mod p for the primes
p < 2^31 (p = 2 among them), and Bareiss over the integers for the rational
ranks.

`reduced_betti` needs a complex with at least one vertex and raises
HomologyError on the void complex or on one whose only face is the empty
face.  The Scarf scans in `analysis` never meet such a complex: every
monomial they restrict to is divided by a generator, whose vertex survives.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .complexes import LabeledComplex
from .graphs import _bits, _Frozen, _set

# Primality is checked by trial division up to sqrt(p), about 46k divisions
# below this bound; larger moduli would stall validation for minutes.
PRIME_FIELD_LIMIT = 2**31


class HomologyError(ValueError):
    pass


class FieldSpec(_Frozen):
    """Coefficient field: GF(p) for a prime p, or the rationals."""

    _fields = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None) -> None:
        if kind == "prime":
            if p is None or p < 2:
                raise HomologyError("prime field needs p >= 2")
            if p >= PRIME_FIELD_LIMIT:
                raise HomologyError(f"prime field needs p < 2^31, got {p}")
            if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
                raise HomologyError(f"{p} is not prime")
        elif kind == "rationals":
            if p is not None:
                raise HomologyError("the rationals take no modulus")
        else:
            raise HomologyError(f"unknown field kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "p", p)

    def __hash__(self) -> int:  # once per field and graph in a sweep's verdict sets
        return hash((self.kind, self.p))

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
            try:
                p = int(text[2:])
            except ValueError:
                raise HomologyError(f"cannot parse field {text!r}") from None
            return cls("prime", p)
        raise HomologyError(f"cannot parse field {text!r}")


GF2 = FieldSpec("prime", 2)
GF32003 = FieldSpec("prime", 32003)
DEFAULT_FIELDS = (GF2, GF32003)


class HomologyProfile(_Frozen):
    _fields = ("field", "betti_minus_one", "betti")

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
        for i in _bits(face):
            matrix[row_index[face ^ 1 << i]][c] = sign
            sign = -sign
    return matrix


def matrix_rank(matrix: Sequence[Sequence[int]], field: FieldSpec) -> int:
    """Exact rank over GF(p) for a prime p, or over Q.

    Each pivot clears its column below it by `row <- pivot*row -
    factor*pivot_row`.  As pivot != 0, that is an invertible row operation
    (a row scaled by a unit, plus a multiple of another row), so the rank is
    kept, and it is the number of pivots found.  Over GF(p) the update is
    reduced mod p, and a row with factor 0 is left alone, since the update
    would only scale it by a unit.  Over Q it is then divided by the
    previous pivot, which is nonzero and so keeps the rank, as in Bareiss
    elimination: each entry left below the pivots is a minor of the input
    with its rows permuted, so the division is exact over Z and no entry
    outgrows such a minor.  A matrix with no nonzero entry, `[]` and `[[]]`
    among them, has no pivot and rank 0."""
    p = field.p
    rows = [[entry % p for entry in row] if p else list(row) for row in matrix]
    rows = [row for row in rows if any(row)]
    rank = 0
    col = 0
    previous_pivot = 1
    while rank < len(rows) and col < len(rows[rank]):
        pivot_row = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot_row is None:
            col += 1
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if p:
                if factor:
                    rows[r] = [(pivot * a - factor * b) % p for a, b in zip(rows[r], rows[rank])]
            else:
                rows[r] = [
                    (pivot * a - factor * b) // previous_pivot
                    for a, b in zip(rows[r], rows[rank])
                ]
        previous_pivot = pivot
        rank += 1
        col += 1
    return rank


def facets_collapse_to_point(
    facets: Sequence[int], answers: dict[int, bool] | None = None
) -> bool:
    """True when the complex whose facets (maximal faces, as vertex masks)
    these are strong-collapses to one vertex; it is then contractible and
    acyclic over every field.  The facets need not be in any order.  A
    complex with no vertex, the void complex (no facet) or the complex {∅}
    (the one facet 0), is False: {∅} has reduced H_{-1} != 0 over every
    field.

    Domination (Barmak and Minian, Strong homotopy types, nerves and
    collapses, 2012): w != v dominates v when every face containing v is a
    face after adding w.  It holds exactly when every facet containing v
    contains w.  If so, a face containing v lies in a facet containing v,
    which holds w, so the face plus w is a face.  Conversely, if w
    dominates v, a facet containing v plus w is a face, so by maximality it
    is that facet.  So v is dominated exactly when the AND of the facets
    containing v has a vertex besides v.  Deleting v leaves the faces
    without v, the subsets of the sets F - v over the facets F; the facets
    without v stay maximal, and F - v for a facet F that holds v is
    maximal unless it lies in a facet without v (it cannot lie in another
    facet G that holds v, for then F would lie in G).  The vertices are
    tried in descending order, and the first dominated one is deleted.

    Deleting a dominated v, with every face containing it, is a chain of
    elementary collapses: pair each face sigma + v without w with
    sigma + v + w, and take the pairs in decreasing size.  When a pair is
    taken, every larger face over sigma + v is gone, so sigma + v + w is its
    only coface, and the collapse is a deformation retraction.  One facet
    with a vertex is a simplex, which collapses to any one of its vertices,
    so True proves the complex contractible.  False proves nothing: a
    complex may be contractible and not strong collapsible, so callers fall
    back to ranks.

    The answer depends only on the complex, not on the order of deletion: a
    complex strong-collapses to a point exactly when its core (what is left
    once no vertex is dominated) is a point, and a complex has one core up
    to isomorphism, whatever dominated vertices are deleted on the way
    (Barmak and Minian).  With two or more facets and no dominated vertex,
    the complex is its own core and not a point, so the answer is False.

    `answers`, when given, is a table of answers that every call sharing it
    reads and fills in, keyed by vertex set: the union of the current
    facets, as every vertex lies in a facet.  A call looks its vertex set
    up before each domination search, stops at the first one in the table,
    and stores the answer it ends at for every set it passed through.  This
    is sound when every complex asked about with one table is an induced
    subcomplex delta[A] of one complex delta, A being its vertex set, as in
    a Scarf scan (`analysis.is_scarf`, whose restrictions are induced
    subcomplexes: `LabeledComplex.restrict`).  Then a key A stands for
    delta[A] alone.  Deleting a dominated v from delta[A] leaves the faces
    of delta[A] without v, which are those of delta[A - v], so every set a
    call passes through is again such a key, and its answer is that of A,
    as the core is unique.  On the path:4 scan of S5(3,3,3) the table ends
    with 75 sets, one per deletion; without it the scan makes 384
    deletions.  Deleting from the bottom vertex up instead, the table ends
    with 144 sets."""
    vertices = 0
    for facet in facets:
        vertices |= facet
    if not vertices:
        return False
    path = []
    answer = True
    while len(facets) > 1:
        if answers is not None:
            if vertices in answers:
                answer = answers[vertices]
                break
            path.append(vertices)
        rest = vertices
        while rest:
            bit = 1 << rest.bit_length() - 1
            rest ^= bit
            common = -1
            for facet in facets:
                if facet & bit:
                    common &= facet
            if common != bit:
                break
        else:
            answer = False
            break
        vertices ^= bit
        kept = [facet for facet in facets if not facet & bit]
        shrunk = []
        for facet in facets:
            if facet & bit:
                facet ^= bit
                for other in kept:
                    if not facet & ~other:
                        break
                else:
                    shrunk.append(facet)
        facets = kept + shrunk
    for key in path:
        answers[key] = answer
    return answer


def reduced_betti(delta: LabeledComplex, field: FieldSpec) -> HomologyProfile:
    """Reduced Betti numbers up to the top dimension; needs at least one vertex.

    The augmentation map ∂_0 is not built or ranked: the complex has a
    vertex (checked first), so ∂_0 is a nonzero row of ones, whose rank is
    1 over every field.  A 0-dimensional complex therefore needs no matrix
    at all, and the ranks of ∂_1..∂_top are those `boundary_matrix` gives."""
    if not delta.vertices:
        raise HomologyError("reduced homology here needs a complex with a vertex")
    top = delta.dim
    face_counts = delta.f_vector()
    ranks = [1] + [matrix_rank(boundary_matrix(delta, i), field) for i in range(1, top + 1)]
    ranks.append(0)
    betti = tuple(
        face_counts[i] - ranks[i] - ranks[i + 1] for i in range(top + 1)
    )
    return HomologyProfile(field=field, betti_minus_one=1 - ranks[0], betti=betti)
