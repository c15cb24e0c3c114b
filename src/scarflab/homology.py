"""Reduced simplicial homology: a collapse test, and exact ranks over GF(p) and Q.

`collapses_to_point` decides the restriction of a complex to a monomial,
given by its mask, on bit sets of the complex's faces, without building it.
The restriction's faces are the AND (`complexes._meet`) of the complex's
per-variable table `LabeledComplex.faces_without` over the variables the
monomial lacks, and its vertices are the singleton faces among them.
Domination is tested on the per-generator face bit sets
(`LabeledComplex.face_columns`).  It answers True at once when the
restriction is a full simplex, and otherwise deletes one dominated vertex
(a strong collapse) and asks again.  The answer depends only on the
restriction's vertex set, so it is kept per complex by the bit set of its
singleton faces (`LabeledComplex.collapse_answers`), and a point stops at
the first vertex set another point already decided.  When one vertex is
left the restriction is contractible, so it is acyclic over every field at
once and no rank is needed.  A Scarf scan runs it at its lattice points
and builds and ranks a restriction only where it answers False.  On the
path:4 ideals of the spiders S5(3,3,3), S5(4,3,3) and S5(4,4,4), the 511,
1,023 and 4,095 points of 766, 1,406 and 5,118 that label no Scarf face
take 567, 1,135 and 4,335 vertex domination tests.  `analysis.is_scarf`
visits only one point per orbit of the variable twin classes, and calls it
at 126, 150 and 223 points there.  `facets_collapse_to_point` runs the same
strong collapse on a complex's facets instead, for the one question the
level walk asks of each graph's whole complex.

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

from .complexes import LabeledComplex, _meet
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


def collapses_to_point(delta: LabeledComplex, mask: int = -1) -> bool:
    """True when the restriction of delta to the monomial with this mask (by
    default delta itself) is a simplex or strong-collapses to one vertex.

    The restriction keeps the faces whose label divides the monomial, which
    are those whose label lacks every variable x the monomial lacks: the
    AND of `delta.faces_without[x]` over those x (`complexes._meet`), a bit
    set of face indices, `members`.  A monomial that lacks no variable, such
    as x_V in a sweep, restricts to delta itself, and `faces_without` is not
    built.  The faces are sorted by size and then lexicographically, so with
    k vertices `faces[0]` is the empty face and `faces[1..k]` are the
    singletons {g} of the vertices, in ascending g.  The label of {g} is g
    itself, so {g} is in `members` exactly when g divides the monomial, and
    the restriction's vertex set A is read off as `members & singles`, the
    bits 1..k.  With A nonempty and 2^|A| faces counting the empty one,
    every subset of A is a face, so the restriction is the full simplex on
    A and contractible.  That holds at the label m of every nonempty Scarf
    face sigma: the Scarf test is closed, so no generator outside sigma
    divides m, and every subset of sigma is a Scarf face.

    Otherwise one dominated vertex is deleted (Barmak and Minian, Strong
    homotopy types, nerves and collapses, 2012).  A vertex v is dominated by
    a vertex w != v when every face containing v is a face after adding w.
    Let star_v be the faces containing v.  Removing w maps the faces of
    star_v that contain w one-to-one into those that do not, and the image
    lies in the complex as it is closed under subsets.  The map is onto
    exactly when every face containing v but not w extends by w, that is
    when w dominates v.  So domination is the count test
    `2 * (star_v & column_w).bit_count() == star_v.bit_count()`.  A
    dominator of v lies in every maximal face containing v, since adding it
    gives a face.  Faces are sorted by size, so the last face of star_v has
    the most members and is maximal; only its vertices, all still in the
    complex, are tried as w.  The bits of A are walked from the top, bit i
    standing for the vertex v = `faces[i].bit_length() - 1`, so vertices
    are tested in descending order, and the first dominated one is
    deleted: `members &= ~columns[v]` drops every face containing v, {v}
    at bit i among them.  A Scarf scan visits points in ascending mask
    order, and deleting from the top reaches sets that earlier points
    decided sooner (on the path:4 scan of the whole lattice of S5(4,4,4),
    4,335 domination tests against 12,832 in ascending order; `is_scarf`
    visits only the prefix points of its twin classes).

    Deleting a dominated v, with every face containing it, is a chain of
    elementary collapses: pair each face sigma + v without w with
    sigma + v + w, and take the pairs in decreasing size.  When a pair is
    taken, every larger face over sigma + v is gone, so sigma + v + w is its
    only coface, and the collapse is a deformation retraction.  So a
    deletion chain ending at one vertex proves the restriction contractible,
    and its reduced homology vanishes over every field.  False proves
    nothing: the restriction may be contractible and not strong collapsible,
    so callers fall back to ranks, and verdicts, witnesses and Betti
    profiles stay those of a scan that ranks every point.

    The answer f(A) depends on A alone.  A face whose generators all
    divide the monomial is a subset of A, as delta is closed under subsets
    and so each member of a face is a vertex.  Hence the restriction is the
    induced subcomplex delta[A], and deleting a dominated v from it leaves
    exactly delta[A - v].  A complex strong-collapses to a point exactly
    when its core (what is left once no vertex is dominated) is a point,
    and Barmak and Minian show that a complex has one core up to
    isomorphism, whatever dominated vertices are deleted on the way.  So
    f(A) = f(A - v) for any dominated v, and the answer does not depend on
    which one is deleted or on which point first reached A.  When no vertex
    of A is dominated, delta[A] is its own core, a point only when |A| = 1,
    which the simplex check answers first; so the answer is False.

    So before the first test and after each deletion, A is looked up in
    `delta.collapse_answers`, keyed by its singleton-face bit set, which
    within one complex stands for A one-to-one, and every A a call passes
    through is stored with the answer it ends at.  The lookup of the first
    A answers repeated queries.  In a Scarf scan it never hits: the lcm of
    a point's A is the point, while an earlier point stores only subsets of
    its own A, whose lcms divide that earlier, smaller point.
    """
    answers = delta.collapse_answers
    faces, columns = delta.faces, delta.face_columns
    members = (1 << len(faces)) - 1
    absent = ~mask & ((1 << delta.ideal.universe.size) - 1)
    if absent:
        members = _meet(members, absent, delta.faces_without)
    singles = (1 << (delta.vertices.bit_count() + 1)) - 2
    vertices = members & singles
    if not vertices:
        return False
    path = []
    while vertices not in answers:
        path.append(vertices)
        if members.bit_count() == 1 << vertices.bit_count():
            answers[vertices] = True
            break
        rest = vertices
        while rest:
            i = rest.bit_length() - 1
            rest ^= 1 << i
            v = faces[i].bit_length() - 1
            star = columns[v] & members
            size = star.bit_count()
            others = faces[star.bit_length() - 1] & ~(1 << v)
            while others:  # `_bits` inlined: every Scarf scan runs this per vertex test
                low = others & -others
                if 2 * (star & columns[low.bit_length() - 1]).bit_count() == size:
                    break
                others ^= low
            if others:
                members &= ~columns[v]
                vertices ^= 1 << i
                break
        else:
            answers[vertices] = False
    answer = answers[vertices]
    for key in path:
        answers[key] = answer
    return answer


def facets_collapse_to_point(facets: Sequence[int]) -> bool:
    """True when the complex whose facets (maximal faces, as vertex masks)
    these are strong-collapses to one vertex; it is then contractible and
    acyclic over every field.  The facets need not be in any order, and
    there must be at least one.

    A vertex v is dominated by w != v exactly when every facet containing v
    contains w.  If so, a face containing v lies in a facet containing v,
    which holds w, so the face plus w is a face.  Conversely, if w
    dominates v, a facet containing v plus w is a face, so by maximality it
    is that facet.  So v is dominated exactly when the AND of the facets
    containing v has a vertex besides v.  Deleting v leaves the faces
    without v, the subsets of the sets F - v over the facets F; the facets
    without v stay maximal, and F - v for a facet F that holds v is
    maximal unless it lies in a facet without v (it cannot lie in another
    facet G that holds v, for then F would lie in G).  One facet is a
    simplex, which collapses to any one of its vertices; with two or more
    facets and no dominated vertex, the complex is its own core and not a
    point, so the answer is False.

    Barmak and Minian (Strong homotopy types, nerves and collapses, 2012)
    show that a complex has one core up to isomorphism, whatever dominated
    vertices are deleted on the way, and a complex strong-collapses to a
    point exactly when its core is a point.  So on the facets of a complex
    delta this answers `collapses_to_point(delta)`, which deletes vertices
    in another order on delta's face list.  Each test serves the caller
    that is faster with it.  `analysis.hereditary_verdicts` asks once per
    graph about the whole complex, which can have exponentially many faces
    and only a few facets, and finds the facets from the 1-skeleton when
    the complex is flag (`complexes.scarf_facets`).  The `is_scarf` scan
    asks at many lattice points of one complex, whose face list it needs
    anyway for `num_scarf_faces`, and shares answers across points by
    vertex set; a facet scan, with each point's facets the maximal traces
    of the complex's facets, measured two to three times slower on the
    prefix points of the path:4 spiders S5(3,3,3) to S5(4,4,4)."""
    facets = list(facets)
    while len(facets) > 1:
        rest = 0
        for facet in facets:
            rest |= facet
        while rest:
            bit = rest & -rest
            rest ^= bit
            common = -1
            for facet in facets:
                if facet & bit:
                    common &= facet
            if common != bit:
                break
        else:
            return False
        kept = [facet for facet in facets if not facet & bit]
        facets = kept + [
            facet ^ bit
            for facet in facets
            if facet & bit and all(facet & ~bit & ~other for other in kept)
        ]
    return True


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
