"""Scarf-property analysis, classification sweeps and obstruction derivation.

An ideal is recorded as Scarf when the restriction of its Scarf complex to
every lcm-lattice point is acyclic over every coefficient field in
the battery.  Restricting attention to lattice points is sound because the
restriction of the complex to a monomial m only depends on the set of
generators dividing m, and that set determines a lattice point with the same
restriction.  The test oracle in `tests/reference.py` scans every monomial
some generator divides and ranks every restriction.

Witness policy: the scan walks lattice points in ascending support-bit-pattern
order, so a reported failure is the smallest failing point in that order.
Fields are never merged: a graph counts as Scarf only when every field in the
battery agrees, and cross-field disagreements are surfaced, not resolved.

The paper's classifications are predicates on a connected graph's size and
family tags.  `theorem_spec` maps a theorem's name to the ideal it covers,
`_predictor` is the one place that says what the classification of an ideal
predicts, and `classify` (one graph) and `sweep` (every graph) both read it.

Sweeps and obstruction catalogs need verdicts, not witnesses, for every
connected graph (or tree) up to some size.  Both iterate one walk over the
enumeration's levels, `hereditary_verdicts`, which keeps only the level
below: a graph fails a field exactly when one of its connected one-vertex
deletions fails it or its whole Scarf complex is not acyclic over it, so no
lattice is scanned.  The walk computes no canonical form; sweeps and
catalogs canonicalise only the graphs they report, and sort them by n, then
by canonical form.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Iterable, Iterator

from . import graphs
from .complexes import LabeledComplex, glue_leaf_ideal, lcm_lattice, leaf_split, scarf_complex
from .graphs import (
    SimpleGraph,
    _bits,
    _canonical_copies,
    _check_level_size,
    _edge_text,
    _family_tags,
    _Frozen,
    _graph6_rows,
    _level,
    _prefix_masks,
    contains_subgraph,
    is_connected,
    to_graph6,
)
from .homology import (
    DEFAULT_FIELDS,
    FieldSpec,
    HomologyProfile,
    collapses_to_point,
    reduced_betti,
)
from .ideals import IdealSpec, build_ideal
from .monomials import MonomialIdeal

VERDICT_SCARF = "scarf"
VERDICT_NOT_SCARF = "not_scarf"
VERDICT_TRIVIALLY_SCARF = "trivially_scarf"

THEOREM_B_FAMILY_KINDS = ("star", "triangle", "broom3", "broom4", "spider5", "spider6")


class AnalysisError(ValueError):
    pass


class ScarfReport(_Frozen):
    _fields = ("ideal", "verdicts", "witnesses", "num_scarf_faces", "num_lattice_points")

    @property
    def num_generators(self) -> int:
        return self.ideal.num_generators

    @property
    def all_scarf(self) -> bool:
        return all(v != VERDICT_NOT_SCARF for _, v in self.verdicts)

    def to_json_dict(self) -> dict:
        render = self.ideal.universe.render
        return {
            "ideal": self.ideal.to_json_dict(),
            "verdicts": {f.render(): v for f, v in self.verdicts},
            "witnesses": {
                f.render(): {"monomial": render(mask), "profile": profile.to_json_dict()}
                for f, mask, profile in self.witnesses
            },
            "num_generators": self.num_generators,
            "num_scarf_faces": self.num_scarf_faces,
            "num_lattice_points": self.num_lattice_points,
        }


def _normalize_fields(fields) -> tuple[FieldSpec, ...]:
    out = tuple(fields)
    if not out:
        raise AnalysisError("need at least one coefficient field")
    if len(set(out)) != len(out):
        raise AnalysisError("duplicate coefficient fields")
    return out


def _failing_fields(
    delta: LabeledComplex, point: int, fields: Iterable[FieldSpec]
) -> list[tuple[FieldSpec, HomologyProfile]]:
    """The fields over which the restriction of delta to the monomial with
    mask point, which has a vertex, is not acyclic, each with its reduced
    Betti profile, in the order given.

    A restriction that `collapses_to_point` is contractible, hence acyclic
    over every field, so it is ranked over no field and never built: delta
    is restricted only when ranks are needed.  The collapse answers are
    kept on delta by vertex set, so the points of one scan share them."""
    if collapses_to_point(delta, point):
        return []
    restricted = delta.restrict(point)
    failures = []
    for field in fields:
        profile = reduced_betti(restricted, field)
        if not profile.is_acyclic:
            failures.append((field, profile))
    return failures


def _variable_twin_classes(ideal: MonomialIdeal) -> list[list[int]]:
    """The classes of the twin relation on the ideal's variables, each in
    increasing order: x and y are twins when swapping them maps the
    generator set onto itself.

    Twinness is an equivalence relation, as the swaps (x z) = (x y)(y z)(x y)
    compose, so each variable is tested against the first member of each
    class only.  Twins divide equally many generators, which rules out most
    classes before the swap is tried: a generator with exactly one of the
    two variables must map to a generator."""
    generators = set(ideal.generator_masks)
    counts = [ideal.num_generators - without.bit_count() for without in ideal.generators_without]
    classes: list[list[int]] = []
    for x, count in enumerate(counts):
        for members in classes:
            first = members[0]
            pair = 1 << first | 1 << x
            if counts[first] == count and all(
                g ^ pair in generators for g in generators if (g & pair).bit_count() == 1
            ):
                members.append(x)
                break
        else:
            classes.append([x])
    return classes


def is_scarf(ideal: MonomialIdeal, fields=DEFAULT_FIELDS) -> ScarfReport:
    """Scarf verdict per field, with the smallest failing lattice point as
    witness.  Ideals with at most one generator are trivially Scarf and scan
    nothing.

    The Scarf complex is restricted to each lcm-lattice point in ascending
    mask order, and each field's first point whose restriction is not
    acyclic is its witness.  Points, witnesses included, are masks; the
    report renders a witness through the ideal's universe.  Only the prefix
    masks of the variable twin classes are visited (`graphs._prefix_masks`,
    `_variable_twin_classes`), each through `_failing_fields` over the
    fields still undecided.  A restriction that is a simplex or
    strong-collapses to a vertex can be no field's witness, and
    `homology.collapses_to_point` decides it on the complex's per-variable
    face bit sets (`faces_without`), whose singleton faces give its
    vertices, without building it, from a table of collapse answers by
    vertex set that all points of the scan share.  At the label of a Scarf
    face the restriction is a full simplex, which its first test answers.  So
    restrictions are built and ranked only at the points the collapse test
    leaves standing, and verdicts, witnesses and their Betti profiles are
    those of a scan that ranks every point.  `num_lattice_points` counts
    the whole lattice.

    The orbit skip is sound.  Let G be the group of the permutations of
    the variables that map each twin class onto itself; it is generated by
    swaps of twins, so each of its members maps the generator set onto
    itself.  A sigma in G maps the lcm of a generator set to the lcm of its
    image, so lattice points to lattice points, and a face's label is
    unique exactly when its image's is, so Scarf faces to Scarf faces and
    labels to labels.  The generators dividing sigma(m) are the images of
    those dividing m, so sigma maps the restriction at m onto the one at
    sigma(m): the two are isomorphic and have the same reduced Betti
    numbers over every field.  So failure over a field is constant on an
    orbit, and each orbit holds one prefix mask, its smallest mask
    (`_prefix_masks`).  The first failing point in ascending order is
    therefore a prefix mask, and every verdict, witness and Betti profile
    is that of the scan of every point.

    The lattice scan finds the witness a scan of every monomial some
    generator divides would find.  If m is the first failing monomial in
    ascending mask order among those, let m' be the lcm of the generators
    dividing m.  Then m' is a lattice point and a submask of m, so m' <= m,
    and every face label dividing m is an lcm of generators dividing m and
    so divides m': the restrictions at m and m' are equal.  Hence m' fails
    too, so m' = m and m is a lattice point.  Lattice points are among those
    monomials in the same order, so the lattice scan meets the same first
    failure.  Every point either scan visits is divided by a generator,
    whose singleton face is in the Scarf complex, so every restriction has a
    vertex and reduced_betti applies.
    """
    fields = _normalize_fields(fields)
    lattice = lcm_lattice(ideal)
    complex_ = scarf_complex(ideal)
    witnesses = []
    if ideal.num_generators <= 1:
        verdicts = dict.fromkeys(fields, VERDICT_TRIVIALLY_SCARF)
    else:
        alive = list(fields)
        verdicts = {}
        for point in _prefix_masks(_variable_twin_classes(ideal), lattice):
            if not alive:
                break
            for field, profile in _failing_fields(complex_, point, alive):
                verdicts[field] = VERDICT_NOT_SCARF
                witnesses.append((field, point, profile))
                alive.remove(field)
        verdicts.update(dict.fromkeys(alive, VERDICT_SCARF))
    return ScarfReport(
        ideal=ideal,
        verdicts=tuple((f, verdicts[f]) for f in fields),
        witnesses=witnesses,
        num_scarf_faces=len(complex_.faces),
        num_lattice_points=len(lattice),
    )


# ---------------------------------------------------------------------------
# classification predicates


def theorem_spec(text: str) -> IdealSpec:
    """The ideal a theorem of the paper classifies: `A:<t>` (Theorem A,
    t >= 3) the connected ideal of degree t, `B` (Theorem B) the path ideal
    of degree 4; the letter may be lower case."""
    theorem = text.strip()
    if theorem.upper().startswith("A:"):
        try:
            t = int(theorem[2:])
        except ValueError:
            raise AnalysisError(f"cannot parse theorem {theorem!r}; use A:<t> or B") from None
        if t < 3:
            raise AnalysisError("the connected-ideal classification needs t >= 3")
        return IdealSpec("connected", t)
    if theorem.upper() == "B":
        return IdealSpec("path", 4)
    raise AnalysisError(f"unknown theorem {theorem!r}; use A:<t> or B")


def _predictor(spec: IdealSpec):
    """The classification's answer for a connected graph on n vertices, from
    n and its family tags, which it reads only when n > spec.t.

    Theorem A (connected:t, t >= 3): Scarf exactly for graphs on at most t
    vertices and paths on at most 2t.  Theorem B (path:4): Scarf exactly for
    graphs on at most four vertices, stars, triangles with pendant leaves at
    one vertex, double brooms on three or four spine vertices, and spiders
    on five or six spine vertices (any leaf counts >= 0; degenerate
    parameter choices cover the short paths)."""
    if spec.kind == "connected" and spec.t >= 3:
        t = spec.t
        return lambda n, tags: n <= t or any(
            tag.kind == "path" and tag.params[0] <= 2 * t for tag in tags
        )
    if spec.kind == "path" and spec.t == 4:
        return lambda n, tags: n <= 4 or any(tag.kind in THEOREM_B_FAMILY_KINDS for tag in tags)
    raise AnalysisError(f"no classification is wired up for spec {spec}")


def classify(graph: SimpleGraph, spec: IdealSpec) -> bool:
    """Predicted Scarf property of spec's ideal of a connected graph, by the
    classification `_predictor` wires up for spec; `sweep` reads the same
    predictor."""
    predict = _predictor(spec)
    if not is_connected(graph):
        raise AnalysisError("classification predicates expect a connected graph")
    return predict(graph.n, _family_tags(graph) if graph.n > spec.t else ())


# ---------------------------------------------------------------------------
# leaf gluing pipeline


class LeafPipelineReport(_Frozen):
    _fields = (
        "base", "glued", "x", "overlapping_pairs", "replacement_ok", "stars_ok",
        "disjointness_persists", "base_scarf", "glued_scarf",
    )

    @property
    def x_prime(self) -> int:
        return self.glued.universe.size - 1

    @property
    def hypothesis_holds(self) -> bool:
        return not self.overlapping_pairs

    @property
    def scarf_transfer(self) -> str:
        if not self.base_scarf:
            return "vacuous"
        return "verified" if self.glued_scarf else "violated"

    @property
    def ok(self) -> bool:
        return (
            self.hypothesis_holds
            and self.replacement_ok is True
            and self.stars_ok is True
            and self.disjointness_persists is True
            and self.scarf_transfer in ("verified", "vacuous")
        )

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "glued": self.glued.to_json_dict(),
            "x": self.base.universe.names[self.x],
            "x_prime": self.glued.universe.names[self.x_prime],
            "hypothesis_holds": self.hypothesis_holds,
            "overlapping_pairs": [list(p) for p in self.overlapping_pairs],
            "replacement_ok": self.replacement_ok,
            "stars_ok": self.stars_ok,
            "disjointness_persists": self.disjointness_persists,
            "scarf_transfer": self.scarf_transfer,
            "base_scarf": self.base_scarf,
            "glued_scarf": self.glued_scarf,
        }


def _stars_share_nonempty_face(a: frozenset[int], b: frozenset[int]) -> bool:
    """Whether two stars, as sets of face masks, share a face besides the
    empty one, which every star holds."""
    return len(a & b) > 1


def leaf_lemma_pipeline(ideal: MonomialIdeal, x: int, fields=DEFAULT_FIELDS) -> LeafPipelineReport:
    """Glue a fresh leaf variable onto x and verify the transfer statements:

    (i)  the glued Scarf complex is the old one together with, for each leafed
         generator, the cone from its replacement generator over its old star,
    (ii) each such star in the glued complex is exactly that cone, with the
         pairwise disjointness of the stars persisting,
    (iii) if the base ideal is Scarf, so is the glued one.

    The hypothesis is that the stars of the leafed generators pairwise share
    no nonempty face; when it fails the conclusions are not asserted.
    """
    fields = _normalize_fields(fields)
    leafed = leaf_split(ideal, x)
    glued = glue_leaf_ideal(ideal, x)
    x_prime = glued.universe.size - 1
    base_complex = scarf_complex(ideal)
    glued_complex = scarf_complex(glued)
    # glue_leaf_ideal keeps every old generator and adds each replacement, so no lookup misses
    glued_index = {g: k for k, g in enumerate(glued.generator_masks)}
    to_glued = [glued_index[g] for g in ideal.generator_masks]

    stars = {j: base_complex.star(1 << j).face_set for j in leafed}
    overlapping = tuple(
        (i, j)
        for i, j in itertools.combinations(leafed, 2)
        if _stars_share_nonempty_face(stars[i], stars[j])
    )

    x_bit = 1 << x
    x_prime_bit = 1 << x_prime
    apex = {
        j: glued_index[(ideal.generator_masks[j] & ~x_bit) | x_prime_bit] for j in leafed
    }

    def map_face(face: int) -> int:
        return sum(1 << to_glued[i] for i in _bits(face))

    base_report = is_scarf(ideal, fields)
    glued_report = is_scarf(glued, fields)

    def mapped_cone(j: int) -> frozenset[int]:
        """The cone from apex[j] over the glued image of j's old star: the
        image's faces, with and without the apex, which is a replacement
        generator and so in no image."""
        image = {map_face(face) for face in stars[j]}
        return frozenset(image.union(face | 1 << apex[j] for face in image))

    replacement_ok = stars_ok = disjointness_persists = None
    if not overlapping:
        cones = {j: mapped_cone(j) for j in leafed}
        expected = {map_face(face) for face in base_complex.faces}.union(*cones.values())
        replacement_ok = expected == glued_complex.face_set
        glued_stars = {j: glued_complex.star(1 << to_glued[j]).face_set for j in leafed}
        stars_ok = all(glued_stars[j] == cones[j] for j in leafed)
        disjointness_persists = not any(
            _stars_share_nonempty_face(glued_stars[i], glued_stars[j])
            for i, j in itertools.combinations(leafed, 2)
        )

    return LeafPipelineReport(
        base=ideal,
        glued=glued,
        x=x,
        overlapping_pairs=overlapping,
        replacement_ok=replacement_ok,
        stars_ok=stars_ok,
        disjointness_persists=disjointness_persists,
        base_scarf=base_report.all_scarf,
        glued_scarf=glued_report.all_scarf,
    )


# ---------------------------------------------------------------------------
# hereditary verdicts


def _graph_verdicts(
    graph: SimpleGraph,
    spec: IdealSpec,
    fields: tuple[FieldSpec, ...],
    parent_verdicts: Iterable[tuple[str, ...]],
) -> tuple[str, ...]:
    failed = {
        field
        for verdicts in parent_verdicts
        for field, verdict in zip(fields, verdicts)
        if verdict == VERDICT_NOT_SCARF
    }
    if len(failed) < len(fields):
        ideal = build_ideal(graph, spec)
        # A failing parent has two generators, and they are generators of G,
        # so here no field has failed yet.
        if ideal.num_generators <= 1:
            return (VERDICT_TRIVIALLY_SCARF,) * len(fields)
        covered = 0
        for mask in ideal.generator_masks:
            covered |= mask
        if covered == (1 << graph.n) - 1:
            alive = [field for field in fields if field not in failed]
            failed.update(
                field for field, _ in _failing_fields(scarf_complex(ideal), covered, alive)
            )
    return tuple(VERDICT_NOT_SCARF if f in failed else VERDICT_SCARF for f in fields)


def hereditary_verdicts(
    spec: IdealSpec, n_max: int, fields=DEFAULT_FIELDS, trees_only: bool = False
) -> Iterator[tuple[SimpleGraph, tuple[str, ...], tuple[tuple[str, ...], ...]]]:
    """Walk the connected graphs (with trees_only, the trees) on n =
    1..n_max vertices level by level, yielding (graph, verdicts,
    parent_verdicts): graph's verdict per field, as
    `is_scarf(build_ideal(graph, spec), fields).verdicts` gives it, and the
    verdicts of its parents.  n_max (against the enumerator's cap, by
    `_check_level_size`) and the fields are checked before any graph is
    built; only the level below is kept.

    Each class appears once per level, in the order the enumeration finds
    it, labelled as its first candidate (`graphs._level`); no canonical
    form is computed.  A graph's verdicts depend only on its own ideal and
    its parents' verdicts, so neither the order nor the labelling changes
    any verdict.

    A graph's parents are the classes of G - u over its non-cut vertices u
    (`graphs._extend_by_vertex`), so its verdicts follow from theirs.  G is not
    Scarf over a field F exactly when

    (a) some parent is not Scarf over F, or
    (b) x_V is an lcm-lattice point (the generator supports cover V) and
        Scarf(I(G)) is not acyclic over F.

    Both specs send induced subgraphs to restrictions: the generators of
    I(G) dividing x_W are those of I(G[W]), as every generator is a
    connected vertex set (a path in G inside W is a path in G[W]).  The
    Scarf complex commutes with restriction: a face with label dividing m is
    uniquely labelled among all generator sets exactly when it is among
    those dividing m.  So if G - u fails F at a lattice point, G fails at the
    same point with the same restriction, which gives (a); the whole complex
    is the restriction at x_V, which gives (b).  Conversely, let G fail F at
    a lattice point m != x_V with support W, a proper subset of V.  Each
    generator dividing m lies in one component of G[W], so the restriction
    at m is the join of the components' restrictions, and over a field a
    join is acyclic as soon as one factor is (Kunneth).  So every component
    C with a generator fails F at a lattice point of I(C).  C is a proper
    connected induced subgraph: extend a spanning tree of C to one of G a
    vertex at a time; the last vertex added is a leaf u outside C, so u is a
    non-cut vertex of G, and C lies in G - u, which then fails F by the
    first argument: (a) holds.

    A graph whose parents fail every field needs no ideal.  Otherwise
    `trivially_scarf` is read off at most one generator, which leaves every
    parent with at most one, and (b) is checked by `_failing_fields` on the
    whole complex over the fields its parents pass.
    """
    _check_level_size(n_max, trees_only)
    fields = _normalize_fields(fields)
    below: list[tuple[str, ...]] = []
    for n in range(1, n_max + 1):
        level = []
        for graph, parents in zip(*_level(n, trees_only)):
            parent_verdicts = tuple(below[p] for p in parents)
            verdicts = _graph_verdicts(graph, spec, fields, parent_verdicts)
            level.append(verdicts)
            yield graph, verdicts, parent_verdicts
        below = level


# ---------------------------------------------------------------------------
# sweeps


class SweepRecord(_Frozen):
    _fields = ("graph6", "n", "num_edges", "edges", "family", "predicted", "verdicts")

    @property
    def computed(self) -> bool:
        return all(v != VERDICT_NOT_SCARF for _, v in self.verdicts)

    @property
    def agree(self) -> bool:
        return self.predicted == self.computed

    @property
    def fields_disagree(self) -> bool:
        return len({v != VERDICT_NOT_SCARF for _, v in self.verdicts}) > 1

    def to_json_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "n": self.n,
            "num_edges": self.num_edges,
            "edges": self.edges,
            "family": self.family,
            "predicted": self.predicted,
            "computed": self.computed,
            "agree": self.agree,
            "verdicts": dict(self.verdicts),
        }


class SweepResult(_Frozen):
    _fields = ("spec", "n_max", "records")

    @property
    def disagreements(self) -> tuple[SweepRecord, ...]:
        return tuple(r for r in self.records if not r.agree)

    @property
    def field_conflicts(self) -> tuple[SweepRecord, ...]:
        return tuple(r for r in self.records if r.fields_disagree)

    def to_json_lines(self) -> list[str]:
        return [json.dumps(r.to_json_dict(), sort_keys=True) for r in self.records]


def _sweep_one(graph: SimpleGraph, predict, verdicts: tuple[tuple[str, str], ...]) -> SweepRecord:
    """The record of a graph of the walk, reported by its canonical form:
    the graph6 is that form, and the edges are those of the labelling it
    gives, decoded straight from the form's bytes."""
    form = graphs.canonical_form(graph, graph.n)
    tags = _family_tags(graph)
    return SweepRecord(
        graph6=form.decode("ascii"),
        n=graph.n,
        num_edges=graph.num_edges,
        edges=_edge_text(_graph6_rows(form)),
        family=tags[0].render() if tags else None,
        predicted=predict(graph.n, tags),
        verdicts=verdicts,
    )


def sweep(spec: IdealSpec, n_max: int, fields=DEFAULT_FIELDS) -> SweepResult:
    """Exhaustive comparison of the classification predicate against the
    computed Scarf property over all connected graphs on up to n_max vertices.

    The verdicts come from `hereditary_verdicts`, which checks n_max and the
    fields before any graph is built.  Each record is canonicalised, and
    the records are sorted by n, then by canonical form (their graph6)."""
    fields = tuple(fields)
    predict = _predictor(spec)
    names = [f.render() for f in fields]
    records = sorted(
        (
            _sweep_one(graph, predict, tuple(zip(names, verdicts)))
            for graph, verdicts, _ in hereditary_verdicts(spec, n_max, fields)
        ),
        key=lambda record: (record.n, record.graph6),
    )
    return SweepResult(spec=spec, n_max=n_max, records=records)


# ---------------------------------------------------------------------------
# obstruction catalogs


class ObstructionCatalog(_Frozen):
    """`graphs` are labelled by their canonical forms, so `to_graph6` of
    each is its form, and sorted by n, then by form."""

    _fields = ("spec", "n_max", "mode", "trees_only", "num_non_scarf", "graphs")

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.render(),
            "n_max": self.n_max,
            "mode": self.mode,
            "trees_only": self.trees_only,
            "num_non_scarf": self.num_non_scarf,
            "graphs": [to_graph6(g) for g in self.graphs],
        }


def derive_obstructions(
    spec: IdealSpec,
    n_max: int,
    mode: str,
    trees_only: bool = False,
    fields=DEFAULT_FIELDS,
) -> ObstructionCatalog:
    """Minimal non-Scarf connected graphs on up to n_max vertices under the
    chosen containment order ('induced' or 'subgraph'); with trees_only the
    search universe is the set of trees.  Only the catalog's graphs are
    canonicalised; they come by n, then by canonical form.

    Verdicts come from `hereditary_verdicts`, and both orders read the
    parents' verdicts.  Under 'induced', a non-Scarf graph is minimal
    exactly when all its parents are Scarf: a smaller non-Scarf connected
    induced subgraph lies in some G - u with u non-cut (see
    `hereditary_verdicts`), which is then non-Scarf too, and G - u is one
    itself.  Connected induced subgraphs of trees are trees, so this holds
    within the trees as well.

    Under 'subgraph', the induced catalog is filtered pairwise: G stays
    unless it contains a strictly smaller catalog graph as a subgraph
    (fewer vertices, or as many and fewer edges).  A subgraph-minimal
    non-Scarf graph is induced-minimal, as an induced subgraph is a
    subgraph.  Conversely, a catalog graph G with a smaller non-Scarf
    connected subgraph H is filtered out.  Following non-Scarf parents down
    from H reaches an induced-minimal M; M is an induced subgraph of H, so
    a subgraph of G, and strictly smaller than G (M is H itself if it has
    as many vertices), and M is in the catalog.  Parents of a tree are trees, so this holds
    within the trees too.  With trees_only both orders give the same
    graphs: a connected subgraph of a tree on vertex set W spans the forest
    G[W], so it equals G[W]."""
    if mode not in ("induced", "subgraph"):
        raise AnalysisError("mode must be 'induced' or 'subgraph'")
    num_non_scarf = 0
    minimal = []
    for graph, verdicts, parent_verdicts in hereditary_verdicts(spec, n_max, fields, trees_only):
        if VERDICT_NOT_SCARF in verdicts:
            num_non_scarf += 1
            if all(VERDICT_NOT_SCARF not in p for p in parent_verdicts):
                minimal.append(graph)
    if mode == "subgraph":
        minimal = [
            graph
            for graph in minimal
            # only strictly smaller candidates can witness non-minimality
            if not any(
                (other.n, other.num_edges) < (graph.n, graph.num_edges)
                and contains_subgraph(graph, other)
                for other in minimal
            )
        ]
    catalog = _canonical_copies(minimal)
    return ObstructionCatalog(
        spec=spec,
        n_max=n_max,
        mode=mode,
        trees_only=trees_only,
        num_non_scarf=num_non_scarf,
        graphs=catalog,
    )
