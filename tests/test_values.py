"""The value types compare, hash and print by their fields, in order, and
are frozen.  Each is built from a real object of the pipeline: a graph, its
ideal and Scarf complex, an `is_scarf` report, a sweep, a derivation and a
leaf pipeline."""

import importlib
import pkgutil

import pytest

import scarflab
from scarflab.analysis import (
    LeafPipelineReport,
    ObstructionCatalog,
    ScarfReport,
    SweepRecord,
    SweepResult,
    derive_obstructions,
    is_scarf,
    leaf_lemma_pipeline,
    sweep,
)
from scarflab.complexes import ComplexError, LabeledComplex, scarf_complex
from scarflab.graphs import (
    FamilyTag,
    GraphError,
    SimpleGraph,
    _Frozen,
    cycle_graph,
    recognize_family,
    spider5_graph,
)
from scarflab.homology import FieldSpec, HomologyError, HomologyProfile
from scarflab.ideals import IdealSpec, IdealSpecError, build_ideal
from scarflab.monomials import MonomialError, MonomialIdeal, VariableUniverse

P4 = IdealSpec("path", 4)
SPIDER = spider5_graph(1, 1, 1)
IDEAL = build_ideal(SPIDER, P4)
REPORT = is_scarf(build_ideal(cycle_graph(6), P4))  # not Scarf: it has witnesses
FIELD, _, PROFILE = REPORT.witnesses[0]
SWEEP = sweep(P4, 4)

# class -> (an instance, its field names in order, one field and another
# valid value for it)
CASES = {
    SimpleGraph: (SPIDER, ("adjacency",), "adjacency", cycle_graph(6).adjacency),
    FamilyTag: (recognize_family(SPIDER), ("kind", "params"), "params", (1, 1, 2)),
    VariableUniverse: (IDEAL.universe, ("names",), "names", ("a", "b")),
    MonomialIdeal: (
        IDEAL, ("universe", "generator_masks"), "generator_masks", IDEAL.generator_masks[1:],
    ),
    IdealSpec: (P4, ("kind", "t"), "t", 5),
    LabeledComplex: (scarf_complex(IDEAL), ("ideal", "faces"), "faces", (0,)),
    FieldSpec: (FIELD, ("kind", "p"), "p", 3),
    HomologyProfile: (PROFILE, ("field", "betti_minus_one", "betti"), "betti", (0, 7)),
    ScarfReport: (
        REPORT,
        ("ideal", "verdicts", "witnesses", "num_generators", "num_scarf_faces",
         "num_lattice_points"),
        "num_lattice_points", REPORT.num_lattice_points + 1,
    ),
    LeafPipelineReport: (
        leaf_lemma_pipeline(IDEAL, 5),
        ("base", "glued", "x", "x_prime", "hypothesis_holds", "overlapping_pairs",
         "replacement_ok", "stars_ok", "disjointness_persists", "scarf_transfer",
         "base_scarf", "glued_scarf"),
        "scarf_transfer", "violated",
    ),
    SweepRecord: (
        SWEEP.records[-1],
        ("graph6", "n", "num_edges", "edges", "family", "predicted", "computed", "verdicts"),
        "computed", not SWEEP.records[-1].computed,
    ),
    SweepResult: (
        SWEEP, ("spec", "n_max", "records", "disagreements", "field_conflicts"), "n_max", 5,
    ),
    ObstructionCatalog: (
        derive_obstructions(P4, 5, "induced", trees_only=True),
        ("spec", "n_max", "mode", "trees_only", "num_non_scarf", "graphs"),
        "mode", "subgraph",
    ),
}


def test_every_case_is_its_class():
    """Every value type of the package has a case, so one added or
    deleted without its case fails here."""
    for module in pkgutil.iter_modules(scarflab.__path__):
        importlib.import_module(f"scarflab.{module.name}")
    assert set(CASES) == set(_Frozen.__subclasses__())
    for cls, (value, *_) in CASES.items():
        assert type(value) is cls


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_value_semantics(cls):
    value, names, changed, other = CASES[cls]
    fields = {name: getattr(value, name) for name in names}
    values = tuple(fields.values())

    copy = cls(*values)
    assert copy == value and not copy != value
    assert hash(copy) == hash(value) == hash(values)
    assert cls(**fields) == value
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={field!r}" for name, field in fields.items()
    ) + ")"

    assert cls(**{**fields, changed: other}) != value
    assert value != values
    for other_cls, (other_value, *_) in CASES.items():
        if other_cls is not cls:
            assert value != other_value and not value == other_value

    for name in (names[0], "unset"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        delattr(value, names[0])
    assert getattr(value, names[0]) is fields[names[0]]


def test_cached_properties_are_kept():
    complex_ = CASES[LabeledComplex][0]
    assert SPIDER.degrees is SPIDER.degrees
    assert IDEAL.generators_without is IDEAL.generators_without
    assert complex_.face_columns is complex_.face_columns
    assert complex_.restrict((1 << IDEAL.universe.size) - 1) is complex_


def test_field_modulus_defaults_to_none():
    assert FieldSpec("rationals").p is None
    assert FieldSpec("rationals") == FieldSpec("rationals", None)


U2 = VariableUniverse.of_size(2)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: SimpleGraph((1,)), GraphError, "loop at vertex 0 not allowed"),
        (lambda: VariableUniverse(("a", "a")), MonomialError, "variable names must be distinct"),
        (
            lambda: VariableUniverse(("a*b", "c")),
            MonomialError,
            "variable name 'a*b' does not parse back: a name is nonempty, unpadded, "
            "not '1' and has no '*'",
        ),
        (lambda: MonomialIdeal(U2, (4,)), MonomialError, "support does not fit the universe"),
        (lambda: MonomialIdeal(U2, (-1,)), MonomialError, "support does not fit the universe"),
        (
            lambda: MonomialIdeal(U2, (U2.monomial([1]), U2.monomial([0]))),
            MonomialError,
            "mingens must be strictly sorted by support bit pattern",
        ),
        (
            lambda: IdealSpec("cycle", 3),
            IdealSpecError,
            "kind must be one of ('connected', 'path'), got 'cycle'",
        ),
        (
            lambda: LabeledComplex(IDEAL, (0, 0b10, 0b01)),
            ComplexError,
            "faces must be sorted by size then lexicographically",
        ),
        (
            lambda: LabeledComplex(IDEAL, (0, 0b01, 0b01)),
            ComplexError,
            "faces must be sorted by size then lexicographically",
        ),
        (
            lambda: LabeledComplex(IDEAL, (0, 1 << IDEAL.num_generators)),
            ComplexError,
            "face mask 64 references a missing generator",
        ),
        (
            lambda: LabeledComplex(IDEAL, (0, -1)),
            ComplexError,
            "face mask -1 references a missing generator",
        ),
        (
            lambda: LabeledComplex(IDEAL, (0b01,)),
            ComplexError,
            "a nonempty complex must start with the empty face",
        ),
        (
            lambda: LabeledComplex(IDEAL, (0, 0b01, 0b11)),
            ComplexError,
            "faces are not downward closed at [0, 1]",
        ),
        (lambda: FieldSpec("prime", 4), HomologyError, "4 is not prime"),
    ],
    ids=[
        "SimpleGraph", "VariableUniverse", "VariableUniverse-unparseable-name",
        "MonomialIdeal-mask-too-large", "MonomialIdeal-negative-mask", "MonomialIdeal", "IdealSpec",
        "LabeledComplex", "LabeledComplex-duplicate-face", "LabeledComplex-mask-too-large",
        "LabeledComplex-negative-mask", "LabeledComplex-no-empty-face",
        "LabeledComplex-not-closed", "FieldSpec",
    ],
)
def test_invalid_values_raise(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


# the classes with a field that holds a tuple
SEQUENCE_CASES = [
    cls for cls, (value, names, *_) in CASES.items()
    if any(isinstance(getattr(value, name), tuple) for name in names)
]


def test_sequence_cases():
    assert {cls.__name__ for cls in SEQUENCE_CASES} == {
        "SimpleGraph", "FamilyTag", "VariableUniverse", "MonomialIdeal", "LabeledComplex",
        "HomologyProfile", "ScarfReport", "LeafPipelineReport", "SweepRecord", "SweepResult",
        "ObstructionCatalog",
    }


@pytest.mark.parametrize("cls", SEQUENCE_CASES, ids=lambda cls: cls.__name__)
def test_sequence_field_given_as_list(cls):
    """A value built with its tuple fields given as lists stores tuples,
    so it equals and hashes like the one built from the tuples."""
    value, names, *_ = CASES[cls]
    args = [getattr(value, name) for name in names]
    listed = cls(*(list(arg) if isinstance(arg, tuple) else arg for arg in args))
    assert listed == value and hash(listed) == hash(value)
    assert repr(listed) == repr(value)
    for name in names:
        assert type(getattr(listed, name)) is type(getattr(value, name)), name
