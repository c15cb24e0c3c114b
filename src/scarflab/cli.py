"""Command-line front end.

Subcommands cover the whole pipeline: build an ideal from a graph, decide the
Scarf property, emit Taylor/Scarf complexes, compare classification predicates
against computed verdicts, run exhaustive sweeps, derive minimal obstruction
catalogs, and exercise the leaf-gluing pipeline.

Graphs are given as shorthand (path:6, cycle:5, star:4, family:T2,
family:S5(1,2,1)) or as @file with .g6, .adj or .json content.  The front end
only reads its arguments: a family's parameter count is checked by
`graphs.make_family`, a theorem name is mapped to its ideal by
`analysis.theorem_spec`, the field list and the `--n-max` cap are checked by
`analysis` and `graphs` before any work starts.  All JSON
output is emitted with sorted keys so identical invocations produce identical
bytes.  The scarf subcommand exits 0 when the ideal is Scarf, 1 when it is
not, 2 on usage or input errors; other subcommands use 0/2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import graphs
from .analysis import (
    classify,
    derive_obstructions,
    is_scarf,
    leaf_lemma_pipeline,
    sweep,
    theorem_spec,
)
from .complexes import scarf_complex, taylor_complex
from .graphs import (
    FamilyTag,
    SimpleGraph,
    _bits,
    graph_from_json_dict,
    make_family,
    parse_adjacency_text,
    parse_graph6,
    recognize_family,
    to_graph6,
)
from .homology import DEFAULT_FIELDS, FieldSpec
from .ideals import IdealSpec, build_ideal
from .monomials import MonomialIdeal

_FAMILY_SHORTHAND = re.compile(
    r"^([PCST])(\d+)(?:\(([\d,\s]*)\))?$"
)
# The kind of a bare letter token, and of an S token with a parameter list.
_LETTER_KINDS = {"P": "path", "C": "cycle", "S": "star", "T": "triangle"}
_SPINE_KINDS = {3: "broom3", 4: "broom4", 5: "spider5", 6: "spider6"}


class CliError(ValueError):
    pass


def parse_family_token(token: str) -> FamilyTag:
    """Family shorthand: P7, C5, S4 (star), T2, S3(1,2), S4(2,2), S5(1,2,1), S6(1,2,1).
    The parameter counts are `make_family`'s to check."""
    token = token.strip()
    unparsed = f"cannot parse family {token!r}; expected forms like T2, S4, S5(1,2,1)"
    match = _FAMILY_SHORTHAND.match(token)
    if not match:
        raise CliError(unparsed)
    letter, args = match.group(1), match.group(3)
    if args is not None and not args.strip():
        raise CliError(f"empty parameter list in {token!r}")
    try:  # an empty parameter, or a number past int()'s digit limit
        number = int(match.group(2))
        params = tuple(int(p) for p in args.split(",")) if args else None
    except ValueError:
        raise CliError(unparsed) from None
    if params is None:
        return FamilyTag(_LETTER_KINDS[letter], (number,))
    if letter != "S":
        raise CliError(f"{letter} takes no parameter list")
    if number not in _SPINE_KINDS:
        raise CliError(f"parameterized spines exist only for S3, S4, S5, S6, got S{number}")
    return FamilyTag(_SPINE_KINDS[number], params)


def parse_graph_argument(text: str) -> SimpleGraph:
    text = text.strip()
    if text.startswith("@"):
        return _load_graph_file(text[1:])
    kind, sep, value = text.partition(":")
    if not sep:
        raise CliError(
            f"cannot parse graph {text!r}; expected kind:value or @file"
        )
    kind = kind.strip().lower()
    value = value.strip()
    if kind in ("path", "cycle", "star"):
        try:
            number = int(value)
        except ValueError:
            raise CliError(f"{kind} takes an integer, got {value!r}") from None
        return make_family(FamilyTag(kind, (number,)))
    if kind == "family":
        return make_family(parse_family_token(value))
    raise CliError(f"unknown graph kind {kind!r}; use path, cycle, star, family or @file")


def _load_graph_file(path: str) -> SimpleGraph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read graph file {path}: {exc}") from None
    if path.endswith(".g6"):
        stripped = (line.strip() for line in text.splitlines())
        lines = [line for line in stripped if line and not line.startswith("#")]
        if len(lines) != 1:
            raise CliError(f"{path}: expected exactly one graph6 line, found {len(lines)}")
        return parse_graph6(lines[0])
    if path.endswith(".adj"):
        return parse_adjacency_text(text)
    if path.endswith(".json"):
        try:
            data = json.loads(text)
        except RecursionError:
            raise CliError(f"{path}: JSON nested too deeply") from None
        return graph_from_json_dict(data)
    raise CliError(f"{path}: unknown graph file extension (use .g6, .adj or .json)")


def _load_ideal_file(path: str) -> MonomialIdeal:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read ideal file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON ({exc})") from None
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply") from None
    return MonomialIdeal.from_json_dict(data)


def parse_fields(text: str) -> tuple[FieldSpec, ...]:
    """The fields of a comma list; `analysis` rejects an empty or repeating one."""
    return tuple(FieldSpec.parse(part) for part in text.split(",") if part.strip())


def _resolve_ideal(args: argparse.Namespace) -> MonomialIdeal:
    if args.ideal:
        if args.graph:
            raise CliError("give either --graph or --ideal, not both")
        return _load_ideal_file(args.ideal)
    if not args.graph:
        raise CliError("one of --graph or --ideal is required")
    if not args.spec:
        raise CliError("--spec is required with --graph")
    return build_ideal(parse_graph_argument(args.graph), IdealSpec.parse(args.spec))


def _emit(text: str, output: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"cannot write output file {output}: {exc}") from None
    else:
        sys.stdout.write(text)


def _json_block(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_ideal(args: argparse.Namespace) -> int:
    ideal = _resolve_ideal(args)
    if args.format == "json":
        _emit(_json_block(ideal.to_json_dict()), args.output)
    else:
        lines = [f"ideal: {ideal.render()}", f"num_generators: {ideal.num_generators}"]
        _emit("\n".join(lines), args.output)
    return 0


def _cmd_scarf(args: argparse.Namespace) -> int:
    ideal = _resolve_ideal(args)
    report = is_scarf(ideal, parse_fields(args.fields))
    if args.format == "json":
        _emit(_json_block(report.to_json_dict()), args.output)
    else:
        lines = [f"ideal: {ideal.render()}"]
        for field, verdict in report.verdicts:
            lines.append(f"{field.render()}: {verdict}")
        for field, mask, profile in report.witnesses:
            lines.append(
                f"witness[{field.render()}]: {ideal.universe.render(mask)} "
                f"betti={list(profile.betti)}"
            )
        lines.append(
            f"generators={report.num_generators} "
            f"scarf_faces={report.num_scarf_faces} "
            f"lattice_points={report.num_lattice_points}"
        )
        _emit("\n".join(lines), args.output)
    return 0 if report.all_scarf else 1


def _cmd_complex(args: argparse.Namespace) -> int:
    ideal = _resolve_ideal(args)
    if args.kind == "taylor":
        complex_ = taylor_complex(ideal)
    else:
        complex_ = scarf_complex(ideal)
    if args.restrict is not None:
        complex_ = complex_.restrict(ideal.universe.parse(args.restrict))
    if args.format == "json":
        _emit(_json_block(complex_.to_json_dict()), args.output)
    else:
        lines = [
            f"ideal: {ideal.render()}",
            f"f_vector: {list(complex_.f_vector())}",
            "faces: " + " ".join(
                "{" + ",".join(str(i) for i in _bits(face)) + "}" for face in complex_.faces
            ),
        ]
        _emit("\n".join(lines), args.output)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    graph = parse_graph_argument(args.graph)
    fields = parse_fields(args.fields)
    spec = theorem_spec(args.theorem)
    # the one form the report prints, first: its 10-vertex cap refuses a
    # larger input before any family catalog or ideal is built
    form = graphs.canonical_form(graph)
    predicted = classify(graph, spec)
    computed = is_scarf(build_ideal(graph, spec), fields).all_scarf
    tag = recognize_family(graph)
    data = {
        "graph6": form.decode("ascii"),
        "family": tag.render() if tag else None,
        "theorem": args.theorem.strip(),
        "spec": spec.render(),
        "predicted": predicted,
        "computed": computed,
        "agree": predicted == computed,
    }
    if args.format == "json":
        _emit(_json_block(data), args.output)
    else:
        _emit("\n".join(f"{key}: {data[key]}" for key in sorted(data)), args.output)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.jobs != 1:
        raise CliError("--jobs takes only 1: sweeps run in one process")
    result = sweep(IdealSpec.parse(args.spec), args.n_max, parse_fields(args.fields))
    if args.format == "json":
        _emit("\n".join(result.to_json_lines()), args.output)
    else:
        header = f"{'graph6':<12} {'n':>2} {'family':<16} {'predicted':<9} {'computed':<9} agree"
        lines = [header]
        for record in result.records:
            lines.append(
                f"{record.graph6:<12} {record.n:>2} "
                f"{(record.family or '-'):<16} "
                f"{str(record.predicted):<9} {str(record.computed):<9} {record.agree}"
            )
        lines.append(
            f"total={len(result.records)} disagreements={len(result.disagreements)} "
            f"field_conflicts={len(result.field_conflicts)}"
        )
        _emit("\n".join(lines), args.output)
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    catalog = derive_obstructions(
        IdealSpec.parse(args.spec),
        args.n_max,
        args.mode,
        trees_only=args.trees_only,
        fields=parse_fields(args.fields),
    )
    if args.format == "json":
        _emit(_json_block(catalog.to_json_dict()), args.output)
    else:
        lines = [
            "# minimal non-Scarf graphs (one canonical graph6 per line)",
            f"# spec={catalog.spec.render()} n_max={catalog.n_max} mode={catalog.mode} "
            f"trees_only={str(catalog.trees_only).lower()} fields={args.fields}",
            f"# non_scarf_total={catalog.num_non_scarf} minimal={len(catalog.graphs)}",
        ]
        lines.extend(to_graph6(g) for g in catalog.graphs)
        _emit("\n".join(lines), args.output)
    return 0


def _cmd_leaf(args: argparse.Namespace) -> int:
    ideal = _resolve_ideal(args)
    if not ideal.universe.size:
        raise CliError("--var: the ideal has no variables")
    name = args.var.strip()
    if name.isdigit() and name not in ideal.universe.names:
        try:  # a digit int() rejects (such as '²'), or past its digit limit
            x = int(name)
        except ValueError:
            raise CliError(f"--var takes a variable name or index, got {name!r}") from None
        if not 0 <= x < ideal.universe.size:
            raise CliError(f"--var index {x} out of range 0..{ideal.universe.size - 1}")
    else:
        x = ideal.universe.index_of(name)
    report = leaf_lemma_pipeline(ideal, x, parse_fields(args.fields))
    if args.format == "json":
        _emit(_json_block(report.to_json_dict()), args.output)
    else:
        data = report.to_json_dict()
        keys = [
            "x", "x_prime", "hypothesis_holds", "replacement_ok", "stars_ok",
            "disjointness_persists", "scarf_transfer", "base_scarf", "glued_scarf",
        ]
        _emit("\n".join(f"{key}: {data[key]}" for key in keys), args.output)
    if not report.hypothesis_holds:
        return 0
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser wiring


def _add_common(parser: argparse.ArgumentParser, *, graph_input: bool,
                ideal_input: bool = False, fields: bool = True,
                formats: tuple[str, ...] = ("json", "table")) -> None:
    if graph_input:
        parser.add_argument("--graph", help="path:6, cycle:5, star:4, family:S5(1,2,1), @file")
    if ideal_input:
        parser.add_argument("--ideal", help="JSON file with variables + mingens")
    if fields:
        parser.add_argument("--fields", default=",".join(f.render() for f in DEFAULT_FIELDS),
                            help="comma-separated coefficient fields (gf2, gf32003, q)")
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--output", help="write the report to this file instead of stdout")


def _wire_ideal(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", help="connected:<t> or path:<t>")
    _add_common(parser, graph_input=True, ideal_input=True, fields=False)


def _wire_scarf(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", help="connected:<t> or path:<t>")
    _add_common(parser, graph_input=True, ideal_input=True)


def _wire_complex(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", help="connected:<t> or path:<t>")
    parser.add_argument("--kind", choices=("taylor", "scarf"), default="scarf")
    parser.add_argument("--restrict", help="restrict to faces whose label divides this monomial")
    _add_common(parser, graph_input=True, ideal_input=True, fields=False)


def _wire_classify(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theorem", required=True, help="A:<t> or B")
    _add_common(parser, graph_input=True)


def _wire_sweep(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", required=True, help="connected:<t> or path:4")
    parser.add_argument("--n-max", type=int, required=True, dest="n_max")
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="only 1 is accepted; the flag remains only for the pinned benchmark "
             "argv and goes away once a benchmark change drops --jobs 1 from it",
    )
    _add_common(parser, graph_input=False)


def _wire_derive(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", required=True)
    parser.add_argument("--n-max", type=int, required=True, dest="n_max")
    parser.add_argument("--mode", choices=("induced", "subgraph"), required=True)
    parser.add_argument("--trees-only", action="store_true", dest="trees_only")
    _add_common(parser, graph_input=False, formats=("graph6", "json"))


def _wire_leaf(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", help="connected:<t> or path:<t>")
    parser.add_argument(
        "--var", required=True, help="variable name (x3), or an index when it names no variable"
    )
    _add_common(parser, graph_input=True, ideal_input=True)


# name -> (help, handler, wiring that adds the subcommand's arguments), in
# the order the top-level help lists them
_SUBCOMMANDS = {
    "ideal": ("construct the ideal of a graph", _cmd_ideal, _wire_ideal),
    "scarf": ("decide the Scarf property", _cmd_scarf, _wire_scarf),
    "complex": ("emit the Taylor or Scarf complex", _cmd_complex, _wire_complex),
    "classify": ("theorem predicate vs computed verdict", _cmd_classify, _wire_classify),
    "sweep": ("exhaustive classification cross-validation", _cmd_sweep, _wire_sweep),
    "derive": ("derive minimal non-Scarf graphs", _cmd_derive, _wire_derive),
    "leaf": ("run the leaf-gluing pipeline at a variable", _cmd_leaf, _wire_leaf),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; with a subcommand's name, only that
    subcommand is added.

    Such a parser reads an argv that starts with the name as the full one
    does: the top-level parser only checks the name against its choices
    and hands the rest to the subparser, whose prog, `scarflab <name>`,
    depends only on the top-level prog.  The top-level parser still
    reports arguments the subparser leaves unrecognized, under its usage
    line, so that line names all seven subcommands.  So help, usage
    errors, exit codes and the Namespace are the same, and a call pays for
    one subparser, not seven.  Without a name, as for no arguments, `-h` or an unknown
    command, all seven are added, so the top-level help and the "invalid
    choice" error list them all."""
    parser = argparse.ArgumentParser(
        prog="scarflab",
        description="Scarf complexes of t-connected and t-path ideals of small graphs",
    )
    # One subcommand still shows all seven in the top-level usage line,
    # which the top-level parser prints with "unrecognized arguments".
    choices = "{" + ",".join(_SUBCOMMANDS) + "}" if command else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=choices)
    for name in (command,) if command else _SUBCOMMANDS:
        help_text, handler, wire = _SUBCOMMANDS[name]
        subparser = sub.add_parser(name, help=help_text)
        wire(subparser)
        subparser.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:  # every scarflab error class subclasses ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
