import argparse
import hashlib
import json
import multiprocessing.pool
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import scarflab
from scarflab import analysis, graphs
from scarflab.cli import (
    CliError,
    build_parser,
    main,
    parse_family_token,
    parse_fields,
    parse_graph_argument,
)
from scarflab.complexes import DEFAULT_LATTICE_CAP
from scarflab.graphs import (
    FamilyTag,
    GraphError,
    SimpleGraph,
    canonical_form,
    path_graph,
    spider5_graph,
    to_graph6,
)
from scarflab.homology import GF2
from scarflab.ideals import IdealSpec

from reference import RATIONALS, are_isomorphic


class TestFamilyTokens:
    def test_plain_families(self):
        assert parse_family_token("P7") == FamilyTag("path", (7,))
        assert parse_family_token("C5") == FamilyTag("cycle", (5,))
        assert parse_family_token("S4") == FamilyTag("star", (4,))
        assert parse_family_token("T2") == FamilyTag("triangle", (2,))

    def test_parameterized_families(self):
        assert parse_family_token("S3(1,2)") == FamilyTag("broom3", (1, 2))
        assert parse_family_token("S4(2,2)") == FamilyTag("broom4", (2, 2))
        assert parse_family_token("S5(1,2,1)") == FamilyTag("spider5", (1, 2, 1))
        assert parse_family_token("S6(1, 1, 1)") == FamilyTag("spider6", (1, 1, 1))

    def test_rejections(self):
        for bad in ("P7(1)", "S7(1,1,1)", "X4", "S5()"):
            with pytest.raises(CliError):
                parse_family_token(bad)
        # a wrong parameter count is `make_family`'s to reject
        for bad in ("S5(1,2)", "S3(1,2,3)"):
            with pytest.raises(GraphError, match="parameters"):
                parse_graph_argument(f"family:{bad}")


class TestGraphArguments:
    def test_kind_value(self):
        assert are_isomorphic(parse_graph_argument("path:6"), path_graph(6))
        graph = parse_graph_argument("family:S5(1,1,1)")
        assert are_isomorphic(graph, spider5_graph(1, 1, 1))

    def test_rejections(self):
        for bad in ("path", "path:x", "blob:4", "family:Q1"):
            with pytest.raises(CliError):
                parse_graph_argument(bad)

    def test_graph6_file(self, tmp_path):
        path = tmp_path / "graph.g6"
        path.write_text("# comment\n" + to_graph6(path_graph(5)) + "\n")
        assert are_isomorphic(parse_graph_argument(f"@{path}"), path_graph(5))

    def test_graph6_file_must_hold_one_graph(self, tmp_path):
        path = tmp_path / "two.g6"
        path.write_text(to_graph6(path_graph(4)) + "\n" + to_graph6(path_graph(5)) + "\n")
        with pytest.raises(CliError):
            parse_graph_argument(f"@{path}")

    def test_indented_comment_skipped_in_graph_files(self, tmp_path, capsys):
        # the same indented comment line is skipped in a .g6 and an .adj file
        outputs = []
        for name, line in (("graph.g6", to_graph6(path_graph(4))),
                           ("graph.adj", "n=4; edges: 0-1, 1-2, 2-3")):
            path = tmp_path / name
            path.write_text(f"  # note\n{line}\n")
            assert main(["ideal", "--graph", f"@{path}", "--spec", "path:2"]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

    def test_adjacency_file(self, tmp_path):
        path = tmp_path / "graph.adj"
        path.write_text("# a path\nn=4; edges: 0-1, 1-2, 2-3\n")
        assert are_isomorphic(parse_graph_argument(f"@{path}"), path_graph(4))

    def test_json_file(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2]]}))
        assert are_isomorphic(parse_graph_argument(f"@{path}"), path_graph(3))

    def test_missing_and_unknown_files(self, tmp_path):
        with pytest.raises(CliError):
            parse_graph_argument(f"@{tmp_path}/absent.g6")
        stray = tmp_path / "graph.txt"
        stray.write_text("n=2; edges: 0-1")
        with pytest.raises(CliError):
            parse_graph_argument(f"@{stray}")


class TestFieldArguments:
    def test_parse_lists(self):
        assert parse_fields("gf2,q") == (GF2, RATIONALS)

    def test_empty_rejected(self, capsys):
        """An empty field list is rejected where the fields are used, with
        one `error:` line from every subcommand that takes fields."""
        for argv in (
            ["scarf", "--graph", "path:5", "--spec", "path:4"],
            ["classify", "--graph", "path:5", "--theorem", "B"],
            ["sweep", "--spec", "path:4", "--n-max", "4"],
            ["derive", "--spec", "path:4", "--n-max", "4", "--mode", "induced"],
            ["leaf", "--graph", "path:5", "--spec", "path:4", "--var", "x1"],
        ):
            assert main([*argv, "--fields", " , "]) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: need at least one coefficient field\n", argv

    def test_only_commands_that_rank_take_fields(self, capsys):
        """`ideal` and `complex` rank no homology, so argparse rejects
        `--fields` there (exit 2) instead of ignoring it; the other five
        commands read it (`test_empty_rejected`)."""
        for argv in (
            ["ideal", "--graph", "path:4", "--spec", "path:2"],
            ["complex", "--graph", "path:4", "--spec", "path:2"],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--fields", "gf2"])
            assert exc.value.code == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and "--fields" in captured.err, argv
            assert main(argv) == 0, argv
            capsys.readouterr()


class TestSubcommands:
    def test_ideal_table(self, capsys):
        assert main(["ideal", "--graph", "path:6", "--spec", "connected:3",
                     "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "ideal: (x1*x2*x3, x2*x3*x4, x3*x4*x5, x4*x5*x6)" in out
        assert "num_generators: 4" in out

    def test_ideal_json(self, capsys):
        assert main(["ideal", "--graph", "path:6", "--spec", "connected:3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mingens"][0] == [0, 1, 2]

    def test_scarf_exit_codes(self, capsys):
        assert main(["scarf", "--graph", "path:6", "--spec", "connected:3"]) == 0
        capsys.readouterr()
        assert main(["scarf", "--graph", "path:7", "--spec", "connected:3",
                     "--format", "table"]) == 1
        out = capsys.readouterr().out
        assert "gf2: not_scarf" in out
        assert "witness[gf2]: x1*x2*x3*x4*x5*x6*x7 betti=[0, 1]" in out
        assert "lattice_points=" in out

    def test_scarf_from_ideal_file(self, tmp_path, capsys):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"variables": ["a", "b"], "mingens": [[0, 1]]}))
        assert main(["scarf", "--ideal", str(path), "--format", "table"]) == 0
        assert "trivially_scarf" in capsys.readouterr().out

    def test_graph_and_ideal_are_exclusive(self, tmp_path, capsys):
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"variables": ["a"], "mingens": [[0]]}))
        assert main(["scarf", "--graph", "path:3", "--spec", "connected:3",
                     "--ideal", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_spec_required_with_graph(self, capsys):
        assert main(["scarf", "--graph", "path:3"]) == 2
        assert "spec" in capsys.readouterr().err

    def test_complex_scarf_table(self, capsys):
        assert main(["complex", "--graph", "path:6", "--spec", "connected:3",
                     "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "f_vector: [4, 3]" in out

    def test_complex_taylor_restricted(self, capsys):
        assert main(["complex", "--graph", "path:6", "--spec", "connected:3",
                     "--kind", "taylor", "--restrict", "x1*x2*x3*x4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["faces"] == [[], [0], [1], [0, 1]]

    def test_classify_a(self, capsys):
        assert main(["classify", "--graph", "path:6", "--theorem", "A:3"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "graph6": canonical_form(path_graph(6)).decode("ascii"),
            "family": "path(6)",
            "theorem": "A:3",
            "spec": "connected:3",
            "predicted": True,
            "computed": True,
            "agree": True,
        }

    def test_classify_b(self, capsys):
        assert main(["classify", "--graph", "cycle:5", "--theorem", "B"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["predicted"] is False and data["computed"] is False

    def test_classify_unknown_theorem(self, capsys):
        assert main(["classify", "--graph", "path:4", "--theorem", "C"]) == 2
        assert "unknown theorem" in capsys.readouterr().err

    @pytest.mark.parametrize("theorem", ["A:x", "A:"])
    def test_classify_unparseable_degree(self, theorem, capsys):
        assert main(["classify", "--graph", "path:5", "--theorem", theorem]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert repr(theorem) in captured.err and "use A:<t> or B" in captured.err

    def test_sweep_table(self, capsys):
        assert main(["sweep", "--spec", "connected:3", "--n-max", "4",
                     "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "total=10 disagreements=0 field_conflicts=0" in out

    def test_sweep_json_lines(self, capsys):
        assert main(["sweep", "--spec", "connected:3", "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line)["agree"] for line in lines)

    def test_derive_graph6_format(self, capsys):
        assert main(["derive", "--spec", "path:4", "--n-max", "5",
                     "--mode", "subgraph"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("# minimal non-Scarf graphs")
        assert "# spec=path:4 n_max=5 mode=subgraph trees_only=false" in lines[1]
        assert lines[2].startswith("# non_scarf_total=")
        assert lines[3:] == ["DBk", "DIk", "DLo", "D`["]

    def test_leaf_verified(self, capsys):
        assert main(["leaf", "--graph", "family:S5(1,1,1)", "--spec", "path:4",
                     "--var", "x7", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "scarf_transfer: verified" in out
        assert "x_prime: x7'" in out

    def test_leaf_hypothesis_failure_reports_cleanly(self, capsys):
        assert main(["leaf", "--graph", "family:S5(1,1,1)", "--spec", "path:4",
                     "--var", "2", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "hypothesis_holds: False" in out
        assert "scarf_transfer: violated" in out

    def test_leaf_bad_variable(self, capsys):
        assert main(["leaf", "--graph", "path:4", "--spec", "path:4",
                     "--var", "x9"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_leaf_var_name_before_index(self, tmp_path, capsys):
        """A --var that names a variable is that variable, even when it is
        all digits; only one that names no variable is read as an index."""
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"variables": ["1a", "0", "b"], "mingens": [[0, 1], [1, 2]]}))
        for var, name in (("0", "0"), ("2", "b")):
            assert main(["leaf", "--var", var, "--format", "table", "--ideal", str(path)]) == 0
            assert capsys.readouterr().out.splitlines()[0] == f"x: {name}"
        assert main(["leaf", "--var", "3", "--ideal", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --var index 3 out of range 0..2\n"

    def test_ideal_without_variables_rejected(self, tmp_path, capsys):
        """An ideal over no variables gives one `error:` line saying so, both
        for a --var of leaf and for a generator naming a variable index."""
        path = tmp_path / "empty.json"
        cases = [
            ({"variables": [], "mingens": [[]]}, ["leaf", "--var", "0"],
             "error: --var: the ideal has no variables\n"),
            ({"variables": [], "mingens": []}, ["leaf", "--var", "x1"],
             "error: --var: the ideal has no variables\n"),
            ({"variables": [], "mingens": [[0]]}, ["ideal"],
             "error: variable index 0: the universe has no variables\n"),
        ]
        for data, argv, message in cases:
            path.write_text(json.dumps(data))
            assert main([*argv, "--ideal", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == message

    @pytest.mark.parametrize("names, argv", [
        (["1", "x"], ["ideal", "--format", "table"]),
        (["a*b", "c"], ["complex", "--restrict", "a*b"]),
        ([" a", "b"], ["complex", "--restrict", " a"]),
    ], ids=["one", "star", "padded"])
    def test_names_that_do_not_parse_back_rejected(self, names, argv, tmp_path, capsys):
        """A variable name that a rendered monomial could not be parsed back
        from gives one `error:` line naming it, whatever the subcommand."""
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps({"variables": names, "mingens": [[0], [1]]}))
        assert main([*argv, "--ideal", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: variable name {names[0]!r} does not parse back: a name is nonempty, "
            "unpadded, not '1' and has no '*'\n"
        )


class TestLimits:
    def test_n_max_above_cap_rejected(self, capsys):
        for argv, cap in (
            (["sweep", "--spec", "connected:3", "--n-max", "8"], 7),
            (["derive", "--spec", "path:4", "--n-max", "8", "--mode", "subgraph"], 7),
            (["derive", "--spec", "path:4", "--n-max", "11", "--mode", "induced",
              "--trees-only"], 10),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert f"enumeration supports 1..{cap} vertices" in captured.err

    def test_derive_trees_reach_the_tree_cap(self, capsys):
        """89 and the two minimal trees are what a full `is_scarf` scan and
        `reference.minimal_induced` give on the trees with up to 10 vertices."""
        argv = ["derive", "--spec", "path:5", "--n-max", "10", "--mode", "induced",
                "--trees-only"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.endswith("# non_scarf_total=89 minimal=2\nF??}O\nF@Q?w\n")

    def test_prime_field_at_or_above_2_31_rejected(self, capsys):
        argv = ["scarf", "--graph", "path:5", "--spec", "connected:3", "--fields"]
        assert main(argv + ["gf2147483647"]) == 0
        capsys.readouterr()
        assert main(argv + ["gf2147483659"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "2^31" in captured.err

    def test_unparseable_field_rejected(self, capsys):
        argv = ["scarf", "--graph", "path:5", "--spec", "connected:3", "--fields"]
        for field in ("gf", "gfx", "gf2.5"):
            assert main(argv + [f"gf2,{field}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cannot parse field '{field}'\n"

    def test_unparseable_family_or_spec_rejected(self, capsys):
        """An empty parameter or a number past int()'s digit limit gives one
        `error:` line naming the token, not Python's int() message."""
        digits = "1" * 5000
        family = "error: cannot parse family '{}'; expected forms like T2, S4, S5(1,2,1)\n"
        spec = "error: bad ideal spec '{}'; use connected:<t> or path:<t>\n"
        cases = [
            (["--graph", f"family:{token}", "--spec", "path:4"], family.format(token))
            for token in ("S3(1,)", "S3(,1)", "S5(1,,2)", "S5(1,2,3,)", "S3( ,1)", f"P{digits}")
        ] + [
            (["--graph", "path:5", "--spec", text], spec.format(text))
            for text in ("path:x", "connected:", f"path:{digits}")
        ]
        for argv, message in cases:
            assert main(["scarf", *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "invalid literal" not in captured.err and "limit" not in captured.err
            if digits not in message:  # past the digit limit only from Python 3.11
                assert captured.err == message

    def test_unparseable_leaf_variable_rejected(self, capsys):
        """A --var of digits int() rejects, or past its digit limit, gives one
        `error:` line naming --var, not Python's int() message."""
        argv = ["leaf", "--graph", "family:S5(1,1,1)", "--spec", "path:4", "--var"]
        for var in ("²", "1" * 5000):
            assert main(argv + [var]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: --var ") and captured.err.count("\n") == 1
            assert "invalid literal" not in captured.err and "limit" not in captured.err

    def test_unparseable_adjacency_file_rejected(self, tmp_path, capsys):
        """A vertex count or edge token that is not a number gives one
        `error:` line naming the line and the token."""
        path = tmp_path / "g.adj"
        digits = "1" * 5000
        for text, message in (
            ("n=x; edges: 0-1", "line 1: bad vertex count 'x'"),
            ("n=3; edges: 0-y", "line 1: bad edge token '0-y'"),
            ("n=3; edges: 0-1-2", "line 1: bad edge token '0-1-2'"),
            (f"n={digits}; edges: 0-1", f"line 1: bad vertex count '{digits}'"),
        ):
            path.write_text(text)
            assert main(["ideal", "--graph", f"@{path}", "--spec", "path:2"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
            assert "invalid literal" not in captured.err and "Exceeds the limit" not in captured.err

    def test_jobs_other_than_one_rejected(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", no_pool)
        for jobs in ("0", "2"):
            assert main(["sweep", "--spec", "path:4", "--n-max", "3", "--jobs", jobs]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            assert "--jobs" in captured.err


class TestInputErrors:
    def test_oversized_graphs_rejected(self, tmp_path, capsys):
        """Graphs past the 62-vertex graph cap are refused before they are
        built; those within it but past the 32-variable cap, by the ideal."""
        huge = tmp_path / "huge.adj"
        huge.write_text("n=1000000000000; edges: 0-1")
        for graph, cap in (("path:33", "32"), ("star:32", "32"),
                           ("family:S5(20,20,20)", "62"),
                           ("path:99999999999999", "62"), (f"@{huge}", "62")):
            assert main(["ideal", "--graph", graph, "--spec", "connected:2"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert cap in err, err
        assert main(["ideal", "--graph", "path:32", "--spec", "connected:2"]) == 0

    def test_scarf_refuses_lattices_past_the_cap(self, capsys):
        """S5(9,9,9) under path:4 has about 10^8 lattice points; the lattice
        stops growing at `DEFAULT_LATTICE_CAP` and the command exits 2 with
        one error line, not 1, which means "not Scarf"."""
        argv = ["scarf", "--graph", "family:S5(9,9,9)", "--spec", "path:4"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: lcm lattice capped at {DEFAULT_LATTICE_CAP} points\n"

    def test_classify_refuses_graphs_past_the_form_cap(self, monkeypatch, capsys):
        """classify prints the input's canonical form, capped at 10 vertices;
        a larger graph is refused before any family catalog or ideal is
        built.  Family recognition itself has no cap."""

        def never(*args, **kwargs):
            raise AssertionError("a family catalog or an ideal was built")

        graphs._family_index.cache_clear()  # a cached index would skip the catalog
        for module in list(sys.modules.values()):
            if module.__name__.startswith("scarflab"):
                for name in ("family_catalog", "build_ideal"):
                    if name in vars(module):
                        monkeypatch.setattr(module, name, never)
        for graph in ("path:11", "family:S5(2,2,2)"):
            assert main(["classify", "--graph", graph, "--theorem", "B"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: canonical form capped at 10 vertices\n", graph

    @pytest.mark.parametrize(
        "name, content, argv",
        [
            ("ideal.json", [[0, 1]], ["scarf", "--ideal"]),
            ("ideal.json", {"variables": ["a", "b"]}, ["scarf", "--ideal"]),
            ("ideal.json", {"variables": ["a", "b"], "mingens": [0]}, ["scarf", "--ideal"]),
            ("g.json", {"n": 3}, ["scarf", "--spec", "connected:3", "--graph"]),
        ],
        ids=["top-level-array", "missing-mingens", "bare-index-generator", "graph-without-edges"],
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, name, content, argv):
        path = tmp_path / name
        path.write_text(json.dumps(content))
        target = f"@{path}" if argv[-1] == "--graph" else str(path)
        assert main(argv + [target]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    @pytest.mark.parametrize(
        "argv",
        [["scarf", "--graph", "path:5", "--spec", "connected:3"],
         ["sweep", "--spec", "path:4", "--n-max", "4"]],
        ids=["scarf", "sweep"],
    )
    def test_unwritable_output_exits_2(self, tmp_path, capsys, argv, target):
        # exit 1 would read as "not Scarf"
        output = tmp_path / "missing" / "r.json" if target == "missing-directory" else tmp_path
        assert main(argv + ["--output", str(output)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
        assert str(output) in captured.err
        assert captured.out == ""


class TestDeterminism:
    def test_sweep_output_is_stable(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        for target, jobs in ((first, ["--jobs", "1"]), (second, [])):
            assert main(["sweep", "--spec", "path:4", "--n-max", "4",
                         *jobs, "--output", str(target)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_derive_output_is_stable(self, tmp_path):
        first = tmp_path / "a.g6"
        second = tmp_path / "b.g6"
        for target in (first, second):
            assert main(["derive", "--spec", "path:4", "--n-max", "5",
                         "--mode", "subgraph", "--output", str(target)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestCanonicalisation:
    """The level walk computes no canonical form; `sweep` and `derive`
    canonicalise only the graphs they print and sort them by form."""

    REPORTS = (
        ["sweep", "--spec", "connected:3", "--n-max", "6", "--format", "json"],
        ["sweep", "--spec", "path:4", "--n-max", "6", "--format", "json"],
        ["derive", "--spec", "path:5", "--n-max", "9", "--mode", "induced", "--trees-only"],
        ["derive", "--spec", "path:4", "--n-max", "9", "--mode", "subgraph", "--trees-only"],
    )

    @staticmethod
    def output(argv, capsys) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    @staticmethod
    def count_forms(monkeypatch) -> list[int]:
        """Cold levels and family index, and the size of every graph
        `canonical_form` is called on from now on."""
        for cached in (graphs._level, graphs._canonical_level, graphs._family_index):
            cached.cache_clear()
        calls = []
        production = graphs.canonical_form

        def counting(graph, *args):
            calls.append(graph.n)
            return production(graph, *args)

        monkeypatch.setattr(graphs, "canonical_form", counting)
        return calls

    def test_reports_ignore_the_walk_order_and_labelling(self, monkeypatch, capsys):
        # each level reversed, each graph relabelled by a seeded permutation,
        # and the parents remapped to match
        expected = [self.output(argv, capsys) for argv in self.REPORTS]
        production = graphs._level

        def shuffled(n, trees_only):
            reps, parents = production(n, trees_only)
            size_below = len(production(n - 1, trees_only)[0]) if n > 1 else 0
            rng = random.Random(f"{n} {trees_only}")
            moved = []
            for graph in reversed(reps):
                image = list(range(n))
                rng.shuffle(image)
                moved.append(SimpleGraph.from_edges(n, [(image[u], image[v]) for u, v in graph.edges]))
            remapped = [tuple(sorted(size_below - 1 - p for p in ps)) for ps in reversed(parents)]
            return tuple(moved), tuple(remapped)

        monkeypatch.setattr(analysis, "_level", shuffled)
        assert [self.output(argv, capsys) for argv in self.REPORTS] == expected

    def test_only_printed_graphs_are_canonicalised(self, monkeypatch, capsys):
        calls = self.count_forms(monkeypatch)
        for spec, trees_only, n_max in ((IdealSpec("path", 4), False, 7),
                                        (IdealSpec("path", 5), True, 9)):
            assert sum(1 for _ in analysis.hereditary_verdicts(spec, n_max, trees_only=trees_only))
        assert calls == []
        sweep_argv, derive_argvs = self.REPORTS[1], self.REPORTS[2:]
        for argv, forms in zip(derive_argvs, (2, 5)):
            calls.clear()
            self.output(argv, capsys)
            assert len(calls) == forms, argv
        # one form per record: the family catalog is filed with no form
        calls.clear()
        records = self.output(sweep_argv, capsys).splitlines()
        assert len(calls) == len(records) == 143

    def test_sweep_records_are_read_off_the_form_bytes(self, monkeypatch, capsys):
        # each record's graph6 and edges come from its form's bytes, so a
        # sweep report encodes and parses no graph6 string
        calls = []
        for module in (graphs, analysis, sys.modules["scarflab.cli"]):
            for name in ("parse_graph6", "to_graph6"):
                if name in vars(module):
                    production = getattr(module, name)

                    def counting(*args, _name=name, _production=production):
                        calls.append(_name)
                        return _production(*args)

                    monkeypatch.setattr(module, name, counting)
        for argv in self.REPORTS[:2]:
            assert len(self.output(argv, capsys).splitlines()) == 143
        assert calls == []

    def test_classify_computes_the_input_form_once(self, monkeypatch, capsys):
        # one form, the input's; the 55 members of the ten-vertex family
        # catalog are filed in 30 classes with none
        calls = self.count_forms(monkeypatch)
        self.output(["classify", "--graph", "family:S5(2,1,2)", "--theorem", "B"], capsys)
        assert calls == [10]
        assert len(graphs.family_catalog(10)) == 55 and len(graphs._family_index(10)[1]) == 30

    def test_classify_looks_the_family_up_once(self, monkeypatch, capsys):
        # the prediction (n = 10 > t = 4 reads the tags) and the report's
        # family field share one lookup of the input against the catalog
        classes = graphs._family_index(10)[0]  # filed before counting
        calls = []
        production = graphs._find_class

        def counting(*args):
            calls.append(args[0])
            return production(*args)

        monkeypatch.setattr(graphs, "_find_class", counting)
        out = self.output(["classify", "--graph", "family:S5(2,1,2)", "--theorem", "B"], capsys)
        report = json.loads(out)
        assert report["family"] == "spider5(2, 1, 2)" and report["predicted"]
        assert len(calls) == 1 and calls[0] is classes

    def test_derive_encodes_each_printed_graph_once(self, monkeypatch, capsys):
        # the catalog is sorted by the form bytes, so a derive report encodes
        # each printed graph once, to print it, and parses none
        calls = []
        for module in (graphs, analysis, sys.modules["scarflab.cli"]):
            for name in ("parse_graph6", "to_graph6"):
                if name in vars(module):
                    production = getattr(module, name)

                    def counting(*args, _name=name, _production=production):
                        calls.append(_name)
                        return _production(*args)

                    monkeypatch.setattr(module, name, counting)
        for argv, printed in zip(self.REPORTS[2:], (2, 5)):
            calls.clear()
            lines = self.output(argv, capsys).splitlines()
            assert len(lines) == 3 + printed, argv
            assert calls == ["to_graph6"] * printed, argv


class TestPinnedReports:
    def test_largest_scarf_spider(self, capsys):
        """S5(4,4,4) under path:4 (18 generators, 5118 lattice points), the
        largest Scarf case here; the benchmark runs only smaller spiders."""
        argv = ["scarf", "--graph", "family:S5(4,4,4)", "--spec", "path:4",
                "--fields", "gf2,gf32003,q"]
        assert main(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == (
            "abe54859519cd98fdc4fe49b1a780869e83100ffde3575cc50248439f4860cbb"
        )

    def test_spider_with_large_twin_classes(self, capsys):
        """S5(5,5,5) under path:4 (22 generators, 36,862 lattice points),
        whose leaves make three twin classes of five variables; the digest
        was taken from a scan that tests every lattice point."""
        argv = ["scarf", "--graph", "family:S5(5,5,5)", "--spec", "path:4",
                "--fields", "gf2,gf32003,q"]
        assert main(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == (
            "e3901f35a93de2718831eecf67e9beed9b76c6e992b694211353f753a3745836"
        )

    @pytest.mark.parametrize("argv, digest", [
        (["sweep", "--spec", "connected:3", "--n-max", "7", "--format", "json"],
         "e0166f79c95c740f8a47b236be62a22300ed99397063f270b67d2e6163323a6a"),
        (["sweep", "--spec", "path:4", "--n-max", "7", "--format", "json"],
         "f2f3758e3167a150285b2e80d15bfd1c2b5696c65c261f9a10fe521dbc27086a"),
        (["derive", "--spec", "path:5", "--n-max", "7", "--mode", "induced"],
         "24cb70b9f838806889ee9227115311fa7bf2104a4a4415726cb4ef76f46a1452"),
    ], ids=["sweep-connected3-n7", "sweep-path4-n7", "derive-path5-induced-n7"])
    def test_seven_vertex_reports(self, argv, digest, capsys):
        """Reports on all 853 seven-vertex classes, which the benchmark does
        not reach; the digests were taken from a full lattice scan of every
        graph and a pairwise induced-containment search."""
        assert main(argv) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == digest

    # The 4-cycle a-b-c'-d with a pendant d-e: not Scarf, with witness
    # a*b*c'*d, so every report renders monomials over names other than x<i>.
    NAMED_IDEAL = {
        "variables": ["a", "b", "c'", "d", "e"],
        "mingens": [[0, 1], [1, 2], [2, 3], [0, 3], [3, 4]],
    }

    @pytest.mark.parametrize("argv, code, digest", [
        (["ideal", "--format", "json"], 0,
         "35218a501d0a3e8e0528fcc738ca41fae6b0ee41767961379469e669a5f10ab9"),
        (["ideal", "--format", "table"], 0,
         "6a38b2796eaffef6dc45bf111d1ceecc8a39ba6b2342825c0662276bb19a4fd0"),
        (["scarf", "--format", "json"], 1,
         "b41fba1ef1825c487d3b11a250fb218de7adc5d6ad7a757a5edaf48450e0d3ca"),
        (["scarf", "--format", "table"], 1,
         "f9bd9ee6e99f92d7ecf19e637357f6be030f6f03f6f1f08aa5fb9412fef8e04b"),
        (["complex", "--restrict", "a*b*c'*d", "--format", "json"], 0,
         "3c98457d7237c6e1551a5f413b712eff679628d83082351f0cbdc574bd9cec4e"),
        (["complex", "--restrict", "a*b*c'*d", "--format", "table"], 0,
         "b3aa4e269fc1e6993299e13f2b0544c1f8479d7dca323fddb9bcdcc2db88ebd6"),
        (["complex", "--kind", "taylor", "--format", "json"], 0,
         "70a30f46724874ebc7728ec2262cb963a47d1bf99e15ecaa1e442132a4deef5a"),
        (["complex", "--kind", "taylor", "--format", "table"], 0,
         "9869c35819d4fda1278bfa0dc3fff4979dee50b777d0e8f49a8fe9dceefe8b5e"),
        (["leaf", "--var", "e", "--format", "json"], 0,
         "15f6ed61127afd8a90c64696dfe912dc6be8c4185ef518d7f27d2bf4f9b70580"),
        (["leaf", "--var", "e", "--format", "table"], 0,
         "7278cd46c142a7f7160af697b63a256c264392d24397af2038c666971887a43f"),
    ], ids=["ideal-json", "ideal-table", "scarf-json", "scarf-table", "restrict-json",
            "restrict-table", "taylor-json", "taylor-table", "leaf-json", "leaf-table"])
    def test_named_ideal_reports(self, argv, code, digest, tmp_path, capsys):
        """Every path that renders a monomial, on an --ideal file.  The
        Taylor complex lists faces {0,3} before {1,2}, which ascending face
        masks (6 before 9) would swap."""
        path = tmp_path / "ideal.json"
        path.write_text(json.dumps(self.NAMED_IDEAL))
        assert main(argv + ["--ideal", str(path)]) == code
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == digest


SUBCOMMAND_NAMES = ("ideal", "scarf", "complex", "classify", "sweep", "derive", "leaf")
CHOICES = "{" + ",".join(SUBCOMMAND_NAMES) + "}"

# per subcommand, an argv that parses, with every argument it takes given
VALID_ARGV = {
    "ideal": ["ideal", "--graph", "path:5", "--spec", "path:4", "--format", "table",
              "--output", "out.txt"],
    "scarf": ["scarf", "--ideal", "ideal.json", "--fields", "q", "--format", "table"],
    "complex": ["complex", "--graph", "cycle:5", "--spec", "connected:3", "--kind", "taylor",
                "--restrict", "x1*x2", "--format", "json"],
    "classify": ["classify", "--graph", "cycle:5", "--theorem", "B", "--fields", "gf2"],
    "sweep": ["sweep", "--spec", "path:4", "--n-max", "5", "--jobs", "1", "--format", "table"],
    "derive": ["derive", "--spec", "path:4", "--n-max", "6", "--mode", "subgraph",
               "--trees-only", "--format", "json"],
    "leaf": ["leaf", "--graph", "family:S5(1,1,1)", "--spec", "path:4", "--var", "x3",
             "--fields", "gf2,q"],
}


def parse_outcome(parser: argparse.ArgumentParser, argv: list[str], capsys):
    """The Namespace, or the exit code, stdout and stderr of a parse."""
    try:
        return parser.parse_args(argv)
    except SystemExit as exc:
        out, err = capsys.readouterr()
        return exc.code, out, err


class TestParser:
    def test_table_covers_every_subcommand(self):
        assert set(VALID_ARGV) == set(SUBCOMMAND_NAMES)

    @pytest.mark.parametrize("name", SUBCOMMAND_NAMES)
    def test_one_subparser_parses_as_all_seven(self, name, capsys):
        """A parser holding one subcommand gives the same Namespace, help
        and usage errors as the full parser, on argv that start with it."""
        for argv, code in (
            (VALID_ARGV[name], None),
            ([name, "--help"], 0),
            ([name, "--no-such-flag"], 2),
            ([*VALID_ARGV[name], "extra"], 2),
            ([*VALID_ARGV[name], "--format", "xml"], 2),
        ):
            full = parse_outcome(build_parser(), argv, capsys)
            single = parse_outcome(build_parser(name), argv, capsys)
            assert single == full, argv
            if code is None:
                assert isinstance(full, argparse.Namespace) and full.command == name
            else:
                assert full[0] == code and (full[1] if code == 0 else full[2]), argv

    @pytest.mark.parametrize("argv, code, stream", [
        ([], 2, "err"), (["--help"], 0, "out"), (["-h"], 0, "out"), (["bogus"], 2, "err"),
    ], ids=["no-arguments", "help", "h", "unknown-command"])
    def test_top_level_lists_all_seven(self, argv, code, stream, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == code
        text = getattr(capsys.readouterr(), stream)
        assert f"usage: scarflab [-h] {CHOICES} ..." in text
        if argv == ["bogus"]:
            listed = ", ".join(repr(name) for name in SUBCOMMAND_NAMES)
            assert f"invalid choice: 'bogus' (choose from {listed})" in text
        if code == 0:
            for name in SUBCOMMAND_NAMES:
                assert f"\n    {name} " in text

    def test_a_subcommand_call_adds_one_subparser(self, monkeypatch, capsys):
        added = []
        original = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            added.append(name)
            return original(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        assert main(["scarf", "--graph", "path:4", "--spec", "path:4"]) == 0
        assert added == ["scarf"]
        added.clear()
        with pytest.raises(SystemExit):
            main(["--help"])
        assert added == list(SUBCOMMAND_NAMES)


class TestModuleEntryPoint:
    """`python -m scarflab.cli` calls `main()` with no argv, which reads
    `sys.argv`: the path no in-process test takes."""

    @staticmethod
    def run(*argv: str) -> subprocess.CompletedProcess:
        src = Path(scarflab.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run(
            [sys.executable, "-m", "scarflab.cli", *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )

    def test_help_lists_all_seven(self):
        done = self.run("--help")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(f"usage: scarflab [-h] {CHOICES} ...")
        for name in SUBCOMMAND_NAMES:
            assert f"\n    {name} " in done.stdout

    def test_scarf_matches_main(self, capsys):
        argv = ["scarf", "--graph", "path:4", "--spec", "path:4"]
        done = self.run(*argv)
        assert done.returncode == 0, done.stderr
        assert main(argv) == 0
        assert done.stdout == capsys.readouterr().out


class TestImports:
    def test_cli_import_leaves_multiprocessing_out(self):
        src = Path(scarflab.__file__).resolve().parent.parent
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); import scarflab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))"
        )
        done = subprocess.run(
            [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestConsoleScript:
    def test_installed_entry_point(self):
        exe = shutil.which("scarflab")
        if exe is None:
            pytest.skip("console script not installed")
        done = subprocess.run(
            [exe, "scarf", "--graph", "path:6", "--spec", "connected:3"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0
        assert json.loads(done.stdout)["verdicts"] == {
            "gf2": "scarf", "gf32003": "scarf",
        }
