"""Fuzzed input for the graph and ideal loaders.

The loaders may reject input only with ValueError subclasses, which cli.main
turns into exit 2 and one `error:` line on stderr.  Through cli.main, fuzzed
.g6, .adj and .json files must give exit 0, 1 or 2 and never a traceback.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from scarflab.cli import main, parse_graph_argument
from scarflab.graphs import (
    MAX_VERTICES,
    SimpleGraph,
    graph_from_json_dict,
    parse_adjacency_text,
    parse_graph6,
    to_graph6,
)
from scarflab.monomials import MonomialIdeal

small_ints = st.integers(-3, 40)
any_ints = st.one_of(small_ints, st.integers(-(10**15), 10**15))

valid_graph6 = st.integers(1, 12).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=15).map(
        lambda pairs: to_graph6(SimpleGraph.from_edges(n, [p for p in pairs if p[0] != p[1]]))
    )
)

graph6_text = st.one_of(
    valid_graph6,
    st.builds(lambda text, cut, tail: text[:cut] + tail, valid_graph6, st.integers(0, 12),
              st.text(max_size=2)),
    st.text(max_size=40),
    st.text(alphabet=st.characters(min_codepoint=60, max_codepoint=130), max_size=40),
    st.builds(
        lambda body: ">>graph6<<" + body,
        st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126), max_size=20),
    ),
)


def _edge_token(u, v, sep):
    return f"{u}{sep}{v}"


adjacency_text = st.one_of(
    st.text(max_size=60),
    st.builds(
        lambda n, edges, comment: f"{comment}n={n}; edges: " + ", ".join(edges),
        st.one_of(any_ints.map(str), st.text(max_size=4)),
        st.lists(
            st.builds(_edge_token, any_ints, any_ints, st.sampled_from(["-", "", "--", "+"])),
            max_size=8,
        ),
        st.sampled_from(["", "# a comment\n", "\n\n", "n=2; edges:\n"]),
    ),
)

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), any_ints, st.floats(allow_nan=False), st.text(max_size=6)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
    ),
    max_leaves=20,
)

graph_dicts = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"n": st.one_of(any_ints, json_values),
         "edges": st.one_of(st.lists(st.lists(any_ints, max_size=3), max_size=6), json_values)}
    ),
)

ideal_dicts = st.one_of(
    json_values,
    st.fixed_dictionaries(
        {"variables": st.one_of(st.lists(st.text(max_size=3), max_size=40), json_values),
         "mingens": st.one_of(st.lists(st.lists(any_ints, max_size=4), max_size=6), json_values)}
    ),
)

family_tokens = st.one_of(
    st.text(max_size=12),
    st.builds(
        lambda letter, number, params: f"{letter}{number}" + (
            "" if params is None else "(" + ",".join(str(p) for p in params) + ")"
        ),
        st.sampled_from("PCSTX"),
        st.integers(0, 10**12),
        st.one_of(st.none(), st.lists(st.integers(0, 10**12), max_size=4)),
    ),
)

graph_arguments = st.one_of(
    st.text(max_size=30).filter(lambda text: not text.strip().startswith("@")),
    st.builds(
        lambda kind, value: f"{kind}:{value}",
        st.sampled_from(["path", "cycle", "star", "family", "PATH", "tree"]),
        st.one_of(any_ints.map(str), family_tokens),
    ),
)


def _loads(loader, value):
    """Call the loader; a rejection must be a ValueError."""
    try:
        return loader(value)
    except ValueError:
        return None


class TestLoaders:
    @given(graph6_text)
    def test_parse_graph6(self, text):
        graph = _loads(parse_graph6, text)
        assert graph is None or isinstance(graph, SimpleGraph)

    @given(adjacency_text)
    def test_parse_adjacency_text(self, text):
        graph = _loads(parse_adjacency_text, text)
        assert graph is None or isinstance(graph, SimpleGraph)

    @given(graph_dicts)
    def test_graph_from_json_dict(self, data):
        graph = _loads(graph_from_json_dict, data)
        assert graph is None or isinstance(graph, SimpleGraph)

    @given(ideal_dicts)
    def test_ideal_from_json_dict(self, data):
        ideal = _loads(MonomialIdeal.from_json_dict, data)
        assert ideal is None or isinstance(ideal, MonomialIdeal)

    @given(graph_arguments)
    def test_parse_graph_argument(self, text):
        graph = _loads(parse_graph_argument, text)
        assert graph is None or graph.n <= MAX_VERTICES


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


def file_content(text_strategy):
    """Fuzzed text, as UTF-8 bytes, or raw bytes that need not decode."""
    return st.one_of(text_strategy.map(lambda text: text.encode("utf-8")), st.binary(max_size=40))


def run_on_file(name, content, argv_for):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / name
        path.write_bytes(content)
        assert_clean_exit(*run_cli(argv_for(str(path))))


def graph_argv(path):
    return ["ideal", "--graph", f"@{path}", "--spec", "connected:2", "--format", "table"]


class TestCliFiles:
    @given(file_content(graph6_text))
    def test_graph6_file(self, content):
        run_on_file("g.g6", content, graph_argv)

    @given(file_content(adjacency_text))
    def test_adjacency_file(self, content):
        run_on_file("g.adj", content, graph_argv)

    @given(file_content(st.one_of(graph_dicts.map(json.dumps), st.text(max_size=40))))
    def test_graph_json_file(self, content):
        run_on_file("g.json", content, graph_argv)

    @given(file_content(st.one_of(ideal_dicts.map(json.dumps), st.text(max_size=40))))
    def test_ideal_json_file(self, content):
        run_on_file("i.json", content, lambda path: ["ideal", "--ideal", path])

    def test_deeply_nested_json(self, tmp_path):
        for name, argv in (("g.json", graph_argv), ("i.json", lambda p: ["ideal", "--ideal", p])):
            path = tmp_path / name
            path.write_text("[" * 100_000)
            code, err = run_cli(argv(str(path)))
            assert code == 2
            assert_clean_exit(code, err)
            assert "nested too deeply" in err

    def test_huge_endpoint(self, tmp_path):
        # an endpoint is range-checked before it is shifted into a row
        for name, text in (("g.adj", f"n=3; edges: 0-1, 0-{10**15}"),
                           ("g.json", json.dumps({"n": 3, "edges": [[0, 1], [10**15, 0]]}))):
            path = tmp_path / name
            path.write_text(text)
            code, err = run_cli(graph_argv(str(path)))
            assert code == 2 and "bad edge" in err
            assert_clean_exit(code, err)
