"""The two frozen Scarf complexes; regenerating the files must be a no-op."""

import json
from pathlib import Path

from scarflab.complexes import scarf_complex
from scarflab.graphs import path_graph, spider5_graph
from scarflab.ideals import IdealSpec, build_ideal

from reference import scarf_complex_bruteforce

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "scarf_c3_p6.json": lambda: build_ideal(path_graph(6), IdealSpec("connected", 3)),
    "scarf_p4_s5_111.json": lambda: build_ideal(
        spider5_graph(1, 1, 1), IdealSpec("path", 4)
    ),
}


def load(name: str) -> dict:
    with open(GOLDEN_DIR / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_golden_files_have_provenance():
    for name in CASES:
        data = load(name)
        assert set(data) == {"provenance", "complex"}
        assert data["provenance"]


def test_recomputation_matches_golden():
    for name, make in CASES.items():
        frozen = load(name)["complex"]
        assert scarf_complex(make()).to_json_dict() == frozen


def test_bruteforce_oracle_matches_golden():
    for name, make in CASES.items():
        frozen = load(name)["complex"]
        assert scarf_complex_bruteforce(make()).to_json_dict() == frozen


def test_golden_shapes():
    path_faces = load("scarf_c3_p6.json")["complex"]["faces"]
    assert [f for f in path_faces if len(f) == 2] == [[0, 1], [1, 2], [2, 3]]
    spider = load("scarf_p4_s5_111.json")["complex"]
    assert len([f for f in spider["faces"] if len(f) == 3]) == 2
    assert len(spider["vertices"]) == 6
