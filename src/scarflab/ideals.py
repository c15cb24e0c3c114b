"""Ideals attached to a finite simple graph.

Two constructions, both square-free and generated in one degree t >= 2:

* connected ideal: one generator per t-element vertex set whose induced
  subgraph is connected;
* path ideal: one generator per vertex set realizable as a simple path on
  t vertices.

Vertex i of the graph is variable i of the universe, displayed as x{i+1}.
A graph with fewer than t vertices (or no qualifying subsets) gives the zero
ideal, which is a valid result everywhere downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import SimpleGraph, connected_induced_subsets, path_vertex_sets
from .monomials import MonomialIdeal, VariableUniverse, minimalize

IDEAL_KINDS = ("connected", "path")


class IdealSpecError(ValueError):
    pass


@dataclass(frozen=True)
class IdealSpec:
    kind: str
    t: int

    def __post_init__(self) -> None:
        if self.kind not in IDEAL_KINDS:
            raise IdealSpecError(f"kind must be one of {IDEAL_KINDS}, got {self.kind!r}")
        if self.t < 2:
            raise IdealSpecError("degree t must be at least 2")

    def render(self) -> str:
        return f"{self.kind}:{self.t}"

    def __str__(self) -> str:
        return self.render()

    @classmethod
    def parse(cls, text: str) -> "IdealSpec":
        kind, _, t_text = text.strip().partition(":")
        try:
            return cls(kind, int(t_text))
        except ValueError as exc:
            raise IdealSpecError(f"bad ideal spec {text!r}: {exc}") from None


def vertex_universe(graph: SimpleGraph) -> VariableUniverse:
    return VariableUniverse.of_size(graph.n)


def build_ideal(graph: SimpleGraph, spec: IdealSpec) -> MonomialIdeal:
    """Ideal of the requested kind; disconnected input graphs are fine."""
    universe = vertex_universe(graph)
    if spec.t > graph.n:
        return MonomialIdeal.zero(universe)
    if spec.kind == "connected":
        subsets = connected_induced_subsets(graph, spec.t)
    else:
        subsets = path_vertex_sets(graph, spec.t)
    return minimalize([universe.monomial(s) for s in subsets], universe)
