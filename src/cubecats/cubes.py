"""Builders for standard and twisted cube graphs.

Each cube exists in two forms, which the rec_nonrec check and the test
suite compare for equality: a recursive form (n-fold iteration of a
doubling step starting from the one-loop graph) and a closed form with
labeled edges.

The closed form has one loop per vertex plus, for every dimension index
i and every residue bit string x of length n-1, one edge whose endpoints
insert a bit at position i of x: the standard cube always inserts 0 at
the source and 1 at the target, while the twisted cube inserts b and
1-b where b is the parity of zeros among x[0:i].  The recursive twisted
step reverses every edge of the first copy; flattening prepends the new
bit at index 0, so the two forms give equal graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Optional, Union

from .graphs import Graph, Vertex, full_subgraph


@dataclass(frozen=True)
class Loop:
    """Label of the identity edge at a vertex."""

    vertex: Vertex


@dataclass(frozen=True)
class Dim:
    """Label of a non-trivial edge: dimension index plus residue bits.

    The residue is the vertex with position ``index`` deleted; it has
    length n-1 in an n-dimensional cube.
    """

    index: int
    residue: str


EdgeLabel = Union[Loop, Dim]


def _insert(residue: str, i: int, bit: int) -> Vertex:
    return residue[:i] + str(bit) + residue[i:]


class LabeledCubeGraph:
    """A cube graph together with the label <-> edge bijection."""

    def __init__(self, n: int, twisted: bool):
        if n < 0:
            raise ValueError("dimension must be non-negative")
        self.n = n
        self.twisted = twisted
        vertices = ["".join(bits) for bits in product("01", repeat=n)]
        labels: dict[EdgeLabel, tuple[Vertex, Vertex]] = {}
        for v in vertices:
            labels[Loop(v)] = (v, v)
        for i in range(n):
            for bits in product("01", repeat=n - 1):
                residue = "".join(bits)
                b = residue[:i].count("0") % 2 if twisted else 0
                labels[Dim(i, residue)] = (_insert(residue, i, b), _insert(residue, i, 1 - b))
        self.labels = labels
        self.graph = Graph(vertices, labels.values())
        self._by_edge = {edge: label for label, edge in labels.items()}

    def edge_of(self, label: EdgeLabel) -> tuple[Vertex, Vertex]:
        return self.labels[label]

    def label_of(self, edge: tuple[Vertex, Vertex]) -> EdgeLabel:
        return self._by_edge[edge]

    def __repr__(self) -> str:
        kind = "twisted" if self.twisted else "standard"
        return f"LabeledCubeGraph({kind}, n={self.n})"


def ordinary_iteration(g: Graph) -> Graph:
    """Doubling step: two copies of g plus one connecting edge per vertex.

    The new bit is prepended at index 0, so vertex lengths grow by one.
    """
    edges: list[tuple[Vertex, Vertex]] = []
    for s, t in g.edges:
        edges.append(("0" + s, "0" + t))
        edges.append(("1" + s, "1" + t))
    for v in g.vertices:
        edges.append(("0" + v, "1" + v))
    return Graph(["0" + v for v in g.vertices] + ["1" + v for v in g.vertices], edges)


def twisted_iteration(g: Graph) -> Graph:
    """Doubling step that reverses every edge of the first copy."""
    edges: list[tuple[Vertex, Vertex]] = []
    for s, t in g.edges:
        edges.append(("0" + t, "0" + s))
        edges.append(("1" + s, "1" + t))
    for v in g.vertices:
        edges.append(("0" + v, "1" + v))
    return Graph(["0" + v for v in g.vertices] + ["1" + v for v in g.vertices], edges)


@lru_cache(maxsize=None)
def standard_cube_rec(n: int) -> Graph:
    """n-fold ordinary iteration of the one-vertex, one-loop graph."""
    if n == 0:
        return Graph([""], [("", "")])
    return ordinary_iteration(standard_cube_rec(n - 1))


@lru_cache(maxsize=None)
def twisted_cube_rec(n: int) -> Graph:
    """n-fold twisted iteration of the one-vertex, one-loop graph."""
    if n == 0:
        return Graph([""], [("", "")])
    return twisted_iteration(twisted_cube_rec(n - 1))


@lru_cache(maxsize=None)
def standard_cube_nonrec(n: int) -> LabeledCubeGraph:
    return LabeledCubeGraph(n, twisted=False)


@lru_cache(maxsize=None)
def twisted_cube_nonrec(n: int) -> LabeledCubeGraph:
    return LabeledCubeGraph(n, twisted=True)


def standard_cube(n: int) -> Graph:
    """The standard cube graph in its closed form."""
    return standard_cube_nonrec(n).graph


def twisted_cube(n: int) -> Graph:
    """The twisted cube graph in its closed form."""
    return twisted_cube_nonrec(n).graph


@lru_cache(maxsize=None)
def base_subgraph(n: int) -> Graph:
    """Full subgraph of the standard cube on the origin and the one-hot vertices."""
    return full_subgraph(standard_cube(n), lambda v: v.count("1") <= 1)


def to_dot(cube: LabeledCubeGraph, vertex_order: Optional[Iterable[Vertex]] = None) -> str:
    """DOT rendering with labels like ``⟨i, residue⟩``; loops are hidden.

    vertex_order controls the node listing (defaults to canonical order);
    listing twisted cubes in their total order yields a linear drawing.
    """
    name = ("T" if cube.twisted else "C") + str(cube.n)
    order = list(vertex_order) if vertex_order is not None else list(cube.graph.vertices)
    if sorted(order) != list(cube.graph.vertices):
        raise ValueError("vertex_order must list every vertex exactly once")
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for v in order:
        lines.append(f'  "{v}";')
    for label in sorted(
        (l for l in cube.labels if isinstance(l, Dim)), key=lambda l: (l.index, l.residue)
    ):
        s, t = cube.labels[label]
        residue = label.residue or "ε"
        lines.append(f'  "{s}" -> "{t}" [label="⟨{label.index}, {residue}⟩"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
