"""Builders for standard and twisted cube graphs, and their DOT rendering.

Each cube exists in two forms, which the rec_nonrec check and the test
suite compare for equality: a recursive form (n-fold iteration of a
doubling step starting from the one-loop graph) and a closed form.

The closed form has one loop per vertex plus, for every dimension index
i and every residue bit string x of length n-1, one edge labelled
<i, x> whose endpoints insert a bit at position i of x: the standard
cube always inserts 0 at the source and 1 at the target, while the
twisted cube inserts b and 1-b where b is the parity of zeros among
x[0:i].  Labels are not stored; to_dot reads i and x back off the
endpoints.  The recursive twisted step reverses every edge of the first
copy; flattening prepends the new bit at index 0, so the two forms give
equal graphs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, Optional

from .graphs import Graph, Vertex, full_subgraph


def _insert(residue: str, i: int, bit: int) -> Vertex:
    return residue[:i] + str(bit) + residue[i:]


def _closed_form(n: int, twisted: bool) -> Graph:
    """The cube with one loop per vertex and the edge of each label <i, x>."""
    if n < 0:
        raise ValueError("dimension must be non-negative")
    vertices = ["".join(bits) for bits in product("01", repeat=n)]
    edges = [(v, v) for v in vertices]
    for i in range(n):
        for bits in product("01", repeat=n - 1):
            residue = "".join(bits)
            b = residue[:i].count("0") % 2 if twisted else 0
            edges.append((_insert(residue, i, b), _insert(residue, i, 1 - b)))
    return Graph(vertices, edges)


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
def standard_cube_nonrec(n: int) -> Graph:
    return _closed_form(n, twisted=False)


@lru_cache(maxsize=None)
def twisted_cube_nonrec(n: int) -> Graph:
    return _closed_form(n, twisted=True)


def standard_cube(n: int) -> Graph:
    """The standard cube graph in its closed form."""
    return standard_cube_nonrec(n)


def twisted_cube(n: int) -> Graph:
    """The twisted cube graph in its closed form."""
    return twisted_cube_nonrec(n)


@lru_cache(maxsize=None)
def base_subgraph(n: int) -> Graph:
    """Full subgraph of the standard cube on the origin and the one-hot vertices."""
    return full_subgraph(standard_cube(n), lambda v: v.count("1") <= 1)


def to_dot(cube: Graph, twisted: bool, vertex_order: Optional[Iterable[Vertex]] = None) -> str:
    """DOT rendering of a standard or twisted cube with labels like ``⟨i, residue⟩``,
    read off each proper edge; loops are hidden.

    vertex_order controls the node listing (defaults to canonical order);
    listing twisted cubes in their total order yields a linear drawing.
    """
    name = ("T" if twisted else "C") + str(cube.dimension)
    order = list(vertex_order) if vertex_order is not None else list(cube.vertices)
    if sorted(order) != list(cube.vertices):
        raise ValueError("vertex_order must list every vertex exactly once")
    # a proper edge's endpoints differ at one position i; a loop's at none
    labelled = sorted(
        (i, s[:i] + s[i + 1 :], s, t) for s, t in cube.edges for i in range(len(s)) if s[i] != t[i]
    )
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for v in order:
        lines.append(f'  "{v}";')
    for i, residue, s, t in labelled:
        lines.append(f'  "{s}" -> "{t}" [label="⟨{i}, {residue or "ε"}⟩"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
