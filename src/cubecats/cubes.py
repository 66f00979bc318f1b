"""Builders for standard and twisted cube graphs, and their DOT rendering.

Each cube exists in two forms, which the rec_nonrec check and the test
suite compare for equality: a recursive form, cube_rec(n, twisted), the
n-fold doubling of the one-loop graph, and a closed form, standard_cube
and twisted_cube.  The twist is one flag: the twisted doubling step
reverses every edge of the first copy, and nothing else differs.

The closed form has one loop per vertex plus, for every dimension index
i and every residue bit string x of length n-1, one edge labelled
<i, x> whose endpoints insert a bit at position i of x: the standard
cube always inserts 0 at the source and 1 at the target, while the
twisted cube inserts b and 1-b where b is the parity of zeros among
x[0:i].  Labels are not stored; to_dot reads i and x back off the
endpoints.  Doubling prepends the new bit at index 0, so the two forms
give equal graphs.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .graphs import Graph, Vertex, free_preorder


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


def _double(g: Graph, twisted: bool) -> Graph:
    """Doubling step: two copies of g, the first reversed when twisted, plus
    an edge from each vertex of the first copy to its twin in the second.

    The new bit is prepended at index 0, so vertex lengths grow by one.
    """
    edges = [("0" + t, "0" + s) if twisted else ("0" + s, "0" + t) for s, t in g.edges]
    edges += [("1" + s, "1" + t) for s, t in g.edges]
    edges += [("0" + v, "1" + v) for v in g.vertices]
    return Graph(["0" + v for v in g.vertices] + ["1" + v for v in g.vertices], edges)


@lru_cache(maxsize=None)
def cube_rec(n: int, twisted: bool) -> Graph:
    """n-fold doubling of the one-vertex, one-loop graph."""
    if n == 0:
        return Graph([""], [("", "")])
    return _double(cube_rec(n - 1, twisted), twisted)


@lru_cache(maxsize=None)
def standard_cube(n: int) -> Graph:
    """The standard cube graph in its closed form."""
    return _closed_form(n, twisted=False)


@lru_cache(maxsize=None)
def twisted_cube(n: int) -> Graph:
    """The twisted cube graph in its closed form."""
    return _closed_form(n, twisted=True)


def to_dot(cube: Graph, twisted: bool) -> str:
    """DOT rendering of a standard or twisted cube with labels like ``⟨i, residue⟩``,
    read off each proper edge; loops are hidden.

    A twisted cube lists its vertices in the total order of its free
    preorder, ranked by how many vertices lie below each, which gives a
    linear drawing; a standard cube lists them in canonical order.
    """
    name = ("T" if twisted else "C") + str(cube.dimension)
    vertices = cube.vertices
    if twisted:
        below = free_preorder(cube).sum(axis=0)  # below[k]: how many vertices are <= vertex k
        vertices = sorted(vertices, key=lambda v: below[cube.index[v]])
    # a proper edge's endpoints differ at one position i; a loop's at none
    labelled = sorted(
        (i, s[:i] + s[i + 1 :], s, t) for s, t in cube.edges for i in range(len(s)) if s[i] != t[i]
    )
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for v in vertices:
        lines.append(f'  "{v}";')
    for i, residue, s, t in labelled:
        lines.append(f'  "{s}" -> "{t}" [label="⟨{i}, {residue or "ε"}⟩"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
