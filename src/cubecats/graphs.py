"""Finite directed graphs with loops, their free preorders, the tables of
their unique binary meets and joins, and their JSON encoding.

Vertices are bit strings over "01" of one common length, the dimension;
the empty string is the single vertex of the zero-dimensional cube.
Vertices are canonically ordered by their value as big-endian binary
numerals (which for fixed length is plain string order), and every
enumeration and export uses that order so output is deterministic.

Loops are stored explicitly as edges.  A graph morphism may therefore
collapse an edge to a loop without any special casing.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache
from typing import Iterable

import numpy as np

Vertex = str


class CapacityError(Exception):
    """A requested computation exceeds the configured brute-force bounds."""


class Graph:
    """Finite directed graph with at most one edge per ordered vertex pair.

    Vertices must be bit strings of one shared length; edges are a set of
    ordered pairs and may include loops.  A graph is immutable, so its
    hash is computed once, when it is built.
    """

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]]):
        self.vertices: tuple[Vertex, ...] = tuple(sorted(set(vertices)))
        self.edges: frozenset[tuple[Vertex, Vertex]] = frozenset((u, v) for u, v in edges)
        lengths = {len(v) for v in self.vertices}
        if len(lengths) > 1:
            raise ValueError(f"vertices must share one length, got lengths {sorted(lengths)}")
        if any(set(v) - {"0", "1"} for v in self.vertices):
            raise ValueError("vertices must be strings over '0' and '1'")
        vs = set(self.vertices)
        for u, v in self.edges:
            if u not in vs or v not in vs:
                raise ValueError(f"edge ({u!r}, {v!r}) has an endpoint that is not a vertex")
        self._hash = hash((self.vertices, self.edges))

    @property
    def dimension(self) -> int:
        return len(self.vertices[0]) if self.vertices else 0

    @cached_property
    def index(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Boolean matrix: adjacency[i, j] iff there is an edge vertices[i] -> vertices[j]."""
        n = len(self.vertices)
        adj = np.zeros((n, n), dtype=bool)
        idx = self.index
        for u, v in self.edges:
            adj[idx[u], idx[v]] = True
        return adj

    @cached_property
    def edge_list(self) -> tuple[tuple[Vertex, Vertex], ...]:
        """Edges in canonical (source, target) order, loops included."""
        return tuple(sorted(self.edges))

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Graph)
            and self._hash == other._hash
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({len(self.vertices)} vertices, {len(self.edges)} edges)"


@lru_cache(maxsize=None)
def free_preorder(g: Graph) -> np.ndarray:
    """Reflexive-transitive closure of g's edge relation, as a read-only
    boolean matrix over g.vertices.

    matrix[i, j] iff vertices[i] <= vertices[j], that is, iff a chain of
    edges starts in vertices[i] and ends in vertices[j].
    """
    n = len(g.vertices)
    reach = np.eye(n, dtype=bool) | g.adjacency
    # Warshall closure, one vectorized sweep per pivot; graphs stay tiny.
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k, :])
    reach.setflags(write=False)
    return reach


def is_total_order(leq: np.ndarray) -> bool:
    """True iff the relation is antisymmetric and any two elements compare."""
    antisymmetric = not (leq & leq.T & ~np.eye(len(leq), dtype=bool)).any()
    total = (leq | leq.T).all()
    return bool(antisymmetric and total)


def _unique_bounds(sets: np.ndarray) -> np.ndarray:
    """table[i, j] = k when sets[k] is the one row equal to sets[i] & sets[j],
    else -1.

    Each row is a down-set (or each an up-set) of one preorder holding its
    own vertex, so sets[i] & sets[j] is closed the same way: it equals
    sets[k] exactly when it holds k and has the size of sets[k].
    """
    n = len(sets)
    table = np.empty((n, n), dtype=np.int16)
    # int16 like the table: no count exceeds n, and int16 sums and
    # comparisons run about twice as fast as the default int64 ones
    sizes = sets.sum(axis=1, dtype=np.int16)
    for i in range(n):
        common = sets[i] & sets
        hits = common & (sizes == common.sum(axis=1, dtype=np.int16)[:, None])
        table[i] = np.where(hits.sum(axis=1, dtype=np.int16) == 1, hits.argmax(axis=1), -1)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _bound_tables(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Index tables of binary meets and joins, -1 where none exists uniquely.

    The greatest lower bounds of vertices i and j in the free preorder are
    the vertices whose down-set is the intersection of theirs, so meet[i, j]
    is the one such vertex if there is one; joins are the same with up-sets.
    """
    leq = free_preorder(g)
    return _unique_bounds(leq.T), _unique_bounds(leq)


def graph_to_json(g: Graph) -> str:
    """Canonical JSON encoding of a graph, loops included."""
    payload = {
        "dimension": g.dimension,
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edge_list],
    }
    return json.dumps(payload, indent=2) + "\n"


def graph_from_json(text: str) -> Graph:
    """The graph of a graph_to_json encoding; each field must have its JSON
    type, and no vertex or edge may be listed twice."""
    payload = json.loads(text)
    dimension, vertices, edges = payload["dimension"], payload["vertices"], payload["edges"]
    if type(dimension) is not int:
        raise ValueError(f"dimension must be a JSON integer, got {dimension!r}")
    if type(vertices) is not list or not all(type(v) is str for v in vertices):
        raise ValueError("vertices must be a list of strings")
    if type(edges) is not list or not all(type(e) is list and len(e) == 2 for e in edges):
        raise ValueError("edges must be a list of [source, target] lists")
    g = Graph(vertices, [tuple(e) for e in edges])
    if len(g.vertices) < len(vertices) or len(g.edges) < len(edges):
        raise ValueError("each vertex and each edge must be listed once")
    if g.dimension != dimension:
        raise ValueError(
            f"declared dimension {dimension} does not match vertices of length {g.dimension}"
        )
    return g
