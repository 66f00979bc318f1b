"""Morphisms of standard cubes and the substitution-category equivalence.

Three kinds of arrows live here:

* ``BchMorphism``: a function from m input slots to n output slots plus
  two constants, injective on the slot part.  These compose like
  substitutions and form a category with objects the natural numbers.
* ``GraphMorphism``: a vertex map between graphs that preserves edges.
  Refined classes of cube-graph morphisms (preserving meets and joins,
  or preserving edge dimensions) form subcategories.
* ``PartialInjection``: slot map with a single "undefined" constant;
  transposition swaps its two directions.

Each kind of arrow is also a row of integers, and every hom-set is a
lexicographically sorted matrix of rows: a bch arrow is its entries, a
graph morphism its vertex map.  Composition and the equivalence below
work on whole matrices of rows at once; the functions on single
arrows are one-row calls of the row versions.

The equivalence between opposite substitution arrows and
meet-and-join-preserving cube morphisms is, as a chain, six invertible
steps: split an arrow into a constant vector z and a partial injection
e, transpose e, read the result as a morphism from the base subgraph,
and extend it join-preservingly to the whole cube.  On rows it is one
substitution: bit j of the image of a vertex v is bit a(j) of v when
a(j) is a slot, and the constant a(j) otherwise.  The test suite checks
the two readings against each other on every arrow up to dimension 3.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import kernels
from .graphs import (
    CapacityError,
    Graph,
    Vertex,
    _bound_tables,
    bits_to_int,
    int_to_bits,
)
from .cubes import base_subgraph, standard_cube


class BchMorphism:
    """Arrow m -> n: each of m input slots is sent to one of n output
    slots (each output slot used at most once) or to a constant bit.

    entries[i] in 0..n-1 picks output slot entries[i]; n and n+1 are the
    constants 0 and 1.
    """

    __slots__ = ("m", "n", "entries", "_hash")

    def __init__(self, m: int, n: int, entries: Iterable[int]):
        if m < 0 or n < 0:
            raise ValueError(f"arity must be non-negative, got {m}->{n}")
        entries = tuple(int(e) for e in entries)
        if len(entries) != m:
            raise ValueError(f"expected {m} entries, got {len(entries)}")
        seen: set[int] = set()
        for i, e in enumerate(entries):
            if not 0 <= e < n + 2:
                raise ValueError(f"entry {e} at slot {i} out of range for n={n}")
            if e < n:
                if e in seen:
                    raise ValueError(f"output slot {e} used twice: not injective on slots")
                seen.add(e)
        self.m = m
        self.n = n
        self.entries = entries
        self._hash = hash((m, n, entries))

    def __call__(self, i: int) -> int:
        return self.entries[i]

    def is_slot(self, i: int) -> bool:
        return self.entries[i] < self.n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BchMorphism)
            and self.m == other.m
            and self.n == other.n
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return self._hash

    def map_strings(self) -> list[str]:
        return [f"j{e}" if e < self.n else f"b{e - self.n}" for e in self.entries]

    def to_json(self) -> str:
        return json.dumps(
            {"m": self.m, "n": self.n, "map": self.map_strings()}, separators=(", ", ": ")
        )

    def __repr__(self) -> str:
        return f"BchMorphism({self.m}->{self.n}, [{', '.join(self.map_strings())}])"


def bch_from_json(text: str) -> BchMorphism:
    """The arrow {"m": m, "n": n, "map": [...]}: m and n JSON integers, map a
    JSON list of m entries, each "j" and ASCII digits, "b0" or "b1"."""
    payload = json.loads(text)
    m, n = payload["m"], payload["n"]
    if type(m) is not int or type(n) is not int:
        raise ValueError(f"m and n must be JSON integers, got {m!r} and {n!r}")
    if type(payload["map"]) is not list:
        raise ValueError(f"map must be a JSON list, got {payload['map']!r}")
    entries = []
    for pos, item in enumerate(payload["map"]):
        if not isinstance(item, str) or not re.fullmatch("[jb][0-9]+", item):
            raise ValueError(f"map entry {pos}: expected j<k> or b<k>, got {item!r}")
        if item[0] == "b" and item not in ("b0", "b1"):
            raise ValueError(f"map entry {pos}: constant must be b0 or b1, got {item!r}")
        value = int(item[1:])
        entries.append(value if item[0] == "j" else n + value)
    return BchMorphism(m, n, entries)


def bch_identity(n: int) -> BchMorphism:
    return BchMorphism(n, n, range(n))


def _row(entries: Sequence[int]) -> np.ndarray:
    """A one-row matrix of an arrow's entries or vertex map."""
    return np.array(entries, dtype=np.intp).reshape(1, len(entries))


def bch_compose_rows(outer: np.ndarray, inner: np.ndarray, n: int) -> np.ndarray:
    """Composites outer[i] ∘ inner[j] of entry rows, as an (len(outer), len(inner), w) array.

    outer holds arrows into n and inner arrows into their source, of w
    inputs: each inner entry picks an outer entry, or one of outer's two
    constants n and n + 1 when it is a constant itself.
    """
    outer = np.asarray(outer)
    constants = np.broadcast_to(np.array([n, n + 1], dtype=outer.dtype), (len(outer), 2))
    return np.concatenate([outer, constants], axis=1)[:, np.asarray(inner)]


def bch_compose(outer: BchMorphism, inner: BchMorphism) -> BchMorphism:
    """Composite outer ∘ inner: apply inner first, constants absorb."""
    if inner.n != outer.m:
        raise ValueError(f"cannot compose {outer.m}->{outer.n} after {inner.m}->{inner.n}")
    row = bch_compose_rows(_row(outer.entries), _row(inner.entries), outer.n)[0, 0]
    return BchMorphism(inner.m, outer.n, row.tolist())


@lru_cache(maxsize=None)
def bch_rows(m: int, n: int) -> np.ndarray:
    """Entry rows of all arrows m -> n, as read-only lexicographic uint8 rows."""
    if m > 6 or n > 6:
        raise CapacityError("bch_rows is limited to m, n <= 6")
    rows = np.indices((n + 2,) * m, dtype=np.uint8).reshape(m, (n + 2) ** m).T
    injective = np.ones(len(rows), dtype=bool)
    for i, j in combinations(range(m), 2):
        injective &= (rows[:, i] != rows[:, j]) | (rows[:, i] >= n)
    rows = rows[injective]
    rows.setflags(write=False)
    return rows


class PartialInjection:
    """Slot map m -> n with one undefined value, injective where defined.

    entries[i] in 0..n-1 is a defined image; n means undefined.
    """

    __slots__ = ("m", "n", "entries")

    def __init__(self, m: int, n: int, entries: Iterable[int]):
        entries = tuple(int(e) for e in entries)
        if len(entries) != m:
            raise ValueError(f"expected {m} entries, got {len(entries)}")
        defined = [e for e in entries if e < n]
        if any(not 0 <= e <= n for e in entries):
            raise ValueError("entries out of range")
        if len(defined) != len(set(defined)):
            raise ValueError("not injective on defined slots")
        self.m = m
        self.n = n
        self.entries = entries

    def defined(self, i: int) -> bool:
        return self.entries[i] < self.n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PartialInjection)
            and (self.m, self.n, self.entries) == (other.m, other.n, other.entries)
        )

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.entries))

    def __repr__(self) -> str:
        body = ", ".join(str(e) if e < self.n else "-" for e in self.entries)
        return f"PartialInjection({self.m}->{self.n}, [{body}])"


def transpose_partial_injection(p: PartialInjection) -> PartialInjection:
    """Swap directions: q(j) = i exactly when p(i) = j; involutive."""
    entries = [p.m] * p.n
    for i, e in enumerate(p.entries):
        if e < p.n:
            entries[e] = i
    return PartialInjection(p.n, p.m, entries)


class GraphMorphism:
    """Vertex map between graphs sending every edge to an edge.

    vmap holds the target vertex index of each source vertex; the hash
    is computed on first use.
    """

    __slots__ = ("source", "target", "vmap", "_hash")

    def __init__(
        self,
        source: Graph,
        target: Graph,
        mapping: Union[dict[Vertex, Vertex], Sequence[Vertex]],
    ):
        if isinstance(mapping, dict):
            images = tuple(mapping[v] for v in source.vertices)
        else:
            images = tuple(mapping)
            if len(images) != len(source.vertices):
                raise ValueError("mapping length does not match the source vertex count")
        tgt_index = target.index
        self.source = source
        self.target = target
        self.vmap = tuple(tgt_index[v] for v in images)
        self._hash = None
        src_index = source.index
        for u, v in source.edges:
            if not target.adjacency[self.vmap[src_index[u]], self.vmap[src_index[v]]]:
                raise ValueError(
                    f"edge ({u}, {v}) maps to ({images[src_index[u]]}, "
                    f"{images[src_index[v]]}), not an edge of the target"
                )

    @classmethod
    def from_indices(cls, source: Graph, target: Graph, vmap: Sequence[int]) -> "GraphMorphism":
        """Trusted constructor from target vertex indices (no edge check).

        A tuple is taken to hold Python ints and is kept as it is; any
        other sequence is converted.
        """
        self = object.__new__(cls)
        self.source = source
        self.target = target
        self.vmap = vmap if type(vmap) is tuple else tuple(map(int, vmap))
        self._hash = None
        return self

    def __call__(self, v: Vertex) -> Vertex:
        return self.target.vertices[self.vmap[self.source.index[v]]]

    def as_dict(self) -> dict[Vertex, Vertex]:
        return {v: self.target.vertices[self.vmap[i]] for i, v in enumerate(self.source.vertices)}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(", ", ": "))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GraphMorphism)
            and self.vmap == other.vmap
            and self.source == other.source
            and self.target == other.target
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.source, self.target, self.vmap))
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{v}>{self(v)}" for v in self.source.vertices)
        return f"GraphMorphism({body})"


@lru_cache(maxsize=None)
def identity_graph_morphism(g: Graph) -> GraphMorphism:
    return GraphMorphism.from_indices(g, g, range(len(g.vertices)))


def compose_graph_rows(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Composites outer[i] ∘ inner[j] of vertex-map rows, as a
    (len(outer), len(inner), w) array."""
    return np.asarray(outer)[:, np.asarray(inner)]


def compose_graph_morphisms(outer: GraphMorphism, inner: GraphMorphism) -> GraphMorphism:
    if inner.target != outer.source:
        raise ValueError("inner target and outer source differ")
    row = compose_graph_rows(_row(outer.vmap), _row(inner.vmap))[0, 0]
    return GraphMorphism.from_indices(inner.source, outer.target, tuple(row.tolist()))


@lru_cache(maxsize=None)
def hom_matrix(src: Graph, tgt: Graph, constraints: Optional[Callable] = None) -> np.ndarray:
    """Edge-preserving vertex maps passing ``constraints(src, tgt)`` (every one
    when None), as read-only lexicographic uint8 rows of target indices; the
    kernel's capacity rule applies.  The cache keys on the arguments as
    passed, so the package passes constraints positionally, None included."""
    edges = [(src.index[u], src.index[v]) for u, v in src.edge_list]
    extra = constraints(src, tgt) if constraints else ()
    mat = kernels.edge_preserving_maps(
        len(src.vertices), len(tgt.vertices), edges, tgt.adjacency, extra
    )
    mat.setflags(write=False)
    return mat


def enumerate_graph_homs(
    src: Graph, tgt: Graph, constraints: Optional[Callable] = None
) -> tuple[GraphMorphism, ...]:
    """The morphisms of hom_matrix(src, tgt, constraints), in its row order."""
    return tuple(
        GraphMorphism.from_indices(src, tgt, row)
        for row in map(tuple, hom_matrix(src, tgt, constraints).tolist())
    )


def _one_hot(n: int, i: int) -> Vertex:
    return int_to_bits(1 << (n - 1 - i), n)


def extend_base_morphism(h: GraphMorphism) -> GraphMorphism:
    """Unique join-preserving extension of a base-subgraph morphism.

    h goes from the origin-plus-one-hot subgraph of the m-cube into a
    cube; every cube vertex is the join of the base vectors it contains,
    so the extension sends it to the join of their images.
    """
    target = h.target
    m = h.source.dimension
    if h.source != base_subgraph(m):
        raise ValueError("source must be the base subgraph of a standard cube")
    n = target.dimension
    z = bits_to_int(h(int_to_bits(0, m)))
    basis = [bits_to_int(h(_one_hot(m, i))) for i in range(m)]
    source = standard_cube(m)
    images = []
    for v in source.vertices:
        val = z
        for i, bit in enumerate(v):
            if bit == "1":
                val |= basis[i]
        images.append(int_to_bits(val, n))
    return GraphMorphism(source, target, images)


def _bit_weights(n: int) -> np.ndarray:
    """Vertex index weight of each bit of an n-cube vertex, leftmost first."""
    return 1 << np.arange(n - 1, -1, -1, dtype=np.intp)


def bchop_to_graphmeet_rows(m: int, n: int, rows: np.ndarray) -> np.ndarray:
    """Vertex maps C^m -> C^n of the entry rows of arrows n -> m, one row each.

    Bit j of the image of vertex v is bit a(j) of v when a(j) < m is a
    slot, and the constant a(j) - m otherwise: the join-preserving
    extension of the chain, read off in one substitution.
    """
    rows = np.asarray(rows, dtype=np.intp)
    slot = rows < m
    shift = np.where(slot, m - 1 - rows, 0)[:, None, :]
    vertices = np.arange(2**m)[None, :, None]
    bits = np.where(slot[:, None, :], (vertices >> shift) & 1, rows[:, None, :] - m)
    return bits @ _bit_weights(n)


def bchop_to_graphmeet(a: BchMorphism) -> GraphMorphism:
    """Cube morphism matching an opposite-category arrow.

    a maps a.m input slots to a.n output slots; read backwards it is an
    arrow a.n -> a.m, and the returned morphism goes from the
    a.n-dimensional cube to the a.m-dimensional cube.
    """
    row = bchop_to_graphmeet_rows(a.n, a.m, _row(a.entries))[0]
    return GraphMorphism.from_indices(standard_cube(a.n), standard_cube(a.m), tuple(row.tolist()))


def graphmeet_to_bchop_rows(m: int, n: int, vmaps: np.ndarray) -> np.ndarray:
    """Entry rows of arrows n -> m read off vertex maps C^m -> C^n, one row each.

    The origin's image gives the constants z.  The image of one-hot
    vertex i differs from z in no bit, or in one bit j that is 0 in z;
    then a(j) = i.  Raises ValueError when a map is not of that form,
    or when two one-hot vertices change the same bit.
    """
    vmaps = np.asarray(vmaps, dtype=np.intp)
    z = vmaps[:, 0]
    changed = vmaps[:, _bit_weights(m)] ^ z[:, None]  # changed[r, i]: bits one-hot i changes
    bits = (changed[:, :, None] & _bit_weights(n)) != 0  # bits[r, i, j]: one-hot i changes bit j
    several = (bits.sum(axis=2) > 1).any() or (bits.sum(axis=1) > 1).any()
    if several or (changed & z[:, None]).any():
        raise ValueError("morphism is not in the meet-and-join-preserving class")
    entries = m + ((z[:, None] & _bit_weights(n)) != 0)
    for i in range(m):
        entries = np.where(bits[:, i], i, entries)
    return entries


def graphmeet_to_bchop(g: GraphMorphism) -> BchMorphism:
    """Inverse map: read the constants and the slots off the origin and one-hot images."""
    m, n = g.source.dimension, g.target.dimension
    return BchMorphism(n, m, graphmeet_to_bchop_rows(m, n, _row(g.vmap))[0].tolist())


def bound_constraints(src: Graph, tgt: Graph) -> list[tuple]:
    """f(i ⊓ j) = f(i) ⊓ f(j) and f(i ⊔ j) = f(i) ⊔ f(j) for each pair i < j
    with a source bound, as hom enumeration constraints into a poset.  A pair
    whose bound is i or j is comparable; an edge-preserving map keeps it
    comparable, so the condition holds and the pair is left out."""
    out = []
    for src_table, tgt_table in zip(_bound_tables(src), _bound_tables(tgt)):
        for i, j in zip(*np.triu_indices(len(src_table), 1)):
            w = int(src_table[i, j])
            if w >= 0 and w != i and w != j:
                test = lambda f, i=i, j=j, w=w, t=tgt_table: t[f[:, i], f[:, j]] == f[:, w]
                out.append(((i, j, w), test))
    return out


def dimension_constraints(src: Graph, tgt: Graph) -> list[tuple]:
    """Each non-loop edge of the cube src changes the same target bits as the
    first edge of its dimension class, as hom enumeration constraints into
    the cube tgt: a cube vertex index is its binary value, so the bits an
    edge changes name its dimension, whichever cube tgt is."""
    idx = src.index
    first: dict[int, tuple[int, int]] = {}
    out = []
    for u, w in src.edge_list:
        s, t = idx[u], idx[w]
        if s == t:
            continue
        s0, t0 = first.setdefault(s ^ t, (s, t))
        test = lambda f, s=s, t=t, s0=s0, t0=t0: f[:, s] ^ f[:, t] == f[:, s0] ^ f[:, t0]
        out.append(((s, t, s0, t0), test))
    return out
