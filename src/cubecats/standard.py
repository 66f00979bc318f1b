"""Arrows of standard cubes as rows, and the substitution-category equivalence.

Two kinds of arrows live here, each a row of integers:

* a bch arrow m -> n sends each of m input slots to one of n output
  slots (each used at most once) or to a constant bit; its row is its
  entries, k for slot k and n, n + 1 for the constants 0 and 1.  These
  compose like substitutions and form a category on the naturals.
* a graph morphism is a vertex map between graphs that preserves
  edges; its row holds the target index of each source vertex.
  Refined classes of cube-graph morphisms (preserving meets and joins,
  or edge dimensions) form subcategories.

Every hom-set is a lexicographically sorted matrix of rows, and
composition and the equivalence below work on whole matrices at once.
bch_names and vertex_dict name one row, and bch_from_json reads one
bch arrow from the command line.

The equivalence between opposite substitution arrows and
meet-and-join-preserving cube morphisms is, as a chain, six invertible
steps: split an arrow into a constant vector z and a partial injection
e, transpose e, read the result as a morphism from the base subgraph,
and extend it join-preservingly to the whole cube.  On rows it is one
substitution, substitution_maps, which twisted reuses with a flip:
bit j of the image of a vertex v is bit a(j) of v when a(j) is a slot,
and the constant a(j) otherwise, so the image is v, read as the arrow
m -> 0 of its bits, after the arrow.  The inverse reads the entries
off the images of the origin and the one-hot vertices, and refuses a
map the substitution does not give back.  The test suite keeps the
chain and checks the readings against each other on every arrow up to
dimension 3.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from itertools import combinations
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels
from .graphs import Graph, Vertex, _bound_tables


def bch_names(n: int, entries: Sequence[int]) -> list[str]:
    """The entries of an arrow into n by name: j<k> for output slot k, b0 and
    b1 for the constants n and n + 1."""
    return [f"j{e}" if e < n else f"b{e - n}" for e in entries]


def bch_from_json(text: str) -> tuple[int, int, tuple[int, ...]]:
    """(m, n, entries) of the arrow {"m": m, "n": n, "map": [...]}: m and n
    non-negative JSON integers, n + 1 an intp, map a JSON list of m entries,
    each "j" and ASCII digits, "b0" or "b1", no two naming one output slot."""
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
    if m < 0 or not 0 <= n < np.iinfo(np.intp).max:
        raise ValueError(f"arity must be non-negative, n below the largest intp, got {m}->{n}")
    if len(entries) != m:
        raise ValueError(f"expected {m} entries, got {len(entries)}")
    for i, e in enumerate(entries):
        if not 0 <= e < n + 2:
            raise ValueError(f"entry {e} at slot {i} out of range for n={n}")
        if e < n and e in entries[:i]:
            raise ValueError(f"output slot {e} used twice: not injective on slots")
    return m, n, tuple(entries)


def bch_compose_rows(outer: np.ndarray, inner: np.ndarray, n: int) -> np.ndarray:
    """Composites outer[i] ∘ inner[j] of entry rows, as an (len(outer), len(inner), w) array.

    outer holds arrows into n and inner arrows into their source, of w
    inputs: each inner entry picks an outer entry, or one of outer's two
    constants n and n + 1 when it is a constant itself.
    """
    outer = np.asarray(outer)
    extended = np.empty((len(outer), outer.shape[1] + 2), dtype=outer.dtype)
    extended[:, :-2] = outer
    extended[:, -2:] = n, n + 1
    return extended[:, np.asarray(inner)]


@lru_cache(maxsize=None)
def bch_rows(m: int, n: int) -> np.ndarray:
    """Entry rows of all arrows m -> n, as read-only lexicographic uint8 rows:
    the kernel's maps of m slots into n + 2 entries in which two slots
    share an entry only when it is a constant."""
    entries = np.arange(n + 2)
    allowed = (entries[:, None] != entries) | (entries[:, None] >= n)
    return kernels.edge_preserving_maps(m, n + 2, list(combinations(range(m), 2)), allowed)


def vertex_dict(src: Graph, tgt: Graph, row: Sequence[int]) -> dict[Vertex, Vertex]:
    """The vertex map of a row of target indices, by vertex name."""
    return dict(zip(src.vertices, map(tgt.vertices.__getitem__, row)))


def compose_graph_rows(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Composites outer[i] ∘ inner[j] of vertex-map rows, as a
    (len(outer), len(inner), w) array."""
    return np.asarray(outer)[:, np.asarray(inner)]


@lru_cache(maxsize=None)
def hom_matrix(src: Graph, tgt: Graph, constraints: Optional[Callable] = None) -> np.ndarray:
    """Edge-preserving vertex maps passing ``constraints(src, tgt)`` (every one
    when None), as read-only lexicographic uint8 rows of target indices; the
    kernel's capacity rule applies.  The cache keys on the arguments as
    passed, so the package passes constraints positionally, None included."""
    extra = constraints(src, tgt) if constraints else ()
    return kernels.edge_preserving_maps(
        len(src.vertices), len(tgt.vertices), np.argwhere(src.adjacency), tgt.adjacency, extra
    )


def enumerate_graph_homs(
    src: Graph, tgt: Graph, constraints: Optional[Callable] = None
) -> np.ndarray:
    """hom_matrix(src, tgt, constraints).  perfbench/kernel_filters.py times
    the kernel through this name and reads only the length of the result."""
    return hom_matrix(src, tgt, constraints)


def _bit_weights(n: int) -> np.ndarray:
    """Vertex index weight of each bit of an n-cube vertex, leftmost first."""
    return 1 << np.arange(n - 1, -1, -1, dtype=np.intp)


def substitution_maps(m: int, n: int, entries: np.ndarray, flips: int | np.ndarray) -> np.ndarray:
    """Vertex maps C^m -> C^n of substitution entry rows of width n, one row each.

    Bit j of the image of vertex v is bit a(j) of v xored with flips[j]
    when a(j) < m is a slot, and the constant a(j) - m otherwise: v, as
    the bch arrow m -> 0 of its bits, composed with each entry row.
    flips is 0 or an array of the shape of entries, 0 at each constant.
    """
    vertices = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    return (bch_compose_rows(vertices, entries, 0) ^ flips).transpose(1, 0, 2) @ _bit_weights(n)


def bchop_to_graphmeet_rows(m: int, n: int, rows: np.ndarray) -> np.ndarray:
    """Vertex maps C^m -> C^n of the entry rows of arrows n -> m, one row each:
    the join-preserving extension of the chain, in one substitution."""
    return substitution_maps(m, n, rows, 0)


def graphmeet_to_bchop_rows(m: int, n: int, vmaps: np.ndarray) -> np.ndarray:
    """Entry rows of arrows n -> m read off vertex maps C^m -> C^n, one row each.

    The origin's image gives the constants, and a one-hot vertex i whose
    image changes bit j gives a(j) = i.  Raises ValueError when a one-hot
    vertex changes two bits, or when bchop_to_graphmeet_rows does not
    give the maps back from the entries read.
    """
    vmaps = np.asarray(vmaps, dtype=np.intp)
    z = vmaps[:, 0]
    changed = vmaps[:, _bit_weights(m)] ^ z[:, None]  # changed[r, i]: bits one-hot i changes
    bits = (changed[:, :, None] & _bit_weights(n)) != 0  # bits[r, i, j]: one-hot i changes bit j
    entries = m + ((z[:, None] & _bit_weights(n)) != 0)
    for i in range(m):
        entries = np.where(bits[:, i], i, entries)
    if (bits.sum(axis=2) > 1).any() or (bchop_to_graphmeet_rows(m, n, entries) != vmaps).any():
        raise ValueError("morphism is not in the meet-and-join-preserving class")
    return entries


def bound_constraints(src: Graph, tgt: Graph) -> list[tuple]:
    """f(i ⊓ j) = f(i) ⊓ f(j) and f(i ⊔ j) = f(i) ⊔ f(j) for each pair i < j
    with a source bound w, as hom enumeration constraints into a poset: one
    test per table and level, the largest of i, j and w.  A pair whose bound
    is i or j is comparable; an edge-preserving map keeps it comparable, so
    the condition holds and the pair is left out.  A test reads the frontier
    in kernels.row_blocks, at the 8 bytes of an index for each of its pairs."""
    out = []
    for src_table, tgt_table in zip(_bound_tables(src), _bound_tables(tgt)):
        i, j = np.triu_indices(len(src_table), 1)
        w = src_table[i, j]
        keep = (w >= 0) & (w != i) & (w != j)
        i, j, w = i[keep], j[keep], w[keep]
        level = np.maximum(j, w)
        for k in sorted(set(level.tolist())):  # np.unique would import all of numpy.ma
            at = level == k
            test = lambda f, I=i[at], J=j[at], W=w[at], t=tgt_table: np.concatenate([
                (t[f[r, I], f[r, J]] == f[r, W]).all(axis=1)
                for r in kernels.row_blocks(len(f), 8 * len(I))
            ])
            out.append(((k,), test))
    return out


def dimension_constraints(src: Graph, tgt: Graph) -> list[tuple]:
    """Each non-loop edge of the cube src after the first of its dimension
    class, in edge_list order, changes the same target bits as that first
    edge, as hom enumeration constraints into the cube tgt: a cube vertex
    index is its binary value, so the bits an edge changes name its
    dimension, whichever cube tgt is."""
    first: dict[int, tuple[int, int]] = {}
    out = []
    for s, t in np.argwhere(src.adjacency).tolist():
        s0, t0 = first.setdefault(s ^ t, (s, t))
        if s != t and (s0, t0) != (s, t):
            test = lambda f, s=s, t=t, s0=s0, t0=t0: f[:, s] ^ f[:, t] == f[:, s0] ^ f[:, t0]
            out.append(((s, t, s0, t0), test))
    return out
