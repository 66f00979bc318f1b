"""Reference predicates and operations on single morphisms.

The predicates check the constrained hom enumerations row by row.  The
composition loops and the (z, d) chain are the plain one-arrow versions
of the row operations in the package, which the tests compare them with,
and the candidate filters list the bch and ternary rows without the
hom enumeration kernel.
"""

from itertools import combinations
from typing import Optional

import numpy as np

from cubecats.cubes import base_subgraph, standard_cube
from cubecats.graphs import Vertex, _bound_tables, bits_to_int, int_to_bits
from cubecats.standard import (
    BchMorphism,
    GraphMorphism,
    PartialInjection,
    _one_hot,
    extend_base_morphism,
    transpose_partial_injection,
)
from cubecats.twisted import (
    STAR,
    Face,
    TernaryMorphism,
    face_to_injection,
    image_face,
    unique_surjection,
)


def bch_rows_reference(m: int, n: int) -> np.ndarray:
    """Entry rows of all bch arrows m -> n: every candidate row over n + 2
    entries, in lexicographic order, kept when no two slots share an output slot."""
    rows = np.indices((n + 2,) * m, dtype=np.uint8).reshape(m, (n + 2) ** m).T
    injective = np.ones(len(rows), dtype=bool)
    for i, j in combinations(range(m), 2):
        injective &= (rows[:, i] != rows[:, j]) | (rows[:, i] >= n)
    return rows[injective]


def ternary_rows_reference(m: int, n: int) -> np.ndarray:
    """Digit rows of all ternary arrows m -> n: every candidate row of n digits,
    in lexicographic order, kept when it has at most m stars."""
    rows = np.indices((3,) * n, dtype=np.uint8).reshape(n, 3**n).T
    return rows[(rows == 2).sum(axis=1) <= m]


def preserves_meets(f: GraphMorphism) -> bool:
    """f(u ⊓ v) = f(u) ⊓ f(v) for every pair with a source meet."""
    return _preserves_bounds(f, 0)


def preserves_joins(f: GraphMorphism) -> bool:
    """f(u ⊔ v) = f(u) ⊔ f(v) for every pair with a source join."""
    return _preserves_bounds(f, 1)


def _preserves_bounds(f: GraphMorphism, which: int) -> bool:
    src_table = _bound_tables(f.source)[which]
    tgt_table = _bound_tables(f.target)[which]
    vmap = f.vmap
    nv = len(f.source.vertices)
    for i in range(nv):
        for j in range(i, nv):
            s = src_table[i, j]
            if s < 0:
                continue
            if tgt_table[vmap[i], vmap[j]] != vmap[s]:
                return False
    return True


def edge_dim(u: Vertex, w: Vertex) -> Optional[int]:
    """Dimension of a cube edge: the unique differing position, None for loops."""
    if u == w:
        return None
    diffs = [i for i, (a, b) in enumerate(zip(u, w)) if a != b]
    if len(diffs) != 1:
        raise ValueError(f"({u}, {w}) differs in {len(diffs)} positions, not a cube edge")
    return diffs[0]


def is_dimension_preserving(f: GraphMorphism) -> bool:
    """Edges of one source dimension all map to edges of one target dimension.

    Loops count as the trivial dimension; they always map to loops, so
    only the non-trivial classes need checking.
    """
    image_dims: dict[int, set[Optional[int]]] = {}
    for u, w in f.source.edge_list:
        d = edge_dim(u, w)
        if d is None:
            continue
        image_dims.setdefault(d, set()).add(edge_dim(f(u), f(w)))
    return all(len(dims) == 1 for dims in image_dims.values())


def bch_compose_loop(outer: BchMorphism, inner: BchMorphism) -> BchMorphism:
    """outer ∘ inner, one entry at a time: constants absorb."""
    if inner.n != outer.m:
        raise ValueError(f"cannot compose {outer.m}->{outer.n} after {inner.m}->{inner.n}")
    entries = []
    for e in inner.entries:
        if e < inner.n:
            entries.append(outer.entries[e])
        else:
            entries.append(e - inner.n + outer.n)
    return BchMorphism(inner.m, outer.n, entries)


def compose_graph_loop(outer: GraphMorphism, inner: GraphMorphism) -> GraphMorphism:
    """outer ∘ inner, one vertex at a time."""
    if inner.target != outer.source:
        raise ValueError("inner target and outer source differ")
    return GraphMorphism.from_indices(
        inner.source, outer.target, tuple(map(outer.vmap.__getitem__, inner.vmap))
    )


def ternary_compose_loop(
    g: TernaryMorphism, f: TernaryMorphism, twist: bool = True
) -> TernaryMorphism:
    """g ∘ f, one character at a time: substitute f along g's stars, xoring a
    binary value with the parity of g's zeros since its previous star."""
    if f.n != g.m:
        raise ValueError(f"cannot compose {g.m}->{g.n} after {f.m}->{f.n}")
    out = []
    j = 0
    zeros_since_star = 0
    for ch in g.seq:
        if ch == STAR:
            value = f.seq[j]
            j += 1
            if value == STAR or not twist:
                out.append(value)
            else:
                out.append(str(int(value) ^ (zeros_since_star & 1)))
            zeros_since_star = 0
        else:
            out.append(ch)
            if ch == "0":
                zeros_since_star += 1
    return TernaryMorphism(f.m, g.n, "".join(out))


def chain_bchop_to_graphmeet(a: BchMorphism) -> GraphMorphism:
    """The six-step chain: split a into constant bits z and a partial
    injection e, transpose e to d, read (z, d) as a base-subgraph
    morphism, extend it join-preservingly."""
    src_dim, tgt_dim = a.n, a.m
    z = "".join("0" if a.is_slot(j) else str(a.entries[j] - a.n) for j in range(a.m))
    e = PartialInjection(
        tgt_dim, src_dim, [a.entries[j] if a.is_slot(j) else src_dim for j in range(a.m)]
    )
    d = transpose_partial_injection(e)
    z_int = bits_to_int(z)
    mapping = {int_to_bits(0, src_dim): z}
    for i in range(src_dim):
        val = z_int if not d.defined(i) else z_int | (1 << (tgt_dim - 1 - d.entries[i]))
        mapping[_one_hot(src_dim, i)] = int_to_bits(val, tgt_dim)
    h = GraphMorphism(base_subgraph(src_dim), standard_cube(tgt_dim), mapping)
    return extend_base_morphism(h)


def chain_graphmeet_to_bchop(g: GraphMorphism) -> BchMorphism:
    """The inverse chain: read (z, d) off the origin and one-hot images."""
    m, n = g.source.dimension, g.target.dimension
    z = g(int_to_bits(0, m))
    d_entries = []
    for i in range(m):
        w = g(_one_hot(m, i))
        diffs = [j for j in range(n) if w[j] != z[j]]
        if not diffs:
            d_entries.append(n)
        elif len(diffs) == 1 and z[diffs[0]] == "0":
            d_entries.append(diffs[0])
        else:
            raise ValueError("morphism is not in the meet-and-join-preserving class")
    e = transpose_partial_injection(PartialInjection(m, n, d_entries))
    entries = [e.entries[j] if e.defined(j) else m + int(z[j]) for j in range(n)]
    return BchMorphism(n, m, entries)


def chain_ternary_to_graphdim(t: TernaryMorphism) -> GraphMorphism:
    """The edge-checked face injection after the unique surjection onto the star count."""
    inj = face_to_injection(Face(t.n, t.seq))
    return compose_graph_loop(inj, unique_surjection(t.m, t.stars))


def chain_graphdim_to_ternary(f: GraphMorphism) -> TernaryMorphism:
    """The image face as a ternary arrow, when the chain gives f back."""
    t = TernaryMorphism(f.source.dimension, f.target.dimension, image_face(f).seq)
    if chain_ternary_to_graphdim(t) != f:
        raise ValueError("morphism is not dimension-preserving")
    return t
