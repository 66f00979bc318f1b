"""Reference predicates on single morphisms, for checking the constrained
hom enumerations row by row."""

from typing import Optional

from cubecats.graphs import Vertex, _bound_tables
from cubecats.standard import GraphMorphism


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
