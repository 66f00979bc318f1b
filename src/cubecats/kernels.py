"""Hom enumeration and post-filter masks over vertex-map matrices.

A vertex map is a row of target indices, one per source vertex.
``edge_preserving_maps`` lists every map that sends each source edge to
a target edge.  It refines partial maps level by level, in the manner
of Ullmann ("An algorithm for subgraph isomorphism", J. ACM 23(1),
1976), run breadth-first in numpy: the rows fixing source vertices
0..k-1 are extended by every target value for vertex k, and the edges
whose larger endpoint is k prune them at once.  The work follows the
partial maps that survive, not the nt ** ns candidates.

The masks then select meet-, join- and dimension-preserving rows.
"""

from __future__ import annotations

import numpy as np

from .graphs import CapacityError

# Largest extended frontier, in rows.  8^8 is the full candidate count
# of a 3-cube pair, so every request with at most 8 vertices a side fits.
MAX_FRONTIER = 8**8


def edge_preserving_maps(ns: int, nt: int, edges: np.ndarray, adj: np.ndarray) -> np.ndarray:
    """All vertex maps sending every listed edge to an edge.

    ns, nt: source and target vertex counts.  edges: (E, 2) int array of
    source edge index pairs, loops included, either endpoint first.
    adj: (nt, nt) boolean adjacency of the target.  Returns a (N, ns)
    uint8 array whose rows are the surviving maps in lexicographic
    order.  Raises CapacityError before building a frontier of more than
    MAX_FRONTIER rows.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    adj = np.asarray(adj, dtype=np.bool_)
    last = edges.max(axis=1)
    maps = np.zeros((1, 0), dtype=np.uint8)
    for k in range(ns):
        rows = len(maps) * nt
        if rows > MAX_FRONTIER:
            raise CapacityError(
                f"hom enumeration frontier at source vertex {k} has {rows} rows, "
                f"over the limit of {MAX_FRONTIER}"
            )
        # each row repeated nt times, the new digit tiled 0..nt-1 beside
        # it: lexicographic order is kept, and no temporaries are built
        ext = np.empty((len(maps), nt, k + 1), dtype=np.uint8)
        ext[:, :, :k] = maps[:, None, :]
        ext[:, :, k] = np.arange(nt)
        maps = ext.reshape(rows, k + 1)
        for s, t in edges[last == k]:
            maps = maps[adj[maps[:, s], maps[:, t]]]
    return maps


def bound_preserving_mask(
    maps: np.ndarray, src_table: np.ndarray, tgt_table: np.ndarray, chunk: int = 1 << 17
) -> np.ndarray:
    """Rows whose map preserves a binary-bound table (meets or joins).

    The tables hold, per ordered vertex pair, the index of the bound or
    -1 where none exists; a row survives when for every pair with a
    source bound the images have a target bound and it is the image of
    the source bound.
    """
    n_rows = maps.shape[0]
    has_src = src_table >= 0
    src_safe = np.where(has_src, src_table, 0)
    mask = np.ones(n_rows, dtype=bool)
    for start in range(0, n_rows, chunk):
        rows = maps[start : start + chunk].astype(np.int16)
        img_bound = tgt_table[rows[:, :, None], rows[:, None, :]]
        required = rows[:, src_safe]
        ok = np.where(has_src[None, :, :], img_bound == required, True)
        mask[start : start + rows.shape[0]] = ok.all(axis=(1, 2))
    return mask


def dimension_preserving_mask(
    maps: np.ndarray, src_classes: list[np.ndarray], tgt_dim_table: np.ndarray
) -> np.ndarray:
    """Rows sending all edges of one source dimension to one target dimension.

    src_classes lists non-loop edges per source dimension as index
    pairs; tgt_dim_table gives the target dimension per edge (with the
    loop marker on the diagonal).  Maps are assumed edge-preserving.
    """
    mask = np.ones(maps.shape[0], dtype=bool)
    for edges in src_classes:
        dims = tgt_dim_table[maps[:, edges[:, 0]], maps[:, edges[:, 1]]]
        mask &= (dims == dims[:, :1]).all(axis=1)
    return mask


def fibre_counts(maps: np.ndarray, nt: int) -> np.ndarray:
    """Per row, how many source vertices hit each target vertex."""
    n_rows = maps.shape[0]
    counts = np.zeros((n_rows, nt), dtype=np.int32)
    np.add.at(counts, (np.arange(n_rows)[:, None], maps.astype(np.intp)), 1)
    return counts
