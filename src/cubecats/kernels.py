"""Hom enumeration over vertex-map matrices.

A vertex map is a row of target indices, one per source vertex.
``edge_preserving_maps`` lists every map that sends each source edge to
a target edge and passes any extra constraints.  It refines partial
maps level by level, in the manner of Ullmann ("An algorithm for
subgraph isomorphism", J. ACM 23(1), 1976), run breadth-first in numpy:
the rows fixing source vertices 0..k-1 are extended by every target
value for vertex k, and every condition whose largest source vertex is
k prunes them at once (forward checking, Haralick and Elliott,
Artificial Intelligence 14, 1980).  The work follows the partial maps
that survive, not the nt ** ns candidates.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graphs import CapacityError

# Largest extended frontier, in bytes of uint8 rows: 8^8 rows of 8
# columns, the last level of the full candidate set of a 3-cube pair.
# This is the one bound on a hom-set's size; it holds for any source.
MAX_FRONTIER = 2**27
# Largest block of a batched row operation, in bytes: the oracle's pair
# products and the bound tests of hom enumeration work in blocks of rows.
GATHER_BYTES = 1 << 22


def edge_preserving_maps(
    ns: int, nt: int, edges: np.ndarray, adj: np.ndarray, constraints: Sequence[tuple] = ()
) -> np.ndarray:
    """All maps sending every listed pair to an allowed pair and passing the constraints.

    ns, nt: source positions and target values.  edges: (E, 2) int array
    of position pairs (a graph's edges, loops included), either one first.
    adj: (nt, nt) boolean table of allowed value pairs (a target's
    adjacency).  constraints: extra (positions, row test) pairs; at the
    level of its largest position, after that level's pairs, each test
    maps the partial maps to a boolean mask of the rows to keep.  Returns
    a read-only (N, ns) uint8 array of the survivors in lexicographic
    order.  Raises CapacityError when nt > 256, which uint8 rows cannot
    index, and before building a frontier of more than MAX_FRONTIER bytes.
    """
    if nt > 256:
        raise CapacityError(f"hom enumeration needs at most 256 target vertices, got {nt}")
    adj = np.asarray(adj, dtype=np.bool_)
    all_pairs, all_loops = adj.all(), adj.diagonal().all()  # then no pair (loop) can reject a map
    tests: list[list] = [[] for _ in range(ns)]
    for s, t in np.asarray(edges, dtype=np.int64).reshape(-1, 2).tolist():
        if not (all_pairs or s == t and all_loops):
            tests[max(s, t)].append(lambda f, s=s, t=t: adj[f[:, s], f[:, t]])
    for vertices, test in constraints:
        tests[max(vertices)].append(test)
    maps = np.zeros((1, 0), dtype=np.uint8)
    for k in range(ns):
        rows = len(maps) * nt
        if rows * (k + 1) > MAX_FRONTIER:
            raise CapacityError(
                f"hom enumeration frontier at source vertex {k} needs {rows * (k + 1)} "
                f"bytes, over the limit of {MAX_FRONTIER}"
            )
        # each row repeated nt times, the new digit tiled 0..nt-1 beside
        # it: lexicographic order is kept, and no temporaries are built
        ext = np.empty((len(maps), nt, k + 1), dtype=np.uint8)
        ext[:, :, :k] = maps[:, None, :]
        ext[:, :, k] = np.arange(nt)
        maps = ext.reshape(rows, k + 1)
        for test in tests[k]:
            # masked as one void item a row, so numpy builds no intp index of the kept rows
            kept = maps.view(f"V{k + 1}")[:, 0][test(maps)]
            maps = kept.view(np.uint8).reshape(len(kept), k + 1)
    maps.setflags(write=False)
    return maps


def row_blocks(rows: int, row_bytes: int) -> list[slice]:
    """In-order slices over range(rows), at least one: a row, or GATHER_BYTES at row_bytes a row."""
    step = max(1, GATHER_BYTES // max(1, row_bytes))
    return [slice(start, start + step) for start in range(0, max(rows, 1), step)]


def fibre_counts(maps: np.ndarray, nt: int) -> np.ndarray:
    """Per row, how many source vertices hit each target vertex."""
    n_rows = maps.shape[0]
    counts = np.zeros((n_rows, nt), dtype=np.int32)
    np.add.at(counts, (np.arange(n_rows)[:, None], maps.astype(np.intp)), 1)
    return counts
