"""Hom enumeration kernel: brute-force agreement, ordering, capacity, post-filters."""

import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

from cubecats import kernels
from cubecats.cubes import standard_cube, twisted_cube
from cubecats.graphs import CapacityError, _bound_tables
from cubecats.standard import (
    GraphMorphism,
    _dim_classes,
    _dim_table,
    enumerate_graph_homs,
    hom_matrix,
    is_dimension_preserving,
    preserves_joins,
    preserves_meets,
)


def _args(src, tgt):
    edges = np.array(
        [[src.index[u], src.index[v]] for u, v in src.edge_list], dtype=np.int64
    )
    return len(src.vertices), len(tgt.vertices), edges, tgt.adjacency


def _brute_maps(src, tgt):
    ns, nt = len(src.vertices), len(tgt.vertices)
    out = []
    for f in product(range(nt), repeat=ns):
        if all(tgt.adjacency[f[u], f[v]] for u, v in
               ((src.index[a], src.index[b]) for a, b in src.edge_list)):
            out.append(f)
    return out


def test_kernel_matches_itertools_brute_force():
    for src, tgt in [
        (standard_cube(1), standard_cube(1)),
        (standard_cube(2), standard_cube(2)),
        (twisted_cube(2), standard_cube(2)),
        (standard_cube(0), twisted_cube(2)),
        (twisted_cube(2), twisted_cube(1)),
        (twisted_cube(2), twisted_cube(3)),
        (standard_cube(2), twisted_cube(3)),
        # 16-vertex sources: every level of the frontier is exercised
        (standard_cube(4), standard_cube(1)),
        (twisted_cube(4), twisted_cube(1)),
    ]:
        got = kernels.edge_preserving_maps(*_args(src, tgt))
        assert [tuple(row) for row in got] == _brute_maps(src, tgt)


def test_kernel_dimension_four_counts():
    assert kernels.edge_preserving_maps(*_args(standard_cube(4), standard_cube(4))).shape == (
        120312,
        16,
    )
    assert kernels.edge_preserving_maps(*_args(twisted_cube(4), twisted_cube(4))).shape == (
        689,
        16,
    )


def test_frontier_guard_raises_before_allocating():
    # an edgeless source prunes nothing: 16^7 rows at the seventh vertex
    tgt = standard_cube(4)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            kernels.edge_preserving_maps(16, 16, np.empty((0, 2), dtype=np.int64), tgt.adjacency)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16**7


def test_kernel_output_is_lexicographic():
    args = _args(standard_cube(2), standard_cube(2))
    maps = kernels.edge_preserving_maps(*args)
    assert len(maps) == 24
    rows = [tuple(r) for r in maps]
    assert rows == sorted(rows)


def test_one_cube_endomorphism_count():
    # 0->0, 0->1 collapsed, 1->1: the reversed assignment breaks the edge
    args = _args(standard_cube(1), standard_cube(1))
    maps = kernels.edge_preserving_maps(*args)
    assert [tuple(r) for r in maps] == [(0, 0), (0, 1), (1, 1)]


def test_empty_source_yields_single_empty_map():
    g = standard_cube(0)
    maps = kernels.edge_preserving_maps(0, 1, np.empty((0, 2), dtype=np.int64), g.adjacency)
    assert maps.shape == (1, 0)


def test_bound_preserving_mask_matches_slow_path():
    src, tgt = standard_cube(2), standard_cube(2)
    mat = hom_matrix(src, tgt)
    meet_mask = kernels.bound_preserving_mask(mat, _bound_tables(src)[0], _bound_tables(tgt)[0])
    join_mask = kernels.bound_preserving_mask(mat, _bound_tables(src)[1], _bound_tables(tgt)[1])
    for row, keep_m, keep_j in zip(mat, meet_mask, join_mask):
        f = GraphMorphism.from_indices(src, tgt, tuple(int(x) for x in row))
        assert keep_m == preserves_meets(f)
        assert keep_j == preserves_joins(f)


def test_dimension_preserving_mask_matches_slow_path():
    src, tgt = twisted_cube(2), twisted_cube(2)
    mat = hom_matrix(src, tgt)
    mask = kernels.dimension_preserving_mask(mat, _dim_classes(src), _dim_table(tgt))
    for row, keep in zip(mat, mask):
        f = GraphMorphism.from_indices(src, tgt, tuple(int(x) for x in row))
        assert keep == is_dimension_preserving(f)


def test_fibre_counts_matches_counter():
    src, tgt = twisted_cube(2), twisted_cube(1)
    mat = hom_matrix(src, tgt)
    counts = kernels.fibre_counts(mat, len(tgt.vertices))
    for row, cnt in zip(mat, counts):
        expect = Counter(int(x) for x in row)
        assert [expect.get(j, 0) for j in range(2)] == cnt.tolist()


def test_enumerate_graph_homs_total_counts():
    assert len(enumerate_graph_homs(standard_cube(2), standard_cube(2))) == 24
    assert len(enumerate_graph_homs(standard_cube(3), standard_cube(3))) == 686
    assert len(enumerate_graph_homs(twisted_cube(3), twisted_cube(3))) == 111
