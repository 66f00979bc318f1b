"""Hom enumeration kernel: brute-force agreement, ordering, capacity, constraints."""

import hashlib
import tracemalloc
from collections import Counter
from itertools import product

import numpy as np
import pytest

from cubecats import kernels
from cubecats.cubes import standard_cube, twisted_cube
from cubecats.graphs import CapacityError
from cubecats.standard import (
    bound_constraints,
    dimension_constraints,
    enumerate_graph_homs,
    hom_matrix,
)
from cubecats.rows import CATEGORY_IDS, category_view

from predicates import is_dimension_preserving, preserves_joins, preserves_meets


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
    # an edgeless source prunes nothing: 16^7 rows of 7 bytes at the seventh vertex
    tgt = standard_cube(4)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="vertex 6 needs 1879048192 bytes"):
            kernels.edge_preserving_maps(16, 16, np.empty((0, 2), dtype=np.int64), tgt.adjacency)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16**7


def test_filter_holds_no_index_of_the_kept_rows():
    # one test keeps all 128^3 rows of 3 bytes: an 8-byte index of the kept
    # rows would by itself be over twice the frontier
    nt = 128
    keep_all = ((2,), lambda f: np.ones(len(f), dtype=bool))
    tracemalloc.start()
    try:
        maps = kernels.edge_preserving_maps(
            3, nt, np.empty((0, 2), dtype=np.int64), np.ones((nt, nt), dtype=bool), [keep_all]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert maps.shape == (nt**3, 3) and maps.dtype == np.uint8 and not maps.flags.writeable
    assert maps[[0, 1, nt, -1]].tolist() == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [nt - 1] * 3]
    # the frontier, its mask and the kept rows
    assert peak < 3 * maps.nbytes


def test_target_beyond_uint8_rows_raises():
    # 512 target vertices: uint8 rows would wrap indices 256..511 onto 0..255
    with pytest.raises(CapacityError, match="at most 256 target vertices"):
        hom_matrix(standard_cube(0), standard_cube(9))
    assert hom_matrix(standard_cube(0), standard_cube(8)).ravel().tolist() == list(range(256))


def test_a_loop_prunes_only_into_a_target_without_every_loop():
    loops = np.array([[0, 0], [1, 1], [2, 2]], dtype=np.int64)
    adj = np.ones((3, 3), dtype=bool)
    adj[1, 1] = False
    maps = kernels.edge_preserving_maps(3, 3, loops, adj)
    assert maps.tolist() == [list(row) for row in product((0, 2), repeat=3)]
    # into a target with every loop, the loops add no test: no mask and no
    # kept copy is built beside the 128^3 rows of 3 bytes
    nt = 128
    tracemalloc.start()
    try:
        maps = kernels.edge_preserving_maps(3, nt, loops, np.ones((nt, nt), dtype=bool))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert maps.shape == (nt**3, 3)
    assert peak < 1.5 * maps.nbytes


def test_a_pair_prunes_only_into_a_target_without_every_pair():
    pairs = np.array([[0, 1], [0, 2], [1, 2]], dtype=np.int64)
    adj = np.ones((3, 3), dtype=bool)
    adj[2, 0] = False
    maps = kernels.edge_preserving_maps(3, 3, pairs, adj)
    allowed = [f for f in product(range(3), repeat=3) if all(adj[f[s], f[t]] for s, t in pairs)]
    assert maps.tolist() == [list(f) for f in allowed]
    # into a target that allows every pair, as bch_rows(m, 0) and every edge
    # test into C^0 do, the pairs add no test: no mask and no kept copy is
    # built beside the 128^3 rows of 3 bytes
    nt = 128
    tracemalloc.start()
    try:
        maps = kernels.edge_preserving_maps(3, nt, pairs, np.ones((nt, nt), dtype=bool))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert maps.shape == (nt**3, 3)
    assert peak < 1.5 * maps.nbytes


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


def _kept_rows(src, tgt, keep):
    """hom_matrix rows that pass a reference predicate."""
    mat = hom_matrix(src, tgt)
    return mat[[keep(src, tgt, row) for row in mat]]


def _assert_same_rows(got, expected):
    assert got.dtype == expected.dtype == np.uint8
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("build", [standard_cube, twisted_cube])
def test_constrained_enumeration_matches_reference_predicates(build):
    def meets_and_joins(src, tgt, row):
        return preserves_meets(src, tgt, row) and preserves_joins(src, tgt, row)

    graphdim = category_view("graphdim" if build is standard_cube else "twgraphdim")

    for m in range(4):
        for n in range(4):
            src, tgt = build(m), build(n)
            dim = _kept_rows(src, tgt, is_dimension_preserving)
            _assert_same_rows(hom_matrix(src, tgt, dimension_constraints), dim)
            bound = _kept_rows(src, tgt, meets_and_joins)
            _assert_same_rows(hom_matrix(src, tgt, bound_constraints), bound)
            _assert_same_rows(graphdim.rows(m, n), dim)
            if build is standard_cube:
                _assert_same_rows(category_view("graphmeet").rows(m, n), bound)


def test_constrained_kernel_dimension_four_counts():
    c4, t4 = standard_cube(4), twisted_cube(4)
    for src, constraints, count in [
        (c4, dimension_constraints(c4, c4), 648),
        (t4, dimension_constraints(t4, t4), 81),
        (c4, bound_constraints(c4, c4), 648),
    ]:
        maps = kernels.edge_preserving_maps(*_args(src, src), constraints)
        assert maps.shape == (count, 16)


def test_bound_constraints_one_test_per_table_and_level():
    # the meet tests, then the join tests, each in increasing level order
    for n in range(5):
        cube = standard_cube(n)
        levels = [max(positions) for positions, _ in bound_constraints(cube, cube)]
        assert sum(a >= b for a, b in zip(levels, levels[1:])) <= 1
        assert len(levels) <= 2 * 2**n


def test_dimension_constraints_skip_the_first_edge_of_each_class():
    # m 2^(m-1) non-loop edges in m classes, each class's first edge compared with no other
    for m in range(5):
        for n in range(5):
            src, tgt = standard_cube(m), standard_cube(n)
            assert len(dimension_constraints(src, tgt)) == m * 2**m // 2 - m


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


# sha256 of every listing rows(m, n), m, n <= 4, of each category
LISTING_DIGESTS = {
    "bch": "2027922f09248ba5ca2b2074403ff4c806a8349856e0a40b6188c29815e3af07",
    "bchop": "7b014314293dbebfc30e4d9aea3349176b12ebe9439d5980606647ccf941112b",
    "graphcube": "d3943e96275cb2e4cc6e8cc648605ddc61984110786d248e10af23420a5cf8d5",
    "graphmeet": "a94712241bd712d4024bcebb720ea9361d39f99806a7b24b386b8dfe292d70d1",
    "graphdim": "a94712241bd712d4024bcebb720ea9361d39f99806a7b24b386b8dfe292d70d1",
    "twcubecat": "233a0140abbb329dcd3674d1b253248984d96eedb961da90cce715c116672ca6",
    "twgraphdim": "24d405a1acf4655dd871cd1df4ce3eb029c50d570ece06c58d29c06c4ecb6b66",
    "ternary": "c4f8a0cde4cdf3c0902da29e24715a735b42714ecffa5aff00fd59f8386e4ee8",
    "semi": "0314b5c920eda62ba6bbe80feca5132022c052d7812147971290635573decce1",
}


@pytest.mark.parametrize("cat_id", CATEGORY_IDS)
def test_listings_keep_their_bytes(cat_id):
    view = category_view(cat_id)
    digest = hashlib.sha256()
    for m in range(5):
        for n in range(5):
            rows = view.rows(m, n)
            digest.update(f"{m} {n} {rows.shape} {rows.dtype}\n".encode())
            digest.update(rows.tobytes())
    assert digest.hexdigest() == LISTING_DIGESTS[cat_id]
