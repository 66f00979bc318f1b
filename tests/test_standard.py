"""Substitution arrows, graph morphisms, and the equivalence between them."""

import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecats import kernels
from cubecats.cubes import cube_rec, standard_cube, twisted_cube
from cubecats.graphs import CapacityError, graph_from_json, graph_to_json
from cubecats.standard import (
    bch_compose_rows,
    bch_from_json,
    bch_names,
    bch_rows,
    bchop_to_graphmeet_rows,
    compose_graph_rows,
    graphmeet_to_bchop_rows,
    hom_matrix,
    vertex_dict,
)
from cubecats.oracle import category_view

from predicates import (
    PartialInjection,
    base_subgraph,
    bch_compose_loop,
    bch_count,
    bch_rows_reference,
    chain_bchop_to_graphmeet,
    chain_graphmeet_to_bchop,
    compose_graph_loop,
    edge_checked,
    extend_base_morphism,
    is_dimension_preserving,
    preserves_joins,
    preserves_meets,
    transpose_partial_injection,
    vertex_row,
)

bch, graphmeet, graphdim = map(category_view, ("bch", "graphmeet", "graphdim"))


def compose1(outer, inner, n):
    """The entries of the bch composite outer ∘ inner, outer an arrow into n."""
    return tuple(bch_compose_rows(np.array([outer]), np.array([inner], dtype=np.intp), n)[0, 0])


def meet_maps(m, n):
    """The vertex maps C^m -> C^n of the arrows n -> m, one row each."""
    return bchop_to_graphmeet_rows(m, n, bch.rows(n, m))


def test_bch_counts_match_formula():
    for m in range(4):
        for n in range(4):
            assert len(bch.rows(m, n)) == bch_count(m, n)
    assert len(bch.rows(1, 1)) == 3
    assert len(bch.rows(3, 3)) == 86


def test_bch_validation():
    with pytest.raises(ValueError, match="used twice"):
        bch_from_json('{"m": 2, "n": 1, "map": ["j0", "j0"]}')
    with pytest.raises(ValueError, match="out of range"):
        bch_from_json('{"m": 1, "n": 1, "map": ["j3"]}')
    with pytest.raises(ValueError, match="non-negative"):
        bch_from_json('{"m": 1, "n": -1, "map": ["j0"]}')
    with pytest.raises(ValueError, match="expected 2 entries"):
        bch_from_json('{"m": 2, "n": 1, "map": ["j0"]}')
    assert bch_from_json('{"m": 2, "n": 1, "map": ["b0", "b0"]}') == (2, 1, (1, 1))


def test_bch_rows_match_the_candidate_filter():
    for m in range(7):
        for n in range(7):
            rows, reference = bch_rows(m, n), bch_rows_reference(m, n)
            assert rows.dtype == np.uint8 and rows.shape == reference.shape, (m, n)
            assert (rows == reference).all(), (m, n)


def test_bch_enumeration_capacity(monkeypatch):
    # the kernel's frontier is the one bound: past m = 6 arrows are still
    # listed, and a frontier of 2^12 bytes refuses 6 -> 6
    assert len(bch.rows(7, 1)) == bch_count(7, 1)
    bch_rows.cache_clear()
    monkeypatch.setattr(kernels, "MAX_FRONTIER", 2**12)
    with pytest.raises(CapacityError, match="frontier"):
        bch_rows(6, 6)


def test_bch_compose_absorbs_constants():
    # [j0, b1] after [j1]: slot 1 of g is the constant 1
    assert compose1((0, 2), (1,), 1) == (2,)
    assert bch_compose_loop((2, 1, (0, 2)), (1, 2, (1,))) == (1, 1, (2,))
    with pytest.raises(ValueError, match="cannot compose"):
        bch_compose_loop((1, 2, (1,)), (1, 2, (1,)))


def test_bch_json_round_trip():
    for a in bch.rows(2, 2).tolist():
        text = json.dumps({"m": 2, "n": 2, "map": bch_names(2, a)})
        assert bch_from_json(text) == (2, 2, tuple(a))
    with pytest.raises(ValueError):
        bch_from_json('{"m": 1, "n": 1, "map": ["q0"]}')
    with pytest.raises(ValueError):
        bch_from_json('{"m": 1, "n": 1, "map": ["b2"]}')


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_bch_category_laws_sampled(k, m, n, data):
    f = tuple(data.draw(st.sampled_from(bch.rows(k, m).tolist())))
    g = tuple(data.draw(st.sampled_from(bch.rows(m, n).tolist())))
    assert compose1(g, tuple(range(m)), n) == g
    assert compose1(tuple(range(n)), g, n) == g
    h = tuple(data.draw(st.sampled_from(bch.rows(n, 3).tolist())))
    assert compose1(compose1(h, g, 3), f, 3) == compose1(h, compose1(g, f, n), 3)


def _partial_injections(m, n):
    return {
        PartialInjection(m, n, entries)
        for entries in product(range(n + 1), repeat=m)
        if len({e for e in entries if e < n}) == sum(e < n for e in entries)
    }


def test_partial_injection_transpose_is_inverse_bijection():
    for m in range(4):
        for n in range(4):
            homs = _partial_injections(m, n)
            flipped = {transpose_partial_injection(p) for p in homs}
            assert flipped == _partial_injections(n, m)
            for p in homs:
                assert transpose_partial_injection(transpose_partial_injection(p)) == p


def test_graph_morphism_rejects_non_homomorphism():
    c1 = standard_cube(1)
    assert [1, 0] not in hom_matrix(c1, c1).tolist()
    with pytest.raises(ValueError, match="not an edge"):
        edge_checked(c1, c1, {"0": "1", "1": "0"})


def test_compose_graph_morphisms_and_identity():
    c2 = standard_cube(2)
    fs = hom_matrix(c2, c2)[:8]
    ident = np.arange(4)[None]
    assert (compose_graph_rows(fs, ident)[:, 0] == fs).all()
    assert (compose_graph_rows(ident, fs)[0] == fs).all()


def test_connection_map_is_a_hom_preserving_meets_only():
    c2, c1 = standard_cube(2), standard_cube(1)
    f = vertex_row(c2, c1, {"00": "0", "01": "0", "10": "0", "11": "1"})
    assert list(f) in hom_matrix(c2, c1).tolist()
    assert preserves_meets(c2, c1, f)
    # 01 v 10 = 11 maps to 1 while the images join to 0
    assert not preserves_joins(c2, c1, f)
    assert list(f) not in graphmeet.rows(2, 1).tolist()
    assert not is_dimension_preserving(c2, c1, f)


def test_meets_alone_admit_more_maps_than_meets_and_joins():
    c2, c1 = standard_cube(2), standard_cube(1)
    meets_only = [f for f in hom_matrix(c2, c1) if preserves_meets(c2, c1, f)]
    assert len(graphmeet.rows(2, 1)) == 4
    assert len(meets_only) == 5


def test_graphmeet_equals_structural_chain():
    # the (z, d) chain, as a reference independent of the hom enumeration
    for m in range(4):
        for n in range(4):
            src, tgt = standard_cube(m), standard_cube(n)
            chain = {
                vertex_row(src, tgt, chain_bchop_to_graphmeet(n, m, a))
                for a in bch.rows(n, m).tolist()
            }
            assert chain == set(map(tuple, graphmeet.rows(m, n).tolist()))


def test_graphmeet_is_bounded_by_the_kernel_frontier(monkeypatch):
    # a frontier of 2^12 bytes refuses C^3 -> C^3, which bch_rows(3, 3) would answer
    hom_matrix.cache_clear()
    monkeypatch.setattr(kernels, "MAX_FRONTIER", 2**12)
    with pytest.raises(CapacityError, match="frontier"):
        graphmeet.rows(3, 3)


def test_graphmeet_rows_do_not_depend_on_the_bound_test_blocks(monkeypatch):
    whole = {(m, n): graphmeet.rows(m, n) for m, n in product(range(4), repeat=2)}
    hom_matrix.cache_clear()
    monkeypatch.setattr(kernels, "GATHER_BYTES", 1)  # one frontier row per block
    try:
        for (m, n), rows in whole.items():
            blocked = graphmeet.rows(m, n)
            assert blocked.dtype == rows.dtype and np.array_equal(blocked, rows), (m, n)
    finally:
        hom_matrix.cache_clear()


def test_graphmeet_equals_graphdim_sets():
    for m in range(3):
        for n in range(3):
            assert np.array_equal(graphmeet.rows(m, n), graphdim.rows(m, n))


def test_substitution_shortcut_agrees_with_structured_chain():
    # independent reading of an arrow: substitute vertex bits into each slot
    for m in range(3):
        for n in range(3):
            for a in bch.rows(n, m).tolist():
                g = chain_bchop_to_graphmeet(n, m, a)
                for v in standard_cube(m).vertices:
                    direct = "".join(v[e] if e < m else str(e - m) for e in a)
                    assert g[v] == direct


def test_row_maps_match_the_chain():
    # the package's one-substitution maps against the six-step chain, on
    # every arrow, and on every cube map for the inverse, which accepts
    # exactly the maps of the meet-and-join class, as the chain does
    for m in range(4):
        for n in range(4):
            src, tgt = standard_cube(m), standard_cube(n)
            for a, g in zip(bch.rows(n, m).tolist(), meet_maps(m, n)):
                assert vertex_dict(src, tgt, g) == chain_bchop_to_graphmeet(n, m, a)
            accepted = []
            for g in hom_matrix(src, tgt):
                try:
                    expected = chain_graphmeet_to_bchop(m, n, vertex_dict(src, tgt, g))
                except ValueError:
                    with pytest.raises(ValueError, match="meet-and-join"):
                        graphmeet_to_bchop_rows(m, n, g[None])
                else:
                    assert tuple(graphmeet_to_bchop_rows(m, n, g[None])[0]) == expected
                    accepted.append(g)
            assert np.array_equal(np.reshape(accepted, (-1, 2**m)), graphmeet.rows(m, n))


def test_bch_compose_matches_the_reference_loop():
    homs = {(m, n): bch.rows(m, n) for m, n in product(range(4), repeat=2)}
    for k, m, n in product(range(4), repeat=3):
        composites = bch_compose_rows(homs[(m, n)], homs[(k, m)], n).tolist()
        for g, row in zip(homs[(m, n)].tolist(), composites):
            for f, composite in zip(homs[(k, m)].tolist(), row):
                assert (k, n, tuple(composite)) == bch_compose_loop((m, n, g), (k, m, f))


def test_compose_graph_morphisms_matches_the_reference_loop():
    for build, top in ((twisted_cube, 3), (standard_cube, 2)):
        for k, m, n in product(range(top + 1), repeat=3):
            cubes = build(k), build(m), build(n)
            fs, gs = hom_matrix(cubes[0], cubes[1]), hom_matrix(cubes[1], cubes[2])
            f_dicts = [vertex_dict(cubes[0], cubes[1], f) for f in fs.tolist()]
            for g, row in zip(gs.tolist(), compose_graph_rows(gs, fs).tolist()):
                g_dict = vertex_dict(cubes[1], cubes[2], g)
                for f_dict, composite in zip(f_dicts, row):
                    expected = compose_graph_loop(g_dict, f_dict)
                    assert vertex_dict(cubes[0], cubes[2], composite) == expected


def test_bchop_round_trips():
    for m in range(4):
        for n in range(4):
            arrows, maps = bch.rows(n, m), graphmeet.rows(m, n)
            assert np.array_equal(graphmeet_to_bchop_rows(m, n, meet_maps(m, n)), arrows)
            back = graphmeet_to_bchop_rows(m, n, maps)
            assert np.array_equal(bchop_to_graphmeet_rows(m, n, back), maps)


def test_bchop_functoriality_exhaustive_dim_two():
    # phi(f ∘ g) = phi(g) ∘ phi(f) for bch arrows g: n -> m and f: m -> k
    for k, m, n in product(range(3), repeat=3):
        gs, fs = bch.rows(n, m), bch.rows(m, k)
        composites = bch_compose_rows(fs, gs, k).reshape(len(fs) * len(gs), n)
        lhs = bchop_to_graphmeet_rows(k, n, composites).reshape(len(fs), len(gs), 2**k)
        rhs = compose_graph_rows(meet_maps(m, n), meet_maps(k, m))
        assert np.array_equal(lhs.transpose(1, 0, 2), rhs)


def _restrict_to_base(m, f):
    return {v: f[v] for v in base_subgraph(m).vertices}


def test_extend_restrict_round_trip():
    for m in range(4):
        for n in range(3):
            src, tgt = standard_cube(m), standard_cube(n)
            for g in meet_maps(m, n):
                g = vertex_dict(src, tgt, g)
                assert extend_base_morphism(m, n, _restrict_to_base(m, g)) == g


def test_extension_is_join_reconstruction():
    c2 = standard_cube(2)
    g = vertex_dict(c2, c2, meet_maps(2, 2)[5])
    ext = extend_base_morphism(2, 2, _restrict_to_base(2, g))
    assert ext["00"] == g["00"]


def test_graphmeet_counts_match_bch():
    for m in range(4):
        for n in range(4):
            assert len(graphmeet.rows(m, n)) == bch_count(n, m)


def test_equal_graphs_built_apart_hash_and_compare_equal():
    pairs = [(cube_rec(n, False), standard_cube(n)) for n in range(4)]
    pairs += [(graph_from_json(graph_to_json(g)), g) for g in (standard_cube(2), twisted_cube(3))]
    for a, b in pairs:
        assert a is not b
        assert a == b and b == a
        assert hash(a) == hash(b)
        # equal graphs share one cached hom-set, and name its rows alike
        assert hom_matrix(a, a, None) is hom_matrix(b, b, None)
        last = hom_matrix(a, a, None)[-1]
        assert vertex_dict(a, b, last) == vertex_dict(b, b, last)
    assert standard_cube(2) != twisted_cube(2)
