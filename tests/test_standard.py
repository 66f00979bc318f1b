"""Substitution arrows, graph morphisms, and the equivalence between them."""

from itertools import product
from math import comb, perm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecats import kernels
from cubecats.cubes import base_subgraph, standard_cube, standard_cube_rec, twisted_cube
from cubecats.graphs import CapacityError, graph_from_json, graph_to_json
from cubecats.standard import (
    BchMorphism,
    GraphMorphism,
    bch_compose,
    bch_from_json,
    bch_rows,
    bchop_to_graphmeet,
    compose_graph_morphisms,
    enumerate_graph_homs,
    graphmeet_to_bchop,
    hom_matrix,
)
from cubecats.oracle import category_view

from predicates import (
    PartialInjection,
    bch_compose_loop,
    bch_rows_reference,
    chain_bchop_to_graphmeet,
    chain_graphmeet_to_bchop,
    compose_graph_loop,
    extend_base_morphism,
    is_dimension_preserving,
    preserves_joins,
    preserves_meets,
    transpose_partial_injection,
)

bch, graphmeet, graphdim = map(category_view, ("bch", "graphmeet", "graphdim"))


def identity(g):
    return GraphMorphism.from_indices(g, g, range(len(g.vertices)))


def bch_count(m, n):
    # choose which inputs hit outputs, an injection for them, constants elsewhere
    return sum(comb(m, k) * perm(n, k) * 2 ** (m - k) for k in range(min(m, n) + 1))


def test_bch_counts_match_formula():
    for m in range(4):
        for n in range(4):
            assert len(bch.rows(m, n)) == bch_count(m, n)
    assert len(bch.rows(1, 1)) == 3
    assert len(bch.rows(3, 3)) == 86


def test_bch_validation():
    with pytest.raises(ValueError):
        BchMorphism(2, 1, [0, 0])
    with pytest.raises(ValueError):
        BchMorphism(1, 1, [3])
    with pytest.raises(ValueError, match="non-negative"):
        BchMorphism(1, -1, [0])
    BchMorphism(2, 1, [1, 1])


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
    g = BchMorphism(2, 1, [0, 2])
    f = BchMorphism(1, 2, [1])
    composite = bch_compose(g, f)
    assert composite.entries == (2,)
    with pytest.raises(ValueError):
        bch_compose(f, f)


def test_bch_json_round_trip():
    for a in bch.hom(2, 2):
        assert bch_from_json(a.to_json()) == a
    with pytest.raises(ValueError):
        bch_from_json('{"m": 1, "n": 1, "map": ["q0"]}')
    with pytest.raises(ValueError):
        bch_from_json('{"m": 1, "n": 1, "map": ["b2"]}')


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_bch_category_laws_sampled(k, m, n, data):
    f = data.draw(st.sampled_from(bch.hom(k, m)))
    g = data.draw(st.sampled_from(bch.hom(m, n)))
    assert bch_compose(g, BchMorphism(m, m, range(m))) == g
    assert bch_compose(BchMorphism(n, n, range(n)), g) == g
    h = data.draw(st.sampled_from(bch.hom(n, 3)))
    assert bch_compose(bch_compose(h, g), f) == bch_compose(h, bch_compose(g, f))


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
    with pytest.raises(ValueError):
        GraphMorphism(c1, c1, {"0": "1", "1": "0"})


def test_compose_graph_morphisms_and_identity():
    c2 = standard_cube(2)
    ident = identity(c2)
    for f in enumerate_graph_homs(c2, c2)[:8]:
        assert compose_graph_morphisms(f, ident) == f
        assert compose_graph_morphisms(ident, f) == f


def test_connection_map_is_a_hom_preserving_meets_only():
    f = GraphMorphism(standard_cube(2), standard_cube(1), {"00": "0", "01": "0", "10": "0", "11": "1"})
    assert f in enumerate_graph_homs(standard_cube(2), standard_cube(1))
    assert preserves_meets(f)
    # 01 v 10 = 11 maps to 1 while the images join to 0
    assert not preserves_joins(f)
    assert f not in graphmeet.hom(2, 1)
    assert not is_dimension_preserving(f)


def test_meets_alone_admit_more_maps_than_meets_and_joins():
    both = graphmeet.hom(2, 1)
    meets_only = [f for f in enumerate_graph_homs(standard_cube(2), standard_cube(1)) if preserves_meets(f)]
    assert len(both) == 4
    assert len(meets_only) == 5


def test_graphmeet_equals_structural_chain():
    # the (z, d) chain, as a reference independent of the hom enumeration
    for m in range(4):
        for n in range(4):
            chain = {chain_bchop_to_graphmeet(a) for a in bch.hom(n, m)}
            assert chain == set(graphmeet.hom(m, n))


def test_graphmeet_is_bounded_by_the_kernel_frontier(monkeypatch):
    # a frontier of 2^12 bytes refuses C^3 -> C^3, which bch_rows(3, 3) would answer
    hom_matrix.cache_clear()
    monkeypatch.setattr(kernels, "MAX_FRONTIER", 2**12)
    with pytest.raises(CapacityError, match="frontier"):
        graphmeet.rows(3, 3)


def test_graphmeet_equals_graphdim_sets():
    for m in range(3):
        for n in range(3):
            assert set(graphmeet.hom(m, n)) == set(graphdim.hom(m, n))


def test_substitution_shortcut_agrees_with_structured_chain():
    # independent reading of an arrow: substitute vertex bits into each slot
    for m in range(3):
        for n in range(3):
            for a in bch.hom(n, m):
                g = chain_bchop_to_graphmeet(a)
                src = standard_cube(a.n)
                for v in src.vertices:
                    direct = "".join(
                        v[e] if e < a.n else str(e - a.n) for e in a.entries
                    )
                    assert g(v) == direct


def test_row_maps_match_the_chain():
    # the package's one-substitution maps against the six-step chain, on
    # every arrow, and on every cube map for the inverse, which refuses the
    # maps outside the meet-and-join class as the chain does
    for m in range(4):
        for n in range(4):
            for a in bch.hom(n, m):
                assert bchop_to_graphmeet(a) == chain_bchop_to_graphmeet(a)
            for g in enumerate_graph_homs(standard_cube(m), standard_cube(n)):
                try:
                    expected = chain_graphmeet_to_bchop(g)
                except ValueError:
                    with pytest.raises(ValueError, match="meet-and-join"):
                        graphmeet_to_bchop(g)
                else:
                    assert graphmeet_to_bchop(g) == expected


def test_bch_compose_matches_the_reference_loop():
    homs = {(m, n): bch.hom(m, n) for m, n in product(range(4), repeat=2)}
    for k, m, n in product(range(4), repeat=3):
        for g in homs[(m, n)]:
            for f in homs[(k, m)]:
                assert bch_compose(g, f) == bch_compose_loop(g, f)


def test_compose_graph_morphisms_matches_the_reference_loop():
    for build, top in ((twisted_cube, 3), (standard_cube, 2)):
        for k, m, n in product(range(top + 1), repeat=3):
            fs = enumerate_graph_homs(build(k), build(m))
            for g in enumerate_graph_homs(build(m), build(n)):
                for f in fs:
                    assert compose_graph_morphisms(g, f) == compose_graph_loop(g, f)


def test_bchop_round_trips():
    for m in range(4):
        for n in range(4):
            for a in bch.hom(n, m):
                assert graphmeet_to_bchop(bchop_to_graphmeet(a)) == a
            for g in graphmeet.hom(m, n):
                assert bchop_to_graphmeet(graphmeet_to_bchop(g)) == g


def test_bchop_functoriality_exhaustive_dim_two():
    homs = {(m, n): bch.hom(m, n) for m, n in product(range(3), repeat=2)}
    for k, m, n in product(range(3), repeat=3):
        for g_arr in homs[(n, m)]:
            lhs_outer = bchop_to_graphmeet(g_arr)
            for f_arr in homs[(m, k)]:
                composite = bch_compose(f_arr, g_arr)
                assert bchop_to_graphmeet(composite) == compose_graph_morphisms(
                    lhs_outer, bchop_to_graphmeet(f_arr)
                )


def _restrict_to_base(f):
    base = base_subgraph(f.source.dimension)
    return GraphMorphism(base, f.target, {v: f(v) for v in base.vertices})


def test_extend_restrict_round_trip():
    for m in range(4):
        for n in range(3):
            for a in bch.hom(n, m):
                g = bchop_to_graphmeet(a)
                assert extend_base_morphism(_restrict_to_base(g)) == g


def test_extension_is_join_reconstruction():
    g = bchop_to_graphmeet(bch.hom(2, 2)[5])
    ext = extend_base_morphism(_restrict_to_base(g))
    origin = "0" * g.source.dimension
    assert ext(origin) == g(origin)


def test_graphmeet_counts_match_bch():
    for m in range(4):
        for n in range(4):
            assert len(graphmeet.rows(m, n)) == bch_count(n, m)


def test_equal_graphs_built_apart_hash_and_compare_equal():
    pairs = [(standard_cube_rec(n), standard_cube(n)) for n in range(4)]
    pairs += [(graph_from_json(graph_to_json(g)), g) for g in (standard_cube(2), twisted_cube(3))]
    for a, b in pairs:
        assert a is not b
        assert a == b and b == a
        assert hash(a) == hash(b)
        assert identity(a) == identity(b)
        assert hash(identity(a)) == hash(identity(b))
        homs_a, homs_b = enumerate_graph_homs(a, a), enumerate_graph_homs(b, b)
        assert homs_a == homs_b
        assert GraphMorphism.from_indices(a, b, homs_a[-1].vmap) == homs_b[-1]
    assert standard_cube(2) != twisted_cube(2)
