"""Twisted-cube structure: the path order, faces, and ternary composition."""

from collections import Counter
from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecats import kernels
from cubecats.cubes import twisted_cube
from cubecats.oracle import category_view
from cubecats.standard import compose_graph_rows, hom_matrix, vertex_dict
from cubecats.twisted import (
    graphdim_to_ternary_rows,
    hamiltonian_f,
    hamiltonian_path,
    order_g,
    semi_rows,
    ternary_compose,
    ternary_compose_rows,
    ternary_row,
    ternary_rows,
    ternary_seq,
    ternary_to_graphdim_rows,
)

from predicates import (
    bits_to_int,
    chain_graphdim_to_ternary,
    chain_ternary_to_graphdim,
    f_bits,
    face_to_injection,
    g_bits,
    image_face,
    int_to_bits,
    rev,
    semi_count,
    ternary_compose_loop,
    ternary_rows_reference,
    unique_surjection,
    vertex_row,
)

ternary, semi, twgraphdim = map(category_view, ("ternary", "semi", "twgraphdim"))


def test_hamiltonian_f_two_cube_table():
    assert [hamiltonian_f(2, k) for k in range(4)] == ["01", "00", "10", "11"]


def test_hamiltonian_f_three_cube_table():
    path = [hamiltonian_f(3, k) for k in range(8)]
    assert path == ["011", "010", "000", "001", "101", "100", "110", "111"]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.data())
def test_order_g_inverts_hamiltonian_f(n, data):
    k = data.draw(st.integers(0, 2**n - 1))
    assert order_g(n, hamiltonian_f(n, k)) == k


def test_rev_is_bitwise_complement():
    assert rev("0101") == "1010"
    assert rev("") == ""


def test_closed_forms_match_the_recursion():
    for n in range(11):
        for k in range(2**n):
            v = f_bits(int_to_bits(k, n))
            assert hamiltonian_f(n, k) == v
            assert order_g(n, v) == bits_to_int(g_bits(v)) == k
    for k in (-1, 4):
        with pytest.raises(ValueError, match="out of range"):
            hamiltonian_f(2, k)


def test_hamiltonian_path_steps_are_edges():
    for n in range(1, 5):
        t = twisted_cube(n)
        steps = hamiltonian_path(n)
        assert len(steps) == 2**n - 1
        assert all((u, v) in t.edges for u, v in steps)
        visited = [steps[0][0]] + [v for _, v in steps]
        assert len(set(visited)) == 2**n


def test_hamiltonian_path_two_cube_frozen():
    assert hamiltonian_path(2) == [("01", "00"), ("00", "10"), ("10", "11")]


def test_single_dimension_zero_step_at_midpoint():
    for n in range(1, 5):
        steps = hamiltonian_path(n)
        flips = [k for k, (u, v) in enumerate(steps) if u[0] != v[0]]
        assert flips == [2 ** (n - 1) - 1]


def test_unique_surjection_truncates_bits():
    s = unique_surjection(2, 1)
    assert s == {"00": "0", "01": "0", "10": "1", "11": "1"}
    assert list(vertex_row(twisted_cube(2), twisted_cube(1), s)) in twgraphdim.rows(2, 1).tolist()
    with pytest.raises(ValueError):
        unique_surjection(1, 2)


def faces(n, k):
    """The k-faces of the n-cube: the semi arrows k -> n, as strings."""
    return [ternary_seq(row) for row in semi_rows(k, n)]


def test_face_counts_and_enumeration():
    assert faces(2, 1) == ["0*", "1*", "*0", "*1"]
    for n in range(5):
        counts = [len(faces(n, k)) for k in range(n + 1)]
        assert counts == [comb(n, k) * 2 ** (n - k) for k in range(n + 1)]
        assert sum(counts) == 3**n


def test_face_injection_frozen_one_cube_faces():
    assert face_to_injection("0*") == {"0": "01", "1": "00"}
    assert face_to_injection("1*") == {"0": "10", "1": "11"}


def test_face_injection_image_recovers_face():
    for n in range(4):
        for k in range(n + 1):
            for face in faces(n, k):
                inj = face_to_injection(face)
                assert len(set(inj.values())) == 2**k
                assert image_face(inj) == face


def test_ternary_validation_reports_position():
    # ternary_compose reads f, then g, as ternary_row does
    with pytest.raises(ValueError, match="position 1: invalid character 'x'"):
        ternary_compose("0x", "*")
    with pytest.raises(ValueError, match="position 0: invalid character 'y'"):
        ternary_compose("x", "y")
    with pytest.raises(ValueError, match="'\\*\\*' has 2 stars, more than m=1"):
        ternary_compose("**", "0")
    with pytest.raises(ValueError, match="more than m=0"):
        ternary_row("*", 0)
    assert ternary_row("01*", 1).tolist() == [0, 1, 2]


def test_ternary_compose_frozen_cases():
    assert ternary_compose("0**", "1*") == "00*"
    assert ternary_compose("**", "00") == "00"
    assert ternary_compose("0**", "11") == "001"
    assert ternary_compose("*0*", "11") == "100"
    assert ternary_compose("0**", "00") == "010"


def test_untwisted_compose_skips_parity():
    assert ternary_compose("0**", "1*", twist=False) == "01*"
    assert ternary_compose("0**", "1*") == "00*"


def test_row_maps_match_the_face_chain():
    # every arrow, and for the inverse every twisted cube map, which both
    # accept exactly when it is dimension-preserving
    for m in range(4):
        for n in range(4):
            src, tgt = twisted_cube(m), twisted_cube(n)
            rows = ternary.rows(m, n)
            for t, f in zip(rows.tolist(), ternary_to_graphdim_rows(m, n, rows)):
                assert vertex_dict(src, tgt, f) == chain_ternary_to_graphdim(m, ternary_seq(t))
            accepted = []
            for f in hom_matrix(src, tgt):
                try:
                    expected = chain_graphdim_to_ternary(m, vertex_dict(src, tgt, f))
                except ValueError:
                    with pytest.raises(ValueError, match="dimension-preserving"):
                        graphdim_to_ternary_rows(m, n, f[None])
                else:
                    assert ternary_seq(graphdim_to_ternary_rows(m, n, f[None])[0]) == expected
                    accepted.append(f)
            assert np.array_equal(np.reshape(accepted, (-1, 2**m)), twgraphdim.rows(m, n))


def test_ternary_compose_matches_the_reference_loop():
    homs = {(m, n): ternary.rows(m, n) for m, n in product(range(4), repeat=2)}
    for k, m, n in product(range(4), repeat=3):
        gs, fs = homs[(m, n)], homs[(k, m)]
        for twist in (True, False):
            composites = ternary_compose_rows(gs, fs, twist)
            assert composites.dtype == np.uint8  # the twist's flip does not widen the digits
            for g, row in zip(map(ternary_seq, gs), composites):
                for f, composite in zip(map(ternary_seq, fs), row):
                    assert ternary_seq(composite) == ternary_compose_loop(g, f, twist)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_ternary_identity_laws(m, n, data):
    t = data.draw(st.sampled_from(ternary.hom(m, n)))
    assert ternary_compose(t, "*" * m) == t
    assert ternary_compose("*" * n, t) == t


def test_ternary_to_graphdim_is_bijection_small():
    for m in range(4):
        for n in range(4):
            arrows = ternary.rows(m, n)
            maps = ternary_to_graphdim_rows(m, n, arrows)
            graphs = twgraphdim.rows(m, n)
            assert len(arrows) == len(graphs)
            assert set(map(tuple, maps.tolist())) == set(map(tuple, graphs.tolist()))
            assert np.array_equal(graphdim_to_ternary_rows(m, n, maps), arrows)


def test_ternary_counts_frozen():
    table = [[len(ternary.rows(m, n)) for n in range(4)] for m in range(4)]
    assert table == [
        [1, 2, 4, 8],
        [1, 3, 8, 20],
        [1, 3, 9, 26],
        [1, 3, 9, 27],
    ]


def test_ternary_rows_match_the_candidate_filter():
    for m in range(7):
        for n in range(7):
            rows, reference = ternary_rows(m, n), ternary_rows_reference(m, n)
            assert rows.dtype == np.uint8 and rows.shape == reference.shape, (m, n)
            assert (rows == reference).all(), (m, n)


def test_ternary_rows_test_stars_only_past_m_digits(monkeypatch):
    calls, kernel = [], kernels.edge_preserving_maps

    def recorded(ns, nt, edges, adj, constraints):
        calls.append([positions for positions, _ in constraints])
        return kernel(ns, nt, edges, adj, constraints)

    monkeypatch.setattr(kernels, "edge_preserving_maps", recorded)
    for m in range(5):
        for n in range(5):
            assert np.array_equal(ternary_rows.__wrapped__(m, n), ternary_rows(m, n))
            assert calls.pop() == [(k,) for k in range(m, n)], (m, n)


def test_ternary_functorial_exhaustive_dim_two():
    # phi(g ∘ f) = phi(g) ∘ phi(f) for g: m -> n and f: k -> m
    for k, m, n in product(range(3), repeat=3):
        gs, fs = ternary.rows(m, n), ternary.rows(k, m)
        composites = ternary_compose_rows(gs, fs).reshape(len(gs) * len(fs), n)
        lhs = ternary_to_graphdim_rows(k, n, composites).reshape(len(gs), len(fs), 2**k)
        phi_g, phi_f = ternary_to_graphdim_rows(m, n, gs), ternary_to_graphdim_rows(k, m, fs)
        assert np.array_equal(lhs, compose_graph_rows(phi_g, phi_f))


def test_identity_ternary_maps_to_identity_morphism():
    for n in range(4):
        identity = ternary_to_graphdim_rows(n, n, np.full((1, n), 2))
        assert identity.tolist() == [list(range(2**n))]


def test_semi_ternary_uses_every_input():
    for m in range(4):
        for n in range(4):
            arrows = semi.rows(m, n)
            assert ((arrows == 2).sum(axis=1) == m).all()
            assert len(arrows) == semi_count(m, n)


def test_semi_closed_under_composition():
    composites = ternary_compose_rows(semi.rows(2, 3), semi.rows(1, 2))
    assert composites.shape[:2] == (6, 4)
    assert ((composites == 2).sum(axis=2) == 1).all()


def test_fibres_of_dimension_preserving_maps_are_uniform():
    for m in range(4):
        for n in range(4):
            src, tgt = twisted_cube(m), twisted_cube(n)
            for f in twgraphdim.rows(m, n):
                k = image_face(vertex_dict(src, tgt, f)).count("*")
                assert set(Counter(f.tolist()).values()) == {2 ** (m - k)}
