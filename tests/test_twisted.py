"""Twisted-cube structure: the path order, faces, and ternary composition."""

from itertools import product
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecats.cubes import twisted_cube
from cubecats.oracle import category_view
from cubecats.standard import GraphMorphism, compose_graph_morphisms, enumerate_graph_homs
from cubecats.twisted import (
    TernaryMorphism,
    graphdim_to_ternary,
    hamiltonian_f,
    hamiltonian_path,
    order_g,
    rev,
    semi_rows,
    ternary_compose,
    ternary_rows,
    ternary_seq,
    ternary_to_graphdim,
)

from predicates import (
    chain_graphdim_to_ternary,
    chain_ternary_to_graphdim,
    face_to_injection,
    image_face,
    ternary_compose_loop,
    ternary_rows_reference,
    unique_surjection,
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


def test_hamiltonian_path_steps_are_edges():
    for n in range(1, 5):
        t = twisted_cube(n)
        steps = hamiltonian_path(n)
        assert len(steps) == 2**n - 1
        assert all(t.has_edge(u, v) for u, v in steps)
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
    assert s.as_dict() == {"00": "0", "01": "0", "10": "1", "11": "1"}
    assert s in twgraphdim.hom(2, 1)
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
    assert face_to_injection("0*").as_dict() == {"0": "01", "1": "00"}
    assert face_to_injection("1*").as_dict() == {"0": "10", "1": "11"}


def test_face_injection_image_recovers_face():
    for n in range(4):
        for k in range(n + 1):
            for face in faces(n, k):
                inj = face_to_injection(face)
                assert len(set(inj.vmap)) == 2**k
                assert image_face(inj) == face


def test_ternary_validation_reports_position():
    with pytest.raises(ValueError, match="position 1"):
        TernaryMorphism(1, 2, "0x")
    with pytest.raises(ValueError):
        TernaryMorphism(0, 1, "*")
    with pytest.raises(ValueError):
        TernaryMorphism(1, 2, "0")


def test_ternary_compose_frozen_cases():
    def c(g, f):
        fm = TernaryMorphism(f.count("*"), len(f), f)
        gm = TernaryMorphism(len(f), len(g), g)
        return ternary_compose(gm, fm).seq

    assert c("0**", "1*") == "00*"
    assert c("**", "00") == "00"
    assert c("0**", "11") == "001"
    assert c("*0*", "11") == "100"
    assert c("0**", "00") == "010"


def test_untwisted_compose_skips_parity():
    f = TernaryMorphism(1, 2, "1*")
    g = TernaryMorphism(2, 3, "0**")
    assert ternary_compose(g, f, twist=False).seq == "01*"
    assert ternary_compose(g, f).seq == "00*"


def test_row_maps_match_the_face_chain():
    # every arrow, and for the inverse every twisted cube map, which both
    # refuse when it is not dimension-preserving
    for m in range(4):
        for n in range(4):
            for t in ternary.hom(m, n):
                assert ternary_to_graphdim(t) == chain_ternary_to_graphdim(t)
            for f in enumerate_graph_homs(twisted_cube(m), twisted_cube(n)):
                try:
                    expected = chain_graphdim_to_ternary(f)
                except ValueError:
                    with pytest.raises(ValueError, match="dimension-preserving"):
                        graphdim_to_ternary(f)
                else:
                    assert graphdim_to_ternary(f) == expected


def test_ternary_compose_matches_the_reference_loop():
    homs = {(m, n): ternary.hom(m, n) for m, n in product(range(4), repeat=2)}
    for k, m, n in product(range(4), repeat=3):
        for g in homs[(m, n)]:
            for f in homs[(k, m)]:
                for twist in (True, False):
                    assert ternary_compose(g, f, twist) == ternary_compose_loop(g, f, twist)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_ternary_identity_laws(m, n, data):
    t = data.draw(st.sampled_from(ternary.hom(m, n)))
    assert ternary_compose(t, TernaryMorphism(m, m, "*" * m)) == t
    assert ternary_compose(TernaryMorphism(n, n, "*" * n), t) == t


def test_ternary_to_graphdim_is_bijection_small():
    for m in range(4):
        for n in range(4):
            arrows = ternary.hom(m, n)
            graphs = twgraphdim.hom(m, n)
            assert len(arrows) == len(graphs)
            image = {ternary_to_graphdim(t) for t in arrows}
            assert image == set(graphs)
            for t in arrows:
                assert graphdim_to_ternary(ternary_to_graphdim(t)) == t


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


def test_ternary_functorial_exhaustive_dim_two():
    homs = {(m, n): ternary.hom(m, n) for m, n in product(range(3), repeat=2)}
    for k, m, n in product(range(3), repeat=3):
        for g in homs[(m, n)]:
            phi_g = ternary_to_graphdim(g)
            for f in homs[(k, m)]:
                lhs = ternary_to_graphdim(ternary_compose(g, f))
                rhs = compose_graph_morphisms(phi_g, ternary_to_graphdim(f))
                assert lhs == rhs


def test_identity_ternary_maps_to_identity_morphism():
    for n in range(4):
        identity = GraphMorphism.from_indices(twisted_cube(n), twisted_cube(n), range(2**n))
        assert ternary_to_graphdim(TernaryMorphism(n, n, "*" * n)) == identity


def test_semi_ternary_uses_every_input():
    for m in range(4):
        for n in range(4):
            arrows = semi.hom(m, n)
            assert all(t.stars == m for t in arrows)
            assert all(t.stars == t.m for t in arrows)
            assert len(arrows) == comb(n, m) * 2 ** (n - m) if m <= n else len(arrows) == 0


def test_semi_closed_under_composition():
    gs = semi.hom(2, 3)
    for f in semi.hom(1, 2):
        for g in gs:
            assert ternary_compose(g, f).stars == 1


def test_fibres_of_dimension_preserving_maps_are_uniform():
    for m in range(4):
        for n in range(4):
            for f in twgraphdim.hom(m, n):
                k = image_face(f).count("*")
                sizes = {}
                for v in f.source.vertices:
                    sizes[f(v)] = sizes.get(f(v), 0) + 1
                assert set(sizes.values()) == {2 ** (m - k)}
