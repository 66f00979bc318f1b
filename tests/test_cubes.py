"""Cube builders: recursion vs closed form, edge labels, DOT export."""

from itertools import product

import pytest

from cubecats.cubes import _double, cube_rec, standard_cube, to_dot, twisted_cube
from cubecats.twisted import order_g

from predicates import base_subgraph


def test_standard_square_edges():
    c2 = standard_cube(2)
    proper = {(u, v) for u, v in c2.edges if u != v}
    assert proper == {("00", "01"), ("00", "10"), ("01", "11"), ("10", "11")}
    assert all((v, v) in c2.edges for v in c2.vertices)


def test_twisted_square_edges():
    t2 = twisted_cube(2)
    proper = sorted((u, v) for u, v in t2.edges if u != v)
    assert proper == [("00", "10"), ("01", "00"), ("01", "11"), ("10", "11")]


def test_twisted_three_cube_edges():
    t3 = twisted_cube(3)
    proper = sorted((u, v) for u, v in t3.edges if u != v)
    assert proper == [
        ("000", "001"),
        ("000", "100"),
        ("001", "101"),
        ("010", "000"),
        ("010", "110"),
        ("011", "001"),
        ("011", "010"),
        ("011", "111"),
        ("100", "110"),
        ("101", "100"),
        ("101", "111"),
        ("110", "111"),
    ]


def test_zero_cube_is_single_looped_vertex():
    for g in (standard_cube(0), twisted_cube(0)):
        assert g.vertices == ("",)
        assert g.edges == frozenset({("", "")})


def test_iterations_match_builders():
    assert _double(standard_cube(2), False) == standard_cube(3)
    assert _double(twisted_cube(2), True) == twisted_cube(3)


def test_twisted_iteration_reverses_zero_copy():
    t2 = twisted_cube(2)
    t3 = _double(t2, True)
    for u, v in t2.edges:
        if u != v:
            assert ("0" + v, "0" + u) in t3.edges
            assert ("1" + u, "1" + v) in t3.edges


def test_rec_nonrec_isomorphic_small():
    for n in range(7):
        assert cube_rec(n, False) == standard_cube(n)
        assert cube_rec(n, True) == twisted_cube(n)


def _label_edge(i: int, residue: str, twisted: bool) -> tuple[str, str]:
    """The edge of label <i, residue>: bit b at position i of the source and
    1 - b at the target, b the parity of zeros before i in a twisted cube."""
    b = residue[:i].count("0") % 2 if twisted else 0
    return residue[:i] + str(b) + residue[i:], residue[:i] + str(1 - b) + residue[i:]


def test_edge_labels_standard():
    cube = standard_cube(2)
    assert _label_edge(0, "0", False) == ("00", "10") and ("00", "10") in cube.edges
    assert _label_edge(1, "1", False) == ("10", "11") and ("10", "11") in cube.edges
    assert ("01", "01") in cube.edges
    assert ("10", "00") not in cube.edges


def test_edge_labels_twisted_flip():
    cube = twisted_cube(2)
    # residue "0" has one zero before index 1, so source gets bit 1
    assert _label_edge(1, "0", True) == ("01", "00") and ("01", "00") in cube.edges
    assert ("00", "01") not in cube.edges
    assert _label_edge(1, "1", True) == ("10", "11") and ("10", "11") in cube.edges
    assert _label_edge(0, "0", True) == ("00", "10") and ("00", "10") in cube.edges


def test_every_label_is_an_edge():
    # the proper edges are exactly the edges of the labels <i, x>, and the
    # endpoints of the edge of <i, x> differ at i alone
    for n, twisted in product(range(5), (False, True)):
        cube = (twisted_cube if twisted else standard_cube)(n)
        labels = {
            _label_edge(i, format(x, f"0{n - 1}b") if n > 1 else "", twisted): i
            for i in range(n)
            for x in range(2 ** (n - 1))
        }
        assert {(u, v) for u, v in cube.edges if u != v} == set(labels)
        for (u, v), i in labels.items():
            assert [k for k in range(n) if u[k] != v[k]] == [i]


def test_label_count():
    # one loop per vertex plus n * 2^(n-1) proper edges
    for n in range(5):
        for cube in (standard_cube(n), twisted_cube(n)):
            assert len(cube.edges) == 2**n + n * 2 ** (n - 1)


def test_base_subgraph_vertices():
    b3 = base_subgraph(3)
    assert b3.vertices == ("000", "001", "010", "100")
    assert ("000", "100") in b3.edges
    assert ("001", "010") not in b3.edges


def test_to_dot_twisted_square_frozen():
    text = to_dot(twisted_cube(2), True)
    assert text == (
        "digraph T2 {\n"
        "  rankdir=LR;\n"
        '  "01";\n'
        '  "00";\n'
        '  "10";\n'
        '  "11";\n'
        '  "00" -> "10" [label="⟨0, 0⟩"];\n'
        '  "01" -> "11" [label="⟨0, 1⟩"];\n'
        '  "01" -> "00" [label="⟨1, 0⟩"];\n'
        '  "10" -> "11" [label="⟨1, 1⟩"];\n'
        "}\n"
    )


@pytest.mark.parametrize("n", range(5))
def test_to_dot_lists_twisted_cube_in_order_g_order(n):
    cube = twisted_cube(n)
    listed = [line[3:-2] for line in to_dot(cube, True).splitlines() if line.endswith('";')]
    assert listed == sorted(cube.vertices, key=lambda v: order_g(n, v))


def test_to_dot_hides_loops():
    text = to_dot(standard_cube(1), False)
    assert "->" in text and "loop" not in text
    assert text.count("->") == 1


def test_to_dot_zero_cube_labels_empty_residue():
    text = to_dot(standard_cube(0), False)
    assert '""' in text
    assert "->" not in text
    # the one edge of a 1-cube has the empty residue, shown as ε
    assert '  "0" -> "1" [label="⟨0, ε⟩"];\n' in to_dot(standard_cube(1), False)
