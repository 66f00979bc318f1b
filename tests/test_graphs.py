"""Graph container, preorder closure, bound tables, JSON round trip."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecats.graphs import (
    Graph,
    _bound_tables,
    free_preorder,
    graph_from_json,
    graph_to_json,
    is_total_order,
)
from cubecats.cubes import standard_cube, twisted_cube
from predicates import bits_to_int, bound_tables_reference, int_to_bits


def test_bit_conversions_round_trip():
    for n in range(6):
        for k in range(2**n):
            assert bits_to_int(int_to_bits(k, n)) == k
    assert int_to_bits(5, 4) == "0101"


def test_graph_sorts_vertices_and_freezes_edges():
    g = Graph(["10", "00", "01"], [("00", "01"), ("00", "10")])
    assert g.vertices == ("00", "01", "10")
    assert ("00", "01") in g.edges
    assert ("01", "00") not in g.edges
    assert g.dimension == 2


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph(["0", "00"], [])
    with pytest.raises(ValueError):
        Graph(["02"], [])
    with pytest.raises(ValueError):
        Graph(["0"], [("0", "1")])
    assert Graph(["0", "0"], []).vertices == ("0",)


def test_adjacency_matches_edges():
    g = standard_cube(2)
    adj = g.adjacency
    for i, u in enumerate(g.vertices):
        for j, v in enumerate(g.vertices):
            assert adj[i, j] == ((u, v) in g.edges)


def _brute_reachable(g: Graph) -> np.ndarray:
    # fixpoint of one-step expansion, independent of the Warshall pass
    reach = np.eye(len(g.vertices), dtype=bool) | g.adjacency
    while True:
        nxt = reach | (reach @ reach)
        if (nxt == reach).all():
            return reach
        reach = nxt


def _assert_bound_tables_match_reference(g: Graph) -> None:
    for table, reference in zip(_bound_tables(g), bound_tables_reference(g)):
        assert table.dtype == reference.dtype
        assert np.array_equal(table, reference)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.data())
def test_free_preorder_is_reflexive_transitive_closure(n, data):
    verts = [format(k, f"0{n}b") if n else "" for k in range(2**n)]
    pairs = [(u, v) for u in verts for v in verts]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True))
    g = Graph(verts, set(edges) | {(v, v) for v in verts})
    assert (free_preorder(g) == _brute_reachable(g)).all()
    # cyclic preorders included: vertices on one cycle share a down-set
    _assert_bound_tables_match_reference(g)


def test_free_preorder_total_on_twisted_square_only():
    assert is_total_order(free_preorder(twisted_cube(2)))
    assert not is_total_order(free_preorder(standard_cube(2)))


def test_twisted_square_order_chain():
    t2 = twisted_cube(2)
    leq = free_preorder(t2)
    i = t2.index
    assert leq[i["01"], i["00"]] and leq[i["00"], i["10"]] and leq[i["10"], i["11"]]
    assert not leq[i["00"], i["01"]]


def test_meet_join_on_standard_square():
    c2 = standard_cube(2)
    meet, join = _bound_tables(c2)
    i = c2.index
    assert meet[i["01"], i["10"]] == i["00"]
    assert join[i["01"], i["10"]] == i["11"]
    assert meet[i["00"], i["11"]] == i["00"]


def test_meet_on_twisted_square_follows_total_order():
    t2 = twisted_cube(2)
    meet, join = _bound_tables(t2)
    i = t2.index
    assert meet[i["01"], i["10"]] == i["01"]
    assert join[i["01"], i["10"]] == i["10"]


def test_meet_missing_when_no_lower_bound():
    g = Graph(["0", "1"], [("0", "0"), ("1", "1")])
    meet, join = _bound_tables(g)
    assert meet[0, 1] == join[0, 1] == -1


BOUND_GRAPHS = {
    **{f"{b.__name__}({n})": b(n) for b in (standard_cube, twisted_cube) for n in range(7)},
    # 0 <= 1 <= 0: both vertices are greatest lower bounds, so no bound is unique
    "two_cycle": Graph(["0", "1"], [("0", "1"), ("1", "0"), ("0", "0"), ("1", "1")]),
    # 00, 01 < 10, 11: 00 and 01 have no lower bound and two minimal upper
    # bounds, so neither a meet nor a join; dually for 10 and 11
    "crown": Graph(
        ["00", "01", "10", "11"],
        [(u, v) for u in ("00", "01") for v in ("10", "11")]
        + [(v, v) for v in ("00", "01", "10", "11")],
    ),
}


@pytest.mark.parametrize("name", BOUND_GRAPHS)
def test_bound_tables_match_pairwise_reference(name):
    _assert_bound_tables_match_reference(BOUND_GRAPHS[name])


def test_json_round_trip_exact():
    for g in (standard_cube(0), standard_cube(2), twisted_cube(3)):
        text = graph_to_json(g)
        assert graph_from_json(text) == g
        assert graph_to_json(graph_from_json(text)) == text


def test_json_rejects_wrong_dimension():
    payload = json.loads(graph_to_json(standard_cube(1)))
    payload["dimension"] = 2
    with pytest.raises(ValueError):
        graph_from_json(json.dumps(payload))
