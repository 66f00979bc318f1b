"""The verifiers themselves: reports, law checks, and mutant detection."""

import dataclasses
import json
from functools import partial

import pytest

from cubecats import oracle
from cubecats.cubes import standard_cube, twisted_cube
from cubecats.graphs import CapacityError, Graph
from cubecats.oracle import (
    _GRAPH_CATEGORY_IDS,
    CATEGORY_IDS,
    CheckReport,
    brute_hamiltonian,
    category_view,
    check_bchop_graphmeet_iso,
    check_category_laws,
    check_factorization,
    check_fibre_dimension,
    check_isomorphism,
    check_meet_equals_dim,
    check_rec_nonrec,
    check_ternary_iso,
    check_total_order,
    check_unique_hamiltonian,
    check_unique_surjection,
    hom_table,
)
from cubecats.standard import GraphMorphism, enumerate_graphdim
from cubecats.twisted import ternary_compose


def test_check_report_requires_counterexample_iff_failed():
    CheckReport("x", {}, True, None)
    CheckReport("x", {}, False, {"why": "because"})
    with pytest.raises(ValueError):
        CheckReport("x", {}, True, {"why": "spurious"})
    with pytest.raises(ValueError):
        CheckReport("x", {}, False, None)


def test_check_report_json_shape():
    rep = CheckReport("x", {"d": 1}, True, None, {"n": 2}, elapsed=0.5)
    with_time = json.loads(rep.to_json())
    without = json.loads(rep.to_json(include_elapsed=False))
    assert with_time["elapsed"] == 0.5
    assert "elapsed" not in without
    assert without == {
        "check": "x",
        "params": {"d": 1},
        "passed": True,
        "counterexample": None,
        "counts": {"n": 2},
    }


def test_all_categories_satisfy_laws_small():
    for cat_id in CATEGORY_IDS:
        rep = check_category_laws(category_view(cat_id), max_dim=2, max_assoc_dim=2)
        assert rep.passed, rep.counterexample
        assert rep.counts["identity_checks"] > 0
        assert rep.counts["associativity_checks"] > 0


def test_category_laws_capacity():
    with pytest.raises(CapacityError):
        check_category_laws(category_view("bch"), 2, 2, hom_cap=3)
    with pytest.raises(CapacityError):
        check_category_laws(category_view("bch"), 2, 2, triple_cap=10)


def test_broken_composition_fails_associativity():
    view = category_view("bch")
    broken = type(view)(
        name="broken",
        hom=view.hom,
        identity=view.identity,
        compose=lambda g, f: g,
    )
    rep = check_category_laws(broken, 1, 1)
    assert not rep.passed
    assert rep.counterexample["law"] in ("right identity", "left identity", "associativity")


def _raising(exc_type):
    def compose(g, f):
        raise exc_type("composition failed")

    return compose


def test_compose_type_error_is_a_counterexample():
    view = dataclasses.replace(category_view("bch"), compose=_raising(TypeError))
    rep = check_category_laws(view, 1, 1)
    assert rep.counterexample == {"law": "exception", "error": "TypeError: composition failed"}
    rep = check_isomorphism(view, view, lambda m, n, f: f, lambda m, n, f: f, max_dim=1)
    assert rep.counterexample == {"stage": "exception", "error": "TypeError: composition failed"}


def test_compose_memory_error_propagates():
    view = dataclasses.replace(category_view("bch"), compose=_raising(MemoryError))
    with pytest.raises(MemoryError):
        check_category_laws(view, 1, 1)
    with pytest.raises(MemoryError):
        check_isomorphism(view, view, lambda m, n, f: f, lambda m, n, f: f, max_dim=1)


@pytest.mark.parametrize("cat_id", _GRAPH_CATEGORY_IDS)
def test_gather_and_object_law_paths_agree(cat_id):
    view = category_view(cat_id)
    assert view.matrices is not None
    gathered = check_category_laws(view, 2).to_dict(include_elapsed=False)
    looped = check_category_laws(dataclasses.replace(view, matrices=None), 2)
    assert gathered == looped.to_dict(include_elapsed=False)
    assert gathered["passed"]


def test_gather_blocks_give_the_same_counts(monkeypatch):
    view = category_view("graphcube")
    whole = check_category_laws(view, 2).to_dict(include_elapsed=False)
    monkeypatch.setattr(oracle, "GATHER_BYTES", 1)  # one row of h per block
    assert check_category_laws(view, 2).to_dict(include_elapsed=False) == whole


def test_constant_identity_mutant_fails_both_law_paths():
    def constant(n):
        g = twisted_cube(n)
        return GraphMorphism.from_indices(g, g, (0,) * len(g.vertices))

    view = dataclasses.replace(category_view("twcubecat"), identity=constant)
    gathered = check_category_laws(view, 2).to_dict(include_elapsed=False)
    looped = check_category_laws(dataclasses.replace(view, matrices=None), 2)
    assert gathered == looped.to_dict(include_elapsed=False)
    assert gathered["counterexample"] == {"law": "left identity", "m": 0, "n": 1, "f": "GraphMorphism(>1)"}
    assert gathered["counts"] == {"identity_checks": 4, "associativity_checks": 0}


def test_identity_on_another_graph_is_not_gathered():
    view = dataclasses.replace(
        category_view("twcubecat"), identity=category_view("graphcube").identity
    )
    rep = check_category_laws(view, 2)
    assert rep.counterexample["law"] == "exception"


def test_graph_laws_and_tables_build_no_morphisms(monkeypatch):
    views = [category_view(cat_id) for cat_id in _GRAPH_CATEGORY_IDS]
    for view in views:  # fill the enumeration and identity caches
        check_category_laws(view, 2)

    def refuse(*args, **kwargs):
        raise RuntimeError("a GraphMorphism was built")

    monkeypatch.setattr(GraphMorphism, "__init__", refuse)
    monkeypatch.setattr(GraphMorphism, "from_indices", classmethod(refuse))
    for cat_id, view in zip(_GRAPH_CATEGORY_IDS, views):
        assert check_category_laws(view, 2).passed
        assert hom_table(cat_id, 2)[2][2] > 0


def test_isomorphism_check_detects_non_bijection():
    a = category_view("ternary")
    rep = check_isomorphism(
        a, a, lambda m, n, t: t, lambda m, n, t: a.identity(n), max_dim=1
    )
    assert not rep.passed
    assert rep.counterexample["stage"].startswith("round trip")


def test_brute_hamiltonian_counts():
    assert brute_hamiltonian(standard_cube(1)) == [["0", "1"]]
    assert brute_hamiltonian(standard_cube(2)) == []
    assert brute_hamiltonian(twisted_cube(2)) == [["01", "00", "10", "11"]]
    assert len(brute_hamiltonian(twisted_cube(3))) == 1


def test_brute_hamiltonian_capacity():
    big = Graph([format(k, "05b") for k in range(32)], [])
    with pytest.raises(CapacityError):
        brute_hamiltonian(big)


def test_positive_checks_pass_small():
    assert check_rec_nonrec(2).passed
    assert check_total_order(3).passed
    assert check_unique_hamiltonian(3).passed
    assert check_unique_surjection(2).passed
    assert check_factorization(2).passed
    assert check_fibre_dimension(2).passed
    assert check_meet_equals_dim(2).passed
    assert check_bchop_graphmeet_iso(2, 1).passed
    assert check_ternary_iso(2, 1, comp_samples=200).passed


def test_untwisted_builder_mutant_fails_total_order():
    rep = check_total_order(3, build=standard_cube)
    assert not rep.passed
    assert rep.counterexample == {"n": 2, "reason": "not total"}


def test_untwisted_builder_mutant_fails_hamiltonian():
    rep = check_unique_hamiltonian(3, build=standard_cube)
    assert not rep.passed
    assert rep.counterexample["count"] == 0


def test_untwisted_homs_mutant_fails_surjection():
    rep = check_unique_surjection(
        2, homs=lambda m, n: enumerate_graphdim(m, n, twisted=False)
    )
    assert not rep.passed


def test_relabelled_rec_builder_fails_rec_nonrec(monkeypatch):
    # Reversing every vertex's bits gives a graph isomorphic to T^n but,
    # from n = 2 on, not equal to it.
    def reversed_bits(n):
        g = twisted_cube(n)
        return Graph([v[::-1] for v in g.vertices], [(u[::-1], v[::-1]) for u, v in g.edges])

    monkeypatch.setattr("cubecats.cubes.twisted_cube_rec", reversed_bits)
    rep = check_rec_nonrec(3)
    assert not rep.passed
    assert rep.counterexample == {"kind": "twisted", "n": 2}


def test_untwisted_compose_mutant_fails_iso():
    rep = check_ternary_iso(2, 2, comp_samples=0, compose=partial(ternary_compose, twist=False))
    assert not rep.passed
    assert rep.counterexample["stage"] == "composition"


def test_hom_table_frozen_rows():
    assert hom_table("ternary", 2) == [[1, 2, 4], [1, 3, 8], [1, 3, 9]]
    assert hom_table("twgraphdim", 2) == [[1, 2, 4], [1, 3, 8], [1, 3, 9]]
    assert hom_table("bchop", 1) == [[1, 2], [1, 3]]
    assert hom_table("graphcube", 2)[2][2] == 24


def test_hom_tables_of_equivalent_categories_agree():
    assert hom_table("bchop", 3) == hom_table("graphmeet", 3) == hom_table("graphdim", 3)
    assert hom_table("ternary", 3) == hom_table("twgraphdim", 3)


def test_hom_table_capacity():
    with pytest.raises(CapacityError):
        hom_table("graphcube", 4)
    with pytest.raises(CapacityError):
        hom_table("bch", 7)
    for cat_id, limit in (("graphcube", 3), ("ternary", 6)):
        assert oracle.hom_dim_limit(cat_id) == limit
        assert len(hom_table(cat_id, limit)) == limit + 1
        with pytest.raises(CapacityError):
            hom_table(cat_id, limit + 1)


def test_unknown_category_id():
    with pytest.raises(ValueError):
        category_view("nope")
