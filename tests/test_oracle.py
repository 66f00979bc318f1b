"""The verifiers themselves: reports, law checks, and mutant detection."""

import collections
import dataclasses
import itertools
import json
from functools import partial

import pytest

from cubecats import graphs, oracle, standard
from cubecats.cubes import standard_cube, twisted_cube
from cubecats.graphs import CapacityError, Graph
from cubecats.oracle import (
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
from cubecats.standard import (
    BchMorphism,
    GraphMorphism,
    bch_compose,
    bch_identity,
    bchop_to_graphmeet,
    bound_constraints,
    enumerate_bch,
    enumerate_graph_homs,
    enumerate_graphdim,
    graphmeet_to_bchop,
)
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


def _reference_laws(cat, max_dim, max_assoc_dim):
    """check_category_laws as a plain triple loop, composing every triple anew.

    It checks no closure, so it agrees with the table check exactly on
    views whose hom-sets are closed under compose.
    """
    name = f"category_laws[{cat.name}]"
    counts = {"identity_checks": 0, "associativity_checks": 0}

    def report(counterexample):
        return {
            "check": name,
            "params": {"max_dim": max_dim, "max_assoc_dim": max_assoc_dim},
            "passed": counterexample is None,
            "counterexample": counterexample,
            "counts": counts,
        }

    for m in range(max_dim + 1):
        for n in range(max_dim + 1):
            for f in cat.hom(m, n):
                for law, composite in (
                    ("right identity", cat.compose(f, cat.identity(m))),
                    ("left identity", cat.compose(cat.identity(n), f)),
                ):
                    if composite != f:
                        return report({"law": law, "m": m, "n": n, "f": cat.describe(f)})
                counts["identity_checks"] += 2
    dims = range(max_assoc_dim + 1)
    for k, m, n, p in itertools.product(dims, dims, dims, dims):
        for h in cat.hom(n, p):
            for g in cat.hom(m, n):
                for f in cat.hom(k, m):
                    if cat.compose(cat.compose(h, g), f) != cat.compose(h, cat.compose(g, f)):
                        return report(
                            {
                                "law": "associativity",
                                "dims": [k, m, n, p],
                                "f": cat.describe(f),
                                "g": cat.describe(g),
                                "h": cat.describe(h),
                            }
                        )
                    counts["associativity_checks"] += 1
    return report(None)


def _shifted_bch_view():
    """bch with h∘g moved one place on in its hom-set when h and g are not
    identities and h is not an endomorphism: closed and unital, not associative."""

    def shifted(h, g):
        r = bch_compose(h, g)
        if h == bch_identity(h.m) or g == bch_identity(g.m) or h.m == h.n:
            return r
        hom = enumerate_bch(r.m, r.n)
        return hom[(hom.index(r) + 1) % len(hom)]

    return dataclasses.replace(category_view("bch"), compose=shifted)


def test_all_categories_satisfy_laws_small():
    for cat_id in CATEGORY_IDS:
        rep = check_category_laws(category_view(cat_id), max_dim=2, max_assoc_dim=2)
        assert rep.passed, rep.counterexample
        assert rep.counts["identity_checks"] > 0
        assert rep.counts["associativity_checks"] > 0


@pytest.mark.parametrize("cat_id", CATEGORY_IDS)
def test_gather_and_object_law_paths_agree(cat_id):
    # The table check gathers hom-set indices; the reference composes objects.
    view = category_view(cat_id)
    rep = check_category_laws(view, 2)
    assert rep.to_dict(include_elapsed=False) == _reference_laws(view, 2, 2)


def test_non_associative_mutant_matches_reference_loop():
    view = _shifted_bch_view()
    rep = check_category_laws(view, 2).to_dict(include_elapsed=False)
    assert rep == _reference_laws(view, 2, 2)
    assert rep["counterexample"] == {
        "law": "associativity",
        "dims": [1, 0, 1, 0],
        "f": "BchMorphism(1->0, [b1])",
        "g": "BchMorphism(0->1, [])",
        "h": "BchMorphism(1->0, [b0])",
    }
    assert rep["counts"] == {"identity_checks": 76, "associativity_checks": 630}


def test_gather_blocks_give_the_same_counts(monkeypatch):
    views = [category_view("graphcube"), _shifted_bch_view()]
    whole = [check_category_laws(view, 2).to_dict(include_elapsed=False) for view in views]
    monkeypatch.setattr(oracle, "GATHER_BYTES", 1)  # one row of h per block
    assert [check_category_laws(view, 2).to_dict(include_elapsed=False) for view in views] == whole


def test_union_of_closed_families_fails_closure():
    # Origin-fixing maps and top-fixing maps are each closed under
    # composition; their union is not.
    def union(m, n):
        tgt = standard_cube(n)
        origin, top = tgt.index["0" * n], tgt.index["1" * n]
        homs = enumerate_graph_homs(standard_cube(m), tgt)
        return [f for f in homs if f.vmap[0] == origin or f.vmap[-1] == top]

    view = dataclasses.replace(category_view("graphcube"), hom=union)
    rep = check_category_laws(view, 2)
    assert rep.counterexample == {
        "law": "closure",
        "dims": [0, 1, 2],
        "g": "GraphMorphism(>1)",
        "h": "GraphMorphism(0>00, 1>01)",
    }
    assert rep.counts == {"identity_checks": 88, "associativity_checks": 0}


@pytest.mark.parametrize("cat_id", CATEGORY_IDS)
def test_laws_compose_each_pair_once(cat_id):
    view = category_view(cat_id)
    calls = 0

    def counted(g, f):
        nonlocal calls
        calls += 1
        return view.compose(g, f)

    assert check_category_laws(dataclasses.replace(view, compose=counted), 2, 1).passed
    morphisms = sum(len(view.hom(m, n)) for m in range(3) for n in range(3))
    pairs = sum(
        len(view.hom(n, p)) * len(view.hom(m, n))
        for m, n, p in itertools.product(range(2), range(2), range(2))
    )
    assert calls == 2 * morphisms + pairs


def test_category_laws_capacity(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_TRIPLE_CAP", 10)
    with pytest.raises(CapacityError):
        check_category_laws(category_view("bch"), 2, 2)


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


def test_oracle_bug_propagates(monkeypatch):
    # only the view's own callbacks may turn an exception into a counterexample
    def broken(*args):
        raise IndexError("oracle bug")

    monkeypatch.setattr(oracle, "_associativity_failure", broken)
    with pytest.raises(IndexError, match="oracle bug"):
        check_category_laws(category_view("bch"), 1, 1)
    monkeypatch.setattr(oracle, "random", None)
    view = category_view("ternary")
    with pytest.raises(AttributeError):
        check_isomorphism(
            view, view, lambda m, n, t: t, lambda m, n, t: t, max_dim=1, comp_samples=1
        )


@pytest.mark.parametrize("cat_id", ["graphcube", "twcubecat"])
def test_warm_hom_table_builds_no_morphisms(monkeypatch, cat_id):
    hom_table(cat_id, 3)

    def refuse(*args, **kwargs):
        raise RuntimeError("a GraphMorphism was built")

    monkeypatch.setattr(GraphMorphism, "__init__", refuse)
    monkeypatch.setattr(GraphMorphism, "from_indices", classmethod(refuse))
    assert hom_table(cat_id, 3)[3][3] == (686 if cat_id == "graphcube" else 111)


def test_constant_identity_mutant_fails_both_law_paths():
    # The table check and the reference loop report the same failure.
    def constant(n):
        g = twisted_cube(n)
        return GraphMorphism.from_indices(g, g, (0,) * len(g.vertices))

    view = dataclasses.replace(category_view("twcubecat"), identity=constant)
    rep = check_category_laws(view, 2).to_dict(include_elapsed=False)
    assert rep == _reference_laws(view, 2, 2)
    assert rep["counterexample"] == {"law": "left identity", "m": 0, "n": 1, "f": "GraphMorphism(>1)"}
    assert rep["counts"] == {"identity_checks": 4, "associativity_checks": 0}


def test_identity_on_another_graph_is_not_gathered():
    view = dataclasses.replace(
        category_view("twcubecat"), identity=category_view("graphcube").identity
    )
    rep = check_category_laws(view, 2)
    assert rep.counterexample["law"] == "exception"


def test_isomorphism_check_detects_non_bijection():
    a = category_view("ternary")
    rep = check_isomorphism(
        a, a, lambda m, n, t: t, lambda m, n, t: a.identity(n), max_dim=1
    )
    assert not rep.passed
    assert rep.counterexample["stage"].startswith("round trip")


def test_meets_only_graphmeet_mutant_fails_hom_size(monkeypatch):
    def meets_only(src, tgt):
        # bound_constraints over the meet tables alone: the join half is dropped
        with monkeypatch.context() as patch:
            patch.setattr(standard, "_bound_tables", lambda g: graphs._bound_tables(g)[:1])
            return bound_constraints(src, tgt)

    mutant = dataclasses.replace(
        category_view("graphmeet"),
        hom=lambda m, n: enumerate_graph_homs(standard_cube(m), standard_cube(n), meets_only),
    )
    rep = check_isomorphism(
        category_view("bchop"),
        mutant,
        lambda m, n, a: bchop_to_graphmeet(a),
        lambda m, n, g: graphmeet_to_bchop(g),
        max_dim=2,
    )
    assert rep.counterexample == {"stage": "hom size", "m": 2, "n": 1, "a": 4, "b": 5}


def test_constant_dropping_forward_mutant_fails_round_trip():
    def drop_constants(m, n, a):
        # every constant becomes b0: b1 is lost
        return bchop_to_graphmeet(BchMorphism(a.m, a.n, [min(e, a.n) for e in a.entries]))

    rep = check_isomorphism(
        category_view("bchop"),
        category_view("graphmeet"),
        drop_constants,
        lambda m, n, g: graphmeet_to_bchop(g),
        max_dim=2,
    )
    assert rep.counterexample == {
        "stage": "round trip a->b->a", "m": 0, "n": 1, "f": "BchMorphism(1->0, [b1])"
    }


def test_forward_outside_the_target_hom_set_fails_forward_image():
    # Both round trips hold, but f0 is sent to ("w", f0), which is no bch arrow.
    f0 = BchMorphism(2, 2, [1, 0])

    def forward(m, n, f):
        if f == f0:
            return ("w", f0)
        return f[1] if isinstance(f, tuple) and f[0] == "o" else f

    def backward(m, n, f):
        if f == f0:
            return ("o", f0)
        return f[1] if isinstance(f, tuple) and f[0] == "w" else f

    bch = category_view("bch")
    rep = check_isomorphism(bch, bch, forward, backward, max_dim=2, comp_dim=1)
    assert rep.counterexample == {
        "stage": "forward image", "m": 2, "n": 2, "f": "BchMorphism(2->2, [j1, j0])"
    }


def test_untwisted_compose_mutant_fails_sampled_composition():
    # pins the seeded draw sequence: comp_dim 0 leaves the samples to find it
    rep = check_ternary_iso(3, 0, 200, compose=partial(ternary_compose, twist=False))
    assert rep.counterexample == {
        "stage": "sampled composition", "dims": [0, 2, 3], "f": "11", "g": "0*1"
    }
    assert rep.counts == {
        "round_trips": 252, "identities": 4, "composition_pairs": 1, "sampled_pairs": 70
    }


def test_isomorphism_runs_forward_once_per_morphism():
    view = category_view("ternary")
    calls = 0

    def counted(m, n, t):
        nonlocal calls
        calls += 1
        return t

    rep = check_isomorphism(
        view, view, counted, lambda m, n, t: t, max_dim=2, comp_dim=1, comp_samples=50
    )
    assert rep.passed
    morphisms = sum(len(view.hom(m, n)) for m in range(3) for n in range(3))
    # both round trips and the three identities; every composite is in hom_a,
    # so its image is read from the round trip's images
    assert calls == 2 * morphisms + 3 == 67


def test_isomorphism_composes_each_distinct_pair_once():
    calls = collections.Counter()

    def counted(g, f):
        calls[g, f] += 1
        return ternary_compose(g, f)

    view = category_view("ternary")
    rep = check_isomorphism(
        dataclasses.replace(view, compose=counted),
        view,
        lambda m, n, t: t,
        lambda m, n, t: t,
        max_dim=2,
        comp_dim=1,
        comp_samples=50,
    )
    assert rep.passed
    sizes = {(m, n): len(view.hom(m, n)) for m in range(3) for n in range(3)}
    stream = list(oracle._composable_pairs(sizes, 2, 1, 50, 0))
    distinct = {(view.hom(m, n)[g], view.hom(k, m)[f]) for _, k, m, n, g, f in stream}
    assert len(distinct) < len(stream)  # the draws repeat some pairs
    assert calls == collections.Counter(distinct)
    # a repeated draw is still counted
    sampled = sum(stage == "sampled composition" for stage, *_ in stream)
    assert rep.counts["sampled_pairs"] == sampled == 50
    assert rep.counts["composition_pairs"] == len(stream) - sampled


def test_composite_outside_hom_a_goes_through_forward():
    # Composites equal to the swap are wrapped, so they are not in hom_a(2, 2).
    swap = BchMorphism(2, 2, [1, 0])

    def wrapping(g, f):
        gf = bch_compose(g, f)
        return ("w", gf) if gf == swap else gf

    bch = category_view("bch")
    a = dataclasses.replace(bch, compose=wrapping)

    def check(unwrap):
        wrapped = []

        def forward(m, n, f):
            if isinstance(f, tuple):
                wrapped.append(f)
                return f[1] if unwrap else f
            return f

        rep = check_isomorphism(
            a, bch, forward, lambda m, n, f: f, max_dim=2, comp_dim=2, comp_samples=50
        )
        return rep, wrapped

    rep, wrapped = check(unwrap=True)
    assert rep.passed
    assert wrapped == [("w", swap)] * 2
    assert rep.counts == {
        "round_trips": 76, "identities": 3, "composition_pairs": 623, "sampled_pairs": 50
    }
    rep, wrapped = check(unwrap=False)
    assert wrapped == [("w", swap)]
    assert rep.counterexample == {
        "stage": "composition",
        "dims": [2, 2, 2],
        "f": "BchMorphism(2->2, [j1, j0])",
        "g": "BchMorphism(2->2, [j0, j1])",
    }
    assert rep.counts == {
        "round_trips": 76, "identities": 3, "composition_pairs": 430, "sampled_pairs": 0
    }


def test_unhashable_composite_goes_through_forward():
    bch = category_view("bch")
    a = dataclasses.replace(bch, compose=lambda g, f: [bch_compose(g, f)])
    rep = check_isomorphism(
        a,
        bch,
        lambda m, n, f: f[0] if isinstance(f, list) else f,
        lambda m, n, f: f,
        max_dim=2,
        comp_dim=1,
        comp_samples=20,
    )
    assert rep.passed
    assert rep.counts == {
        "round_trips": 76, "identities": 3, "composition_pairs": 26, "sampled_pairs": 20
    }


def test_isomorphism_comp_dim_within_max_dim():
    view = category_view("bch")
    with pytest.raises(ValueError):
        check_isomorphism(view, view, lambda m, n, f: f, lambda m, n, f: f, max_dim=1, comp_dim=2)


def test_factorize_memory_error_propagates(monkeypatch):
    def raising(exc_type):
        def factorize(f):
            raise exc_type("factorize failed")

        return factorize

    monkeypatch.setattr(oracle, "factorize", raising(MemoryError))
    with pytest.raises(MemoryError):
        check_factorization(1)
    monkeypatch.setattr(oracle, "factorize", raising(ValueError))
    rep = check_factorization(1)
    assert rep.counterexample["error"] == "factorize failed"
    assert rep.counts == {"factored": 0}


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
    for cat_id in ("bch", "ternary", "semi"):
        with pytest.raises(CapacityError):
            hom_table(cat_id, 7)
    assert len(hom_table("ternary", 6)) == 7


def test_unknown_category_id():
    with pytest.raises(ValueError):
        category_view("nope")
