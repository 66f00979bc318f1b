"""The verifiers themselves: reports, law checks, and mutant detection."""

import collections
import dataclasses
import itertools
import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from cubecats import cli, cubes, graphs, oracle, standard, twisted
from cubecats.cubes import standard_cube, twisted_cube
from cubecats.graphs import CapacityError, Graph
from cubecats.rows import HomRows, RowError
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
    GraphMorphism,
    bch_rows,
    bchop_to_graphmeet_rows,
    bound_constraints,
    dimension_constraints,
    enumerate_graph_homs,
    graphmeet_to_bchop_rows,
    hom_matrix,
)
from cubecats.twisted import ternary_compose_rows


def test_check_report_requires_counterexample_iff_failed():
    CheckReport("x", {}, True, None)
    CheckReport("x", {}, False, {"why": "because"})
    with pytest.raises(ValueError):
        CheckReport("x", {}, True, {"why": "spurious"})
    with pytest.raises(ValueError):
        CheckReport("x", {}, False, None)


def test_check_report_json_shape():
    rep = CheckReport("x", {"d": 1}, True, None, {"n": 2}, elapsed=0.5)
    assert json.loads(rep.to_json()) == {
        "check": "x",
        "params": {"d": 1},
        "passed": True,
        "counterexample": None,
        "counts": {"n": 2},
    }


def _reference_laws(cat, max_dim, max_assoc_dim):
    """check_category_laws without its index tables: every triple is composed
    twice, (h∘g)∘f and h∘(g∘f), and the two composite rows are compared.

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

    def describe(m, n, row):
        return cat.describe(cat.morphism(m, n, row))

    for m in range(max_dim + 1):
        for n in range(max_dim + 1):
            for f in cat.rows(m, n):
                for law, composite in (
                    ("right identity", cat.compose_rows(m, m, n, f[None], cat.identity(m)[None])),
                    ("left identity", cat.compose_rows(m, n, n, cat.identity(n)[None], f[None])),
                ):
                    if (composite[0, 0] != f).any():
                        return report({"law": law, "m": m, "n": n, "f": describe(m, n, f)})
                counts["identity_checks"] += 2
    dims = range(max_assoc_dim + 1)
    for k, m, n, p in itertools.product(dims, dims, dims, dims):
        hs, gs, fs = cat.rows(n, p), cat.rows(m, n), cat.rows(k, m)
        shape = (len(hs), len(gs), len(fs), -1)
        hg = cat.compose_rows(m, n, p, hs, gs)
        left = cat.compose_rows(k, m, p, hg.reshape(len(hs) * len(gs), hg.shape[2]), fs)
        gf = cat.compose_rows(k, m, n, gs, fs)
        right = cat.compose_rows(k, n, p, hs, gf.reshape(len(gs) * len(fs), gf.shape[2]))
        width = left.shape[2]
        bad = np.argwhere(
            (left.reshape(shape[:3] + (width,)) != right.reshape(shape[:3] + (width,))).any(axis=3)
        )
        if len(bad):
            ih, ig, jf = bad[0]
            counts["associativity_checks"] += int((ih * len(gs) + ig) * len(fs) + jf)
            return report(
                {
                    "law": "associativity",
                    "dims": [k, m, n, p],
                    "f": describe(k, m, fs[jf]),
                    "g": describe(m, n, gs[ig]),
                    "h": describe(n, p, hs[ih]),
                }
            )
        counts["associativity_checks"] += len(hs) * len(gs) * len(fs)
    return report(None)


def _shifted_bch_view():
    """bch with h∘g moved one row on in its hom-set when h and g are not
    identities and h is not an endomorphism: closed and unital, not associative."""
    bch = category_view("bch")

    def shifted(m, n, p, h, g):
        out = bch.compose_rows(m, n, p, h, g)
        if n == p:  # h is an endomorphism
            return out
        hom = bch_rows(m, p)
        position = {row: i for i, row in enumerate(map(tuple, hom.tolist()))}
        for j, g_row in enumerate(g.tolist()):
            if m == n and g_row == list(range(m)):  # g is an identity
                continue
            for i in range(len(h)):
                out[i, j] = hom[(position[tuple(out[i, j].tolist())] + 1) % len(hom)]
        return out

    return dataclasses.replace(bch, compose_rows=shifted)


def test_all_categories_satisfy_laws_small():
    for cat_id in CATEGORY_IDS:
        rep = check_category_laws(category_view(cat_id), max_dim=2, max_assoc_dim=2)
        assert rep.passed, rep.counterexample
        assert rep.counts["identity_checks"] > 0
        assert rep.counts["associativity_checks"] > 0


@pytest.mark.parametrize("cat_id", CATEGORY_IDS)
def test_gather_and_object_law_paths_agree(cat_id):
    # The table check gathers hom-set indices; the reference composes every triple.
    view = category_view(cat_id)
    rep = check_category_laws(view, 2)
    assert rep.to_dict() == _reference_laws(view, 2, 2)


def test_non_associative_mutant_matches_reference_loop():
    view = _shifted_bch_view()
    rep = check_category_laws(view, 2).to_dict()
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
    whole = [check_category_laws(view, 2).to_dict() for view in views]
    monkeypatch.setattr(oracle, "GATHER_BYTES", 1)  # one row of h per block
    assert [check_category_laws(view, 2).to_dict() for view in views] == whole


def _origin_or_top_fixing(m, n):
    # Origin-fixing maps and top-fixing maps are each closed under
    # composition; their union is not.
    rows = hom_matrix(standard_cube(m), standard_cube(n), None)
    return rows[(rows[:, 0] == 0) | (rows[:, -1] == 2**n - 1)]


def test_union_of_closed_families_fails_closure():
    view = dataclasses.replace(category_view("graphcube"), rows=_origin_or_top_fixing)
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
    composed = 0

    def counted(m, n, p, h, g):
        nonlocal composed
        composed += len(h) * len(g)
        return view.compose_rows(m, n, p, h, g)

    assert check_category_laws(dataclasses.replace(view, compose_rows=counted), 2, 1).passed
    morphisms = sum(len(view.rows(m, n)) for m in range(3) for n in range(3))
    pairs = sum(
        len(view.rows(n, p)) * len(view.rows(m, n))
        for m, n, p in itertools.product(range(2), range(2), range(2))
    )
    assert composed == 2 * morphisms + pairs


def test_category_laws_capacity(monkeypatch):
    monkeypatch.setattr(oracle, "DEFAULT_TRIPLE_CAP", 10)
    with pytest.raises(CapacityError):
        check_category_laws(category_view("bch"), 2, 2)


def test_broken_composition_fails_associativity():
    # h∘g ignores g: every g is read as the first arrow of its hom-set
    view = category_view("bch")
    def ignoring_g(m, n, p, h, g):
        return view.compose_rows(m, n, p, h, g[:1]).repeat(len(g), axis=1)

    broken = dataclasses.replace(view, name="broken", compose_rows=ignoring_g)
    rep = check_category_laws(broken, 1, 1)
    assert not rep.passed
    assert rep.counterexample["law"] in ("right identity", "left identity", "associativity")


def _raising(exc_type):
    def compose(*args):
        raise exc_type("composition failed")

    return compose


def _same(m, n, rows):
    return rows


def test_compose_type_error_is_a_counterexample():
    view = dataclasses.replace(category_view("bch"), compose_rows=_raising(TypeError))
    rep = check_category_laws(view, 1, 1)
    assert rep.counterexample == {"law": "exception", "error": "TypeError: composition failed"}
    rep = check_isomorphism(view, view, _same, _same, max_dim=1)
    assert rep.counterexample == {"stage": "exception", "error": "TypeError: composition failed"}


def test_compose_memory_error_propagates():
    view = dataclasses.replace(category_view("bch"), compose_rows=_raising(MemoryError))
    with pytest.raises(MemoryError):
        check_category_laws(view, 1, 1)
    with pytest.raises(MemoryError):
        check_isomorphism(view, view, _same, _same, max_dim=1)


def test_oracle_bug_propagates(monkeypatch):
    # only the view's own callbacks may turn an exception into a counterexample
    def broken(*args):
        raise IndexError("oracle bug")

    monkeypatch.setattr(oracle, "_associativity_failure", broken)
    with pytest.raises(IndexError, match="oracle bug"):
        check_category_laws(category_view("bch"), 1, 1)
    monkeypatch.setattr(oracle, "_first", broken)  # every round trip stage reaches it
    view = category_view("ternary")
    with pytest.raises(IndexError, match="oracle bug"):
        check_isomorphism(view, view, _same, _same, max_dim=1)


@pytest.mark.parametrize("cat_id", ["graphcube", "twcubecat"])
def test_warm_hom_table_builds_no_morphisms(monkeypatch, cat_id):
    hom_table(cat_id, 3)

    def refuse(*args, **kwargs):
        raise RuntimeError("a GraphMorphism was built")

    monkeypatch.setattr(GraphMorphism, "__init__", refuse)
    monkeypatch.setattr(GraphMorphism, "from_indices", classmethod(refuse))
    assert hom_table(cat_id, 3)[3][3] == (686 if cat_id == "graphcube" else 111)


def test_passing_row_checks_build_no_morphisms(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("a GraphMorphism was built")

    monkeypatch.setattr(GraphMorphism, "__init__", refuse)
    monkeypatch.setattr(GraphMorphism, "from_indices", classmethod(refuse))
    for cat_id in ("graphcube", "twcubecat"):
        assert check_category_laws(category_view(cat_id), 3, 2).passed
    assert check_bchop_graphmeet_iso(3, 2).passed


def test_constant_identity_mutant_fails_both_law_paths():
    # The table check and the reference loop report the same failure.
    view = dataclasses.replace(
        category_view("twcubecat"), identity=lambda n: np.zeros(2**n, dtype=np.intp)
    )
    rep = check_category_laws(view, 2).to_dict()
    assert rep == _reference_laws(view, 2, 2)
    assert rep["counterexample"] == {"law": "left identity", "m": 0, "n": 1, "f": "GraphMorphism(>1)"}
    assert rep["counts"] == {"identity_checks": 4, "associativity_checks": 0}


def test_identity_on_another_graph_is_not_gathered():
    graphcube = category_view("graphcube")
    view = dataclasses.replace(
        category_view("twcubecat"), identity=lambda n: graphcube.identity(n + 1)
    )
    rep = check_category_laws(view, 2)
    assert rep.counterexample == {
        "law": "exception", "error": "identity(0) gave shape (2,), expected (1,)"
    }


def test_misshapen_rows_are_an_exception_in_laws():
    bch = category_view("bch")
    view = dataclasses.replace(bch, compose_rows=lambda *args: bch.compose_rows(*args)[:, :1])
    rep = check_category_laws(view, 2)
    assert rep.counterexample == {
        "law": "exception",
        "error": "compose_rows(1, 0, 0) gave shape (1, 1, 1), expected (1, 2, 1)",
    }
    view = dataclasses.replace(bch, compose_rows=lambda *args: bch.compose_rows(*args) - 1.0)
    rep = check_category_laws(view, 2)
    assert rep.counterexample == {
        "law": "exception", "error": "compose_rows(1, 1, 0) gave float64 values, expected integers"
    }


def test_misshapen_rows_are_an_exception_in_isomorphism():
    bch = category_view("bch")

    def shifted_down(m, n, rows):
        return rows.astype(np.intp) - 1

    rep = check_isomorphism(bch, bch, shifted_down, _same, max_dim=2)
    assert rep.counterexample == {
        "stage": "exception", "error": "forward(1, 0) gave the negative value -1"
    }
    rep = check_isomorphism(bch, bch, _same, lambda m, n, rows: rows[:, :0], max_dim=2)
    assert rep.counterexample == {
        "stage": "exception", "error": "backward(1, 0) gave shape (2, 0), expected (2, 1)"
    }
    view = dataclasses.replace(bch, identity=lambda n: [[n]])
    rep = check_isomorphism(bch, view, _same, _same, max_dim=2)
    assert rep.counterexample == {
        "stage": "exception", "error": "identity(0) gave shape (1, 1), expected (0,)"
    }
    assert rep.counts == {
        "round_trips": 76, "identities": 0, "composition_pairs": 0, "sampled_pairs": 0
    }


def test_isomorphism_check_detects_non_bijection():
    a = category_view("ternary")
    rep = check_isomorphism(
        a, a, _same, lambda m, n, rows: np.full((len(rows), n), 2), max_dim=1
    )
    assert not rep.passed
    assert rep.counterexample["stage"].startswith("round trip")


def _patched(target, name, value, check, *args, **kwargs):
    """check(*args, **kwargs) with target.name set to value for the call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(target, name, value)
        return check(*args, **kwargs)


def _meet_tables_only(g):
    """graphs._bound_tables without the join tables."""
    return graphs._bound_tables(g)[:1]


def _meets_only_graphmeet():
    """graphmeet cut out by bound_constraints over the meet tables alone."""

    def meets_only(src, tgt):
        return _patched(standard, "_bound_tables", _meet_tables_only, bound_constraints, src, tgt)

    return dataclasses.replace(
        category_view("graphmeet"),
        rows=lambda m, n: hom_matrix(standard_cube(m), standard_cube(n), meets_only),
    )


def _meets_only_meet_equals_dim():
    # graphmeet cut out by the meet tables alone keeps maps that lose a join
    hom_matrix.cache_clear()
    try:
        return _patched(standard, "_bound_tables", _meet_tables_only, check_meet_equals_dim, 2)
    finally:
        hom_matrix.cache_clear()


def test_meets_only_graphmeet_mutant_fails_hom_size():
    rep = check_isomorphism(
        category_view("bchop"),
        _meets_only_graphmeet(),
        bchop_to_graphmeet_rows,
        graphmeet_to_bchop_rows,
        max_dim=2,
    )
    assert rep.counterexample == {"stage": "hom size", "m": 2, "n": 1, "a": 4, "b": 5}


def test_meets_only_bounds_fail_meet_equals_dim():
    rep = _meets_only_meet_equals_dim()
    assert rep.counterexample == {"m": 2, "n": 1, "vmap": [0, 0, 0, 1], "in_meet": True}
    assert rep.counts == {"hom_sets": 7, "morphisms": 20}
    assert check_meet_equals_dim(2).passed


def _drop_constants(m, n, rows):
    # every constant becomes b0: b1 is lost
    return bchop_to_graphmeet_rows(m, n, np.minimum(rows, m))


def test_constant_dropping_forward_mutant_fails_round_trip():
    rep = check_isomorphism(
        category_view("bchop"),
        category_view("graphmeet"),
        _drop_constants,
        graphmeet_to_bchop_rows,
        max_dim=2,
    )
    assert rep.counterexample == {
        "stage": "round trip a->b->a", "m": 0, "n": 1, "f": "BchMorphism(1->0, [b1])"
    }


def _row_map(at, table):
    """A row map that, in hom-set at, sends each row in table to its entry, and
    keeps every other row."""

    def apply(m, n, rows):
        if (m, n) != at:
            return rows
        out = [table.get(row, row) for row in map(tuple, rows.tolist())]
        return np.array(out, dtype=np.intp).reshape(rows.shape)

    return apply


def test_forward_outside_the_target_hom_set_fails_forward_image():
    # Both round trips hold, but f0 = [j1, j0] is sent to [j0, j0], which is
    # no bch arrow; backward sends f0 to [j1, j1], which forward sends back.
    f0, w, o = (1, 0), (0, 0), (1, 1)
    forward, backward = _row_map((2, 2), {f0: w, o: f0}), _row_map((2, 2), {f0: o, w: f0})
    bch = category_view("bch")
    rep = check_isomorphism(bch, bch, forward, backward, max_dim=2, comp_dim=1)
    assert rep.counterexample == {
        "stage": "forward image", "m": 2, "n": 2, "f": "BchMorphism(2->2, [j1, j0])"
    }


def test_untwisted_compose_mutant_fails_sampled_composition():
    # pins the seeded draw sequence: comp_dim 0 leaves the samples to find it
    rep = check_ternary_iso(3, 0, 200, compose=partial(ternary_compose_rows, twist=False))
    assert rep.counterexample == {
        "stage": "sampled composition", "dims": [0, 2, 3], "f": "11", "g": "0*1"
    }
    assert rep.counts == {
        "round_trips": 252, "identities": 4, "composition_pairs": 1, "sampled_pairs": 70
    }


def test_passing_samples_draw_nothing(monkeypatch):
    # every sample is answered from the tables, so no stream is drawn
    monkeypatch.setattr(oracle, "random", None)
    rep = check_ternary_iso(3, 2, 20000)
    assert rep.passed
    assert rep.counts["sampled_pairs"] == 20000


def test_samples_with_an_empty_hom_set_are_counted_from_the_stream():
    # semi has no arrow 2 -> 1, so some draws are skipped
    semi = category_view("semi")
    rep = check_isomorphism(semi, semi, _same, _same, max_dim=2, comp_dim=0, comp_samples=50)
    assert rep.passed
    sizes = {(m, n): len(semi.rows(m, n)) for m in range(3) for n in range(3)}
    drawn = len(list(oracle._sampled_pairs(sizes, 2, 50, 0)))
    assert rep.counts["sampled_pairs"] == drawn < 50


def test_isomorphism_runs_forward_once_per_morphism():
    view = category_view("ternary")
    rows_mapped = 0

    def counted(m, n, rows):
        nonlocal rows_mapped
        rows_mapped += len(rows)
        return rows

    rep = check_isomorphism(
        view, view, counted, _same, max_dim=2, comp_dim=1, comp_samples=50
    )
    assert rep.passed
    morphisms = sum(len(view.rows(m, n)) for m in range(3) for n in range(3))
    # both round trips and the three identities; every composite is in hom_a,
    # so its image is read from the round trip's images
    assert rows_mapped == 2 * morphisms + 3 == 67


def test_isomorphism_composes_each_distinct_pair_once():
    view = category_view("ternary")
    for comp_samples, dims in ((0, range(2)), (50, range(3))):
        blocks = collections.Counter()

        def counted(m, n, p, h, g):
            blocks[m, n, p] += 1
            return view.compose_rows(m, n, p, h, g)

        rep = check_isomorphism(
            dataclasses.replace(view, compose_rows=counted),
            view,
            _same,
            _same,
            max_dim=2,
            comp_dim=1,
            comp_samples=comp_samples,
        )
        assert rep.passed
        # one call per (k, m, n): the samples need every table up to max_dim
        assert blocks == collections.Counter(itertools.product(dims, repeat=3))
        assert rep.counts["composition_pairs"] == sum(
            len(view.rows(m, n)) * len(view.rows(k, m))
            for k, m, n in itertools.product(range(2), repeat=3)
        )
        assert rep.counts["sampled_pairs"] == comp_samples


def test_composite_outside_hom_a_goes_through_forward():
    # Composites equal to the swap are replaced by [j0, j0], which is not in hom_a(2, 2).
    swap, outside = [1, 0], [0, 0]
    bch = category_view("bch")

    def replacing(m, n, p, h, g):
        out = bch.compose_rows(m, n, p, h, g)
        if (m, p) == (2, 2):
            out[(out == swap).all(axis=2)] = outside
        return out

    a = dataclasses.replace(bch, compose_rows=replacing)

    def check(restore):
        seen = []

        def forward(m, n, rows):
            if (m, n) != (2, 2):
                return rows
            seen.extend(row for row in rows.tolist() if row == outside)
            if restore:
                rows = rows.copy()
                rows[(rows == outside).all(axis=1)] = swap
            return rows

        rep = check_isomorphism(a, bch, forward, _same, max_dim=2, comp_dim=2, comp_samples=50)
        return rep, seen

    rep, seen = check(restore=True)
    assert rep.passed
    assert seen == [outside] * 2
    assert rep.counts == {
        "round_trips": 76, "identities": 3, "composition_pairs": 623, "sampled_pairs": 50
    }
    rep, seen = check(restore=False)
    # both composites outside hom_a(2, 2) go through forward in one call
    assert seen == [outside] * 2
    assert rep.counterexample == {
        "stage": "composition",
        "dims": [2, 2, 2],
        "f": "BchMorphism(2->2, [j1, j0])",
        "g": "BchMorphism(2->2, [j0, j1])",
    }
    assert rep.counts == {
        "round_trips": 76, "identities": 3, "composition_pairs": 430, "sampled_pairs": 0
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
    rep = check_unique_surjection(2, homs=category_view("graphdim").hom)
    assert not rep.passed


def _reversed_bits_twisted(n):
    # Reversing every vertex's bits gives a graph isomorphic to T^n but,
    # from n = 2 on, not equal to it.
    g = twisted_cube(n)
    return Graph([v[::-1] for v in g.vertices], [(u[::-1], v[::-1]) for u, v in g.edges])


def test_relabelled_rec_builder_fails_rec_nonrec(monkeypatch):
    monkeypatch.setattr(cubes, "twisted_cube_rec", _reversed_bits_twisted)
    rep = check_rec_nonrec(3)
    assert not rep.passed
    assert rep.counterexample == {"kind": "twisted", "n": 2}


def test_untwisted_compose_mutant_fails_iso():
    untwisted = partial(ternary_compose_rows, twist=False)
    rep = check_ternary_iso(2, 2, comp_samples=0, compose=untwisted)
    assert not rep.passed
    assert rep.counterexample["stage"] == "composition"


@pytest.mark.parametrize("width, top", [(3, 4), (40, 4), (3, 1000)], ids=["3", "40", "3-wide"])
def test_row_keys_find_members_only(width, top):
    # digits below 4 key as one byte each, digits up to 999 as two
    rng = np.random.default_rng(0)
    rows = np.unique(rng.integers(0, top, size=(400, width)), axis=0)
    hom = HomRows(rows[::2], "rows")
    expected = np.where(np.arange(len(rows)) % 2 == 0, np.arange(len(rows)) // 2, -1)
    assert (hom.index(rows) == expected).all()
    assert (hom.index(rows[None] + top) == -1).all()  # digits beyond the hom-set's range
    # digits beyond the key's byte width, which would wrap onto members
    assert (hom.index(rows + (256 if top <= 256 else 2**16)) == -1).all()
    with pytest.raises(RowError, match="not strictly increasing"):
        HomRows(rows[::-1], "rows").index(rows)
    with pytest.raises(RowError, match="not strictly increasing"):
        HomRows(np.repeat(rows, 2, axis=0), "rows").index(rows)


def test_row_keys_find_members_only_of_width_zero():
    # the one arrow of bch hom(0, n) and of ternary hom(m, 0) is an empty row
    empty = np.zeros((1, 0), dtype=np.uint8)
    query = np.zeros((2, 3, 0), dtype=np.intp)
    assert HomRows(empty, "rows").index(query).tolist() == [[0] * 3] * 2
    assert HomRows(empty[:0], "rows").index(empty).tolist() == [-1]
    with pytest.raises(RowError, match="not strictly increasing"):
        HomRows(np.repeat(empty, 2, axis=0), "rows").index(empty)


def test_view_hom_matches_the_enumerators():
    graph_views = {
        "graphcube": (standard_cube, None),
        "graphmeet": (standard_cube, bound_constraints),
        "graphdim": (standard_cube, dimension_constraints),
        "twcubecat": (twisted_cube, None),
        "twgraphdim": (twisted_cube, dimension_constraints),
    }
    for cat_id, (build, constraints) in graph_views.items():
        view = category_view(cat_id)
        for m, n in itertools.product(range(3), repeat=2):
            assert view.hom(m, n) == enumerate_graph_homs(build(m), build(n), constraints)


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


def _swap_j0_b0(m, n, rows):
    """Swaps the bch arrows j0 and b0 of hom(1, 1), and keeps every other row."""
    return _row_map((1, 1), {(0,): (1,), (1,): (0,)})(m, n, rows)


def _sorted_on_one_one(m, n, rows):
    """Sorts a batch of rows of hom(1, 1) into row order: not a map of single rows."""
    return np.sort(rows, axis=0) if (m, n) == (1, 1) else rows


def _no_edges_into_top(n):
    """T^n without its non-loop edges into the last vertex: no cube from n = 1 on."""
    g = twisted_cube(n)
    return Graph(g.vertices, [(u, v) for u, v in g.edges if u == v or v != g.vertices[-1]])


def _reversed_path(n):
    """The constructed Hamiltonian path, walked backwards."""
    return [(t, s) for s, t in reversed(twisted.hamiltonian_path(n))]


def _sources_lost(n):
    """The constructed Hamiltonian path with every source after the first set to its target."""
    path = twisted.hamiltonian_path(n)
    return path[:1] + [(t, t) for _, t in path[1:]]


def _face_dimension_off_by_one(f):
    k, surj, inj = twisted.factorize(f)
    return k + 1, surj, inj


def _failing_sites():
    """(name, check) for each place a check can return a counterexample, each
    with a mutant that reaches it: every law, every isomorphism stage, and
    every branch of the theorem checks."""
    bch = category_view("bch")
    raising = dataclasses.replace(bch, compose_rows=_raising(TypeError))
    union = dataclasses.replace(category_view("graphcube"), rows=_origin_or_top_fixing)
    untwisted = partial(ternary_compose_rows, twist=False)
    f0, w, o = (1, 0), (0, 0), (1, 1)
    return [
        ("right identity", lambda: check_category_laws(dataclasses.replace(
            bch, compose_rows=lambda m, n, p, h, g: bch.compose_rows(m, n, p, h, g[..., ::-1])
        ), 2)),
        ("left identity", lambda: check_category_laws(dataclasses.replace(
            category_view("twcubecat"), identity=lambda n: np.zeros(2**n, dtype=np.intp)
        ), 2)),
        ("closure", lambda: check_category_laws(union, 2)),
        ("associativity", lambda: check_category_laws(_shifted_bch_view(), 2)),
        ("law exception", lambda: check_category_laws(raising, 1, 1)),
        ("hom size", lambda: check_isomorphism(
            category_view("bchop"), _meets_only_graphmeet(),
            bchop_to_graphmeet_rows, graphmeet_to_bchop_rows, max_dim=2,
        )),
        ("round trip a->b->a", lambda: check_isomorphism(
            category_view("bchop"), category_view("graphmeet"),
            _drop_constants, graphmeet_to_bchop_rows, max_dim=2,
        )),
        ("forward image", lambda: check_isomorphism(
            bch, bch, _row_map((2, 2), {f0: w, o: f0}), _row_map((2, 2), {f0: o, w: f0}),
            max_dim=2, comp_dim=1,
        )),
        ("round trip b->a->b", lambda: check_isomorphism(
            bch, bch, _swap_j0_b0, _sorted_on_one_one, max_dim=2
        )),
        ("identity", lambda: check_isomorphism(bch, bch, _swap_j0_b0, _swap_j0_b0, max_dim=2)),
        ("composition", lambda: check_ternary_iso(2, 2, 0, compose=untwisted)),
        ("sampled composition", lambda: check_ternary_iso(3, 0, 200, compose=untwisted)),
        ("stage exception", lambda: check_isomorphism(raising, raising, _same, _same, max_dim=1)),
        ("rec_nonrec", lambda: _patched(
            cubes, "twisted_cube_rec", _reversed_bits_twisted, check_rec_nonrec, 3
        )),
        ("meet_equals_dim", _meets_only_meet_equals_dim),
        ("not total", lambda: check_total_order(3, build=standard_cube)),
        ("not an order isomorphism", lambda: _patched(
            oracle, "order_g", lambda n, v: -twisted.order_g(n, v), check_total_order, 3
        )),
        ("path count", lambda: check_unique_hamiltonian(3, build=standard_cube)),
        ("path found", lambda: _patched(
            oracle, "hamiltonian_path", _reversed_path, check_unique_hamiltonian, 3
        )),
        ("dimension zero steps", lambda: _patched(
            oracle, "hamiltonian_path", _sources_lost, check_unique_hamiltonian, 3
        )),
        ("surjection count", lambda: check_unique_surjection(2, category_view("twcubecat").hom)),
        ("surjection found", lambda: check_unique_surjection(2, category_view("graphdim").hom)),
        ("factorization error", lambda: check_factorization(2, category_view("graphdim").hom)),
        ("wrong factors", lambda: _patched(
            oracle, "factorize", _face_dimension_off_by_one, check_factorization, 2
        )),
        ("fibre_dimension", lambda: check_fibre_dimension(2, build=_no_edges_into_top)),
    ]


def test_failing_reports_match_golden(capsys, monkeypatch):
    # check prints each report as one JSON line; comparing bytes, not dicts,
    # also pins the order of the keys
    sites = _failing_sites()
    monkeypatch.setattr(cli, "_suite_steps", lambda suite, d: sites)
    assert cli.main(["check"]) == 1
    out = capsys.readouterr().out
    assert len(out.splitlines()) == len(sites)
    assert all(not json.loads(line)["passed"] for line in out.splitlines())
    assert out.encode() == (Path(__file__).parent / "golden" / "failing_reports.txt").read_bytes()
