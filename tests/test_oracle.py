"""The verifiers themselves: reports, law checks, and mutant detection."""

import ast
import collections
import dataclasses
import inspect
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cubecats
from cubecats import cli, cubes, graphs, kernels, oracle, rows, standard, twisted
from cubecats.cubes import standard_cube, twisted_cube
from cubecats.graphs import CapacityError, Graph
from cubecats.rows import HomRows, RowError, hom_table
from cubecats.oracle import (
    CATEGORY_IDS,
    CheckReport,
    acyclic_hamiltonian_paths,
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
)
from cubecats.standard import (
    bch_rows,
    bchop_to_graphmeet_rows,
    bound_constraints,
    dimension_constraints,
    enumerate_graph_homs,
    graphmeet_to_bchop_rows,
    hom_matrix,
)
from cubecats.twisted import semi_rows, ternary_compose_rows, ternary_rows
from predicates import (
    bch_count,
    has_cycle_reference,
    hamiltonian_paths_reference,
    semi_count,
    ternary_count,
)


def test_check_report_requires_counterexample_iff_failed():
    assert CheckReport("x", {}, None).passed
    assert not CheckReport("x", {}, {"why": "because"}).passed


def test_check_report_json_shape():
    rep = CheckReport("x", {"d": 1}, None, {"n": 2}, elapsed=0.5)
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

    It checks no closure and does not look the identities up, so it agrees
    with the table check exactly on views whose hom-sets are closed under
    compose and hold their identities.
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

    describe = cat.describe

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
        "f": {"m": 1, "n": 0, "map": ["b1"]},
        "g": {"m": 0, "n": 1, "map": []},
        "h": {"m": 1, "n": 0, "map": ["b0"]},
    }
    assert rep["counts"] == {"identity_checks": 76, "associativity_checks": 630}


def test_gather_blocks_give_the_same_counts(monkeypatch):
    checks = [
        lambda: check_category_laws(category_view("graphcube"), 2),
        lambda: check_category_laws(_shifted_bch_view(), 2),
        lambda: check_bchop_graphmeet_iso(3, 2),
        lambda: check_ternary_iso(3, 2, 20000),
    ]
    whole = [check().to_dict() for check in checks]
    monkeypatch.setattr(kernels, "GATHER_BYTES", 1)  # one row of h per block
    assert [check().to_dict() for check in checks] == whole


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
        "g": {"": "1"},
        "h": {"0": "00", "1": "01"},
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


def test_graphcube_laws_at_five_are_refused_before_five_to_four():
    # the hom dict is listed m-major: the kernel refuses C^4 -> C^5, so the
    # 66,489,720 rows of C^5 -> C^4 are never listed
    view = category_view("graphcube")
    calls = []

    def recorded(m, n):
        calls.append((m, n))
        return view.rows(m, n)

    with pytest.raises(CapacityError) as exc:
        check_category_laws(dataclasses.replace(view, rows=recorded), 5, 2)
    assert exc.value.check == "category_laws[graphcube]"
    assert calls[-1] == (4, 5)
    assert (5, 4) not in calls


def test_broken_composition_fails_associativity():
    # h∘g ignores g: every g is read as the first arrow of its hom-set
    view = category_view("bch")
    def ignoring_g(m, n, p, h, g):
        return view.compose_rows(m, n, p, h, g[:1]).repeat(len(g), axis=1)

    broken = dataclasses.replace(view, name="broken", compose_rows=ignoring_g)
    rep = check_category_laws(broken, 1, 1)
    assert not rep.passed
    assert rep.counterexample["law"] in ("right identity", "left identity", "associativity")


def _raising(exc_type, message="composition failed"):
    def callback(*args):
        raise exc_type(message)

    return callback


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


def test_first_failure_position_is_the_first_of_argwhere():
    rng = np.random.default_rng(0)
    for shape in [(0,), (0, 3), (5,), (4, 6), (3, 4, 5)]:
        for density in (0.0, 0.05, 0.5, 1.0):
            bad = rng.random(shape) < density
            found = np.argwhere(bad)
            expected = tuple(int(i) for i in found[0]) if len(found) else None
            assert oracle._first(bad) == expected, (shape, density)


def test_oracle_bug_propagates(monkeypatch):
    # only the view's own callbacks may turn an exception into a counterexample
    def broken(*args):
        raise IndexError("oracle bug")

    monkeypatch.setattr(oracle, "_first", broken)  # every law and round trip stage reaches it
    with pytest.raises(IndexError, match="oracle bug"):
        check_category_laws(category_view("bch"), 1, 1)
    view = category_view("ternary")
    with pytest.raises(IndexError, match="oracle bug"):
        check_isomorphism(view, view, _same, _same, max_dim=1)


# The routines that name one arrow, where the views bind them: every name
# of an arrow is a view's describe.  A passing run calls none of them, so
# it makes no object per morphism, only rows of hom-sets.
ARROW_NAMERS = ((rows, "bch_names"), (rows, "vertex_dict"), (rows, "ternary_seq"))


def _count_arrow_names(monkeypatch) -> collections.Counter:
    named = collections.Counter()

    def counted(name, original):
        def namer(*args, **kwargs):
            named[name] += 1
            return original(*args, **kwargs)

        return namer

    for module, name in ARROW_NAMERS:
        label = f"{module.__name__}.{name}"
        monkeypatch.setattr(module, name, counted(label, getattr(module, name)))
    return named


def _refuse_arrow_names(monkeypatch):
    def refuse(*args, **kwargs):
        raise RuntimeError("an arrow was named")

    for module, name in ARROW_NAMERS:
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("cat_id", ["graphcube", "twcubecat"])
def test_warm_hom_table_builds_no_morphisms(monkeypatch, cat_id):
    hom_table(cat_id, 3)
    _refuse_arrow_names(monkeypatch)
    assert hom_table(cat_id, 3)[3][3] == (686 if cat_id == "graphcube" else 111)


def test_passing_row_checks_build_no_morphisms(monkeypatch):
    _refuse_arrow_names(monkeypatch)
    for cat_id in ("graphcube", "twcubecat"):
        assert check_category_laws(category_view(cat_id), 3, 2).passed
    assert check_bchop_graphmeet_iso(3, 2).passed


def test_no_morphism_class_in_the_package():
    # an arrow is a row of its hom-set, and its view's describe names it
    package = Path(cubecats.__file__).parent
    classes = [
        f"{path.name}:{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef) and node.name.endswith("Morphism")
    ]
    assert classes == []


def _scopes_reading(tree: ast.AST, attr: str) -> list[str]:
    """The dotted class and function names around each read of .attr in tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr == attr:
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_compose_rows_is_called_in_composites_only():
    # the oracle reads a view two ways, loading a hom-set and composing a
    # block of pairs: every composite comes from _Rows.composites
    assert _scopes_reading(ast.parse("class A:\n def f(s): s.x.y\ns.x"), "x") == ["A.f", ""]
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    assert _scopes_reading(tree, "compose_rows") == ["_Rows.composites"]


def _index_calls(monkeypatch) -> list:
    """(hom-set, query shape) of each HomRows.index call made from now on."""
    calls, index = [], HomRows.index

    def spied(self, rows):
        calls.append((self.what, rows.shape))
        return index(self, rows)

    monkeypatch.setattr(HomRows, "index", spied)
    return calls


def test_laws_look_up_only_identity_arrows_and_closure_tables(monkeypatch):
    # the identity laws compare f∘id and id∘f with f's own row
    calls = _index_calls(monkeypatch)
    view = category_view("graphcube")
    assert check_category_laws(view, 2, 1).passed
    identities = [(f"graphcube rows({n}, {n})", (1, 2**n)) for n in range(3)]
    tables = [
        (f"graphcube rows({m}, {p})", (len(view.rows(n, p)), len(view.rows(m, n)), 2**m))
        for m, n, p in itertools.product(range(2), repeat=3)
    ]
    assert calls == identities + tables


def test_isomorphism_composition_looks_nothing_up_in_hom_b(monkeypatch):
    # hom_b is searched once per hom-set, for the forward images, and once per
    # object, for its identity arrow; composition compares forward(g)∘forward(f)
    # with the image row of g∘f
    calls = _index_calls(monkeypatch)
    assert check_bchop_graphmeet_iso(2, 2).passed
    graphmeet = category_view("graphmeet")
    assert [call for call in calls if call[0].startswith("graphmeet")] == [
        (f"graphmeet rows({m}, {n})", (len(graphmeet.rows(m, n)), 2**m))
        for m, n in itertools.product(range(3), repeat=2)
    ] + [(f"graphmeet rows({n}, {n})", (1, 2**n)) for n in range(3)]


def _spied_rows(monkeypatch) -> tuple[list, list]:
    """Spies on every _Rows made from now on: (composed, identities).

    composed gets (h loaded, g loaded, composite shape, composite dtype) per
    compose_rows call, where "loaded" means rows of the hom-set that _Rows
    loaded, in its dtype; identities gets one Counter per _Rows of the
    objects whose identity it asked for.
    """
    composed, identities = [], []
    init = oracle._Rows.__init__

    def spied(self, cat, objs):
        init(self, cat, objs)
        asked = collections.Counter()
        identities.append(asked)

        def loaded(rows, m, n):
            hom = self.homs[(m, n)]
            return rows.dtype == hom.rows.dtype and bool((hom.index(rows) >= 0).all())

        def compose_rows(m, n, p, h, g):
            out = np.asarray(cat.compose_rows(m, n, p, h, g))
            composed.append((loaded(h, n, p), loaded(g, m, n), out.shape, out.dtype))
            return out

        def identity(n):
            asked[n] += 1
            return cat.identity(n)

        self.cat = dataclasses.replace(cat, compose_rows=compose_rows, identity=identity)

    monkeypatch.setattr(oracle._Rows, "__init__", spied)
    return composed, identities


def test_composites_are_uint8_rows_of_loaded_hom_sets(monkeypatch):
    # every block the oracle composes is rows of a hom-set it loaded, in that
    # hom-set's dtype, identities included, and so is every composite; each
    # view's identity is asked for once per object
    composed, identities = _spied_rows(monkeypatch)
    for check in cli._suite_steps("all", 3):
        assert check().passed
    assert composed
    assert all(h and g for h, g, _, _ in composed)
    assert {dtype for _, _, _, dtype in composed} == {np.dtype(np.uint8)}
    asked = [counter for counter in identities if counter]
    assert len(asked) == len(CATEGORY_IDS) + 2 * 2  # the laws, and both sides of two isomorphisms
    assert all(counter == dict.fromkeys(range(4), 1) for counter in asked)


def test_largest_law_blocks_at_depth_4_are_uint8_hom_set_rows(monkeypatch):
    # id_4∘f and f∘id_4 for every f in graphcube(4, 4): the identity is the
    # hom-set's own uint8 row, so id_4∘f is 1.8 MiB, not the 14.7 MiB of an
    # int64 arange
    composed, _ = _spied_rows(monkeypatch)
    assert check_category_laws(category_view("graphcube"), 4, 2).passed
    size = {(shape, dtype.str): np.prod(shape) * dtype.itemsize for _, _, shape, dtype in composed}
    largest = sorted(block for block in size if size[block] == max(size.values()))
    assert largest == [((1, 120312, 16), "|u1"), ((120312, 1, 16), "|u1")]


def test_blocks_of_more_than_one_row_fit_gather_bytes(monkeypatch):
    # twgraphdim composites are 16 bytes a pair at depth 4, twice an index
    monkeypatch.setattr(kernels, "GATHER_BYTES", 1 << 12)
    composed, _ = _spied_rows(monkeypatch)
    assert check_ternary_iso(4, 4, 0).passed
    sizes = [np.prod(shape) * dtype.itemsize for _, _, shape, dtype in composed if shape[0] > 1]
    assert sizes and max(sizes) <= 1 << 12


def test_identity_that_is_no_arrow_fails_the_isomorphism_identity_stage():
    # the swap of T^1's two vertices reverses its one edge, so it is no arrow
    # of hom(1, 1), though the identity functor sends it to itself
    twcubecat = category_view("twcubecat")
    view = dataclasses.replace(
        twcubecat, identity=lambda n: np.array([1, 0]) if n == 1 else twcubecat.identity(n)
    )
    rep = check_isomorphism(view, view, _same, _same, max_dim=2)
    assert rep.counterexample == {"stage": "identity", "n": 1}
    assert rep.counts["identities"] == 1


def test_constant_identity_mutant_fails_both_law_paths():
    # The table check and the reference loop report the same failure.
    view = dataclasses.replace(
        category_view("twcubecat"), identity=lambda n: np.zeros(2**n, dtype=np.intp)
    )
    rep = check_category_laws(view, 2).to_dict()
    assert rep == _reference_laws(view, 2, 2)
    assert rep["counterexample"] == {"law": "left identity", "m": 0, "n": 1, "f": {"": "1"}}
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


def _without_identities(view):
    """view with the row of id_n taken out of hom(n, n) for every n >= 1."""

    def rows(m, n):
        found = view.rows(m, n)
        return found[(found != view.identity(n)).any(axis=1)] if m == n > 0 else found

    return dataclasses.replace(view, rows=rows)


@pytest.mark.parametrize("cat_id", CATEGORY_IDS)
def test_identity_outside_its_hom_set_fails_identity_arrow(cat_id):
    # composing with identity(n) cannot show that it is an arrow: for the
    # graph views arange is a unit of any rows, and semi(n, n) holds
    # nothing else, so semi without identities passed every other law
    view = _without_identities(category_view(cat_id))
    for max_dim, max_assoc_dim in ((2, 2), (3, 2)):
        rep = check_category_laws(view, max_dim, max_assoc_dim)
        assert rep.counterexample == {"law": "identity arrow", "n": 1}
        assert rep.counts == {"identity_checks": 0, "associativity_checks": 0}


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


def _meet_equals_dim_with(bound_tables):
    """check_meet_equals_dim(2) with standard._bound_tables set to bound_tables,
    on hom-sets listed anew."""
    hom_matrix.cache_clear()
    try:
        return _patched(standard, "_bound_tables", bound_tables, check_meet_equals_dim, 2)
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
    # graphmeet cut out by the meet tables alone keeps maps that lose a join
    rep = _meet_equals_dim_with(_meet_tables_only)
    vmap = {"00": "0", "01": "0", "10": "0", "11": "1"}
    assert rep.counterexample == {"m": 2, "n": 1, "vmap": vmap, "in_meet": True}
    assert rep.counts == {"hom_sets": 7, "morphisms": 20}
    assert check_meet_equals_dim(2).passed


def _meet_equals_dim_reversing(monkeypatch, cat_id):
    """check_meet_equals_dim(2) with the rows of view cat_id in reverse order."""

    def view(name):
        if name != cat_id:
            return category_view(name)
        return dataclasses.replace(
            category_view(name), rows=lambda m, n: category_view(name).rows(m, n)[::-1]
        )

    monkeypatch.setattr(oracle, "category_view", view)
    return check_meet_equals_dim(2)


@pytest.mark.parametrize("cat_id", ["graphmeet", "graphdim"])
def test_reversed_rows_are_an_error_in_meet_equals_dim(monkeypatch, cat_id):
    rep = _meet_equals_dim_reversing(monkeypatch, cat_id)
    error = f"{cat_id} rows(0, 1) gave rows that are not strictly increasing"
    assert rep.counterexample == {"error": error}
    # refused when the view's hom-sets are loaded, before any comparison
    assert rep.counts == {"hom_sets": 0, "morphisms": 0}


def _repeat_first(hom):
    return np.vstack([hom[:1], hom])


def _changed_at(view, at, change):
    """view with its rows(*at) passed through change."""
    return dataclasses.replace(
        view, rows=lambda m, n: change(view.rows(m, n)) if (m, n) == at else view.rows(m, n)
    )


def _unordered(tag, cat_id, m, n):
    """The counterexample {tag: "exception", ...} of rows(m, n) of cat_id out of order."""
    error = f"{cat_id} rows({m}, {n}) gave rows that are not strictly increasing"
    return {tag: "exception", "error": error}


@pytest.mark.parametrize(
    "changes, failed",
    [
        (
            {"graphcube": ((3, 2), _repeat_first)},
            {"category_laws[graphcube]": _unordered("law", "graphcube", 3, 2)},
        ),
        (
            {"twcubecat": ((2, 3), _repeat_first)},
            {"category_laws[twcubecat]": _unordered("law", "twcubecat", 2, 3)},
        ),
        (
            {"bch": ((3, 2), np.flipud), "bchop": ((2, 3), np.flipud)},
            {
                "isomorphism[bchop~graphmeet]": _unordered("stage", "bchop", 2, 3),
                "category_laws[bch]": _unordered("law", "bch", 3, 2),
                "category_laws[bchop]": _unordered("law", "bchop", 2, 3),
            },
        ),
    ],
    ids=["graphcube-repeat", "twcubecat-repeat", "bch-bchop-reversed"],
)
def test_unordered_hom_set_no_lookup_reaches_fails_check(capsys, monkeypatch, changes, failed):
    # no composite of these hom-sets is looked up at depth 3, so only the
    # order check when a hom-set is loaded can refuse them
    for cat_id, (at, change) in changes.items():
        monkeypatch.setitem(rows._VIEWS, cat_id, _changed_at(category_view(cat_id), at, change))
    assert cli.main(["check", "--suite", "all", "--max-dim", "3"]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {r["check"]: r["counterexample"] for r in reports if not r["passed"]} == failed


def test_out_of_range_row_is_an_error_in_meet_equals_dim(monkeypatch):
    # the row is on one side only, and naming it through the view fails:
    # C^1 has no vertex 3
    def view(name):
        if name != "graphdim":
            return category_view(name)
        rows = category_view(name).rows
        out_of_range = lambda m, n: np.vstack([rows(m, n), [[3] * 2**m]]) if n == 1 else rows(m, n)
        return dataclasses.replace(category_view(name), rows=out_of_range)

    monkeypatch.setattr(oracle, "category_view", view)
    rep = check_meet_equals_dim(2)
    assert rep.counterexample == {"error": "IndexError: tuple index out of range"}
    assert rep.counts == {"hom_sets": 1, "morphisms": 1}


def test_reversed_rows_error_names_the_view(monkeypatch):
    meet = _meet_equals_dim_reversing(monkeypatch, "graphmeet").counterexample
    dim = _meet_equals_dim_reversing(monkeypatch, "graphdim").counterexample
    assert meet != dim


def test_extra_dimension_row_fails_fibre_dimension(monkeypatch):
    # a dimension listing that holds the swap [1, 0] of T^1, which is not
    # edge-preserving, has a row that no map with equal fibres matches
    swapped = []

    def with_swap(src, tgt, constraints):
        listed = hom_matrix(src, tgt, constraints)
        if constraints is dimension_constraints and src.dimension == tgt.dimension == 1:
            swapped.append((src, tgt))
            return np.unique(np.vstack([listed, [[1, 0]]]), axis=0)
        return listed

    monkeypatch.setattr(rows, "hom_matrix", with_swap)
    rep = check_fibre_dimension(1)
    assert swapped  # the mutant reached the check
    assert rep.counterexample == {
        "m": 1, "n": 1, "vmap": {"0": "1", "1": "0"}, "equal_fibres": False,
        "dimension_preserving": True,
    }
    assert rep.counts == {"morphisms": 4}


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
        "stage": "round trip a->b->a", "m": 0, "n": 1, "f": {"m": 1, "n": 0, "map": ["b1"]}
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
        "stage": "forward image", "m": 2, "n": 2, "f": {"m": 2, "n": 2, "map": ["j1", "j0"]}
    }


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_isomorphisms_past_forward_image_make_every_round_trip_b_to_a_to_b(data):
    # The round trip b->a->b that check_isomorphism does not run, computed
    # here: per-row functors that pass hom size, round trip a->b->a and
    # forward image also invert each other on every row of hom_b.
    bch = category_view("bch")
    homs = {mn: bch.rows(*mn) for mn in itertools.product(range(3), repeat=2)}
    forward_at, backward_at = {}, {}
    for mn, rows in homs.items():
        indices = range(len(rows))
        forward_at[mn] = data.draw(st.permutations(indices))
        backward_at[mn] = np.argsort(forward_at[mn]).tolist()
        if data.draw(st.booleans()):  # some rows of backward go astray
            corrupted = st.dictionaries(st.sampled_from(indices), st.sampled_from(indices))
            backward_at[mn] = [*map(data.draw(corrupted).get, indices, backward_at[mn])]

    def row_map(at):
        def apply(m, n, rows):
            index = {row: i for i, row in enumerate(map(tuple, homs[m, n].tolist()))}
            return homs[m, n][[at[m, n][index[row]] for row in map(tuple, rows.tolist())]]

        return apply

    forward, backward = row_map(forward_at), row_map(backward_at)
    rep = check_isomorphism(bch, bch, forward, backward, max_dim=2)
    stage = (rep.counterexample or {}).get("stage")
    assert stage != "exception"
    if stage not in ("hom size", "round trip a->b->a", "forward image"):
        for (m, n), rows in homs.items():
            assert (forward(m, n, backward(m, n, rows)) == rows).all(), (m, n)
        assert rep.counts["round_trips"] == 2 * sum(map(len, homs.values())) == 76


def _untwisted_ternary():
    """The ternary view composing without the parity xor: plain substitution."""
    return dataclasses.replace(
        category_view("ternary"),
        compose_rows=lambda m, n, p, h, g: ternary_compose_rows(h, g, twist=False),
    )


def test_untwisted_compose_mutant_fails_sampled_composition():
    # pins the seeded draw sequence: comp_dim 0 leaves the samples to find it
    rep = check_ternary_iso(3, 0, 200, view=_untwisted_ternary())
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
    rows_mapped = collections.Counter()

    def counted(which):
        def functor(m, n, rows):
            rows_mapped[which] += len(rows)
            return rows

        return functor

    rep = check_isomorphism(
        view, view, counted("forward"), counted("backward"),
        max_dim=2, comp_dim=1, comp_samples=50,
    )
    assert rep.passed
    morphisms = sum(len(view.rows(m, n)) for m in range(3) for n in range(3))
    # forward on each arrow of a, backward on each image, and nothing more:
    # each identity is an arrow of hom_a, and every composite is too, so
    # their images are read from the forward images
    assert rows_mapped == {"forward": morphisms, "backward": morphisms}
    assert morphisms == 32


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


def test_isomorphism_composes_one_row_blocks(monkeypatch):
    monkeypatch.setattr(kernels, "GATHER_BYTES", 1)
    batches = collections.Counter()

    def counted(view):
        def compose_rows(m, n, p, h, g):
            batches[len(h)] += 1
            return view.compose_rows(m, n, p, h, g)

        return dataclasses.replace(view, compose_rows=compose_rows)

    bchop, graphmeet = category_view("bchop"), category_view("graphmeet")
    rep = check_isomorphism(
        counted(bchop), counted(graphmeet), bchop_to_graphmeet_rows, graphmeet_to_bchop_rows,
        max_dim=3, comp_dim=2,
    )
    assert rep.passed
    # each side composes every row of hom(m, n) alone, once per k
    rows = sum(len(bchop.rows(m, n)) for k, m, n in itertools.product(range(3), repeat=3))
    assert batches == {1: 2 * rows}


def test_composite_outside_hom_a_fails_composition():
    # Composites equal to the swap are replaced by [j0, j0], which is not in
    # hom_a(2, 2): that pair fails, whatever forward would make of [j0, j0].
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

    for restore in (True, False):
        rep, seen = check(restore)
        assert seen == []  # forward maps arrows of A only
        assert rep.counterexample == {
            "stage": "composition",
            "dims": [2, 2, 2],
            "f": {"m": 2, "n": 2, "map": ["j1", "j0"]},
            "g": {"m": 2, "n": 2, "map": ["j0", "j1"]},
        }
        assert rep.counts == {
            "round_trips": 76, "identities": 3, "composition_pairs": 430, "sampled_pairs": 0
        }


def test_composite_into_an_empty_hom_a_fails_composition():
    # bch with hom(0, 2) emptied: every g∘f of 0 -> 1 -> 2 is outside it, and
    # there is no image row of g∘f to compare with
    bch = category_view("bch")
    emptied = dataclasses.replace(
        bch, rows=lambda m, n: bch.rows(m, n)[:0] if (m, n) == (0, 2) else bch.rows(m, n)
    )
    f = {"m": 0, "n": 1, "map": []}
    for comp_dim, comp_samples, stage, g, pairs in (
        (2, 0, "composition", ["j0"], {"composition_pairs": 7, "sampled_pairs": 0}),
        (1, 50, "sampled composition", ["b1"], {"composition_pairs": 26, "sampled_pairs": 10}),
    ):
        rep = check_isomorphism(
            emptied, emptied, _same, _same, max_dim=2, comp_dim=comp_dim, comp_samples=comp_samples
        )
        assert rep.counterexample == {
            "stage": stage, "dims": [0, 1, 2], "f": f, "g": {"m": 1, "n": 2, "map": g}
        }
        assert rep.counts == {"round_trips": 74, "identities": 3, **pairs}


def test_isomorphism_comp_dim_within_max_dim():
    view = category_view("bch")
    with pytest.raises(ValueError):
        check_isomorphism(view, view, lambda m, n, f: f, lambda m, n, f: f, max_dim=1, comp_dim=2)


def test_factorize_memory_error_propagates(monkeypatch):
    injection = "ternary_to_graphdim_rows"
    monkeypatch.setattr(oracle, injection, _raising(MemoryError, "injection failed"))
    with pytest.raises(MemoryError):
        check_factorization(1)
    monkeypatch.setattr(oracle, injection, _raising(ValueError, "injection failed"))
    rep = check_factorization(1)
    assert rep.counterexample == {"error": "ValueError: injection failed"}
    assert rep.counts == {"factored": 0}


def test_surjection_rows_that_raise_are_an_error():
    view = dataclasses.replace(category_view("twgraphdim"), rows=_raising(TypeError, "rows failed"))
    rep = check_unique_surjection(2, view)
    assert rep.counterexample == {"error": "TypeError: rows failed"}
    assert rep.counts == {"surjective_found": 0}
    rep = check_category_laws(view, 2)
    assert rep.counterexample == {"law": "exception", "error": "TypeError: rows failed"}


def test_negative_vertex_is_an_error_not_a_surjection():
    # fibre counts would wrap the -1 onto the last vertex
    twgraphdim = category_view("twgraphdim")

    def minus_one_into_zero(m, n):
        rows = twgraphdim.rows(m, n)
        return rows.astype(np.intp) - 1 if n == 0 else rows

    view = dataclasses.replace(twgraphdim, rows=minus_one_into_zero)
    error = {"error": "twgraphdim rows(0, 0) gave the negative value -1"}
    assert check_unique_surjection(2, view).counterexample == error
    assert check_factorization(2, view).counterexample == error


def test_rows_that_are_not_vertex_maps_are_an_error():
    twgraphdim = category_view("twgraphdim")
    wide = dataclasses.replace(twgraphdim, rows=lambda m, n: np.zeros((1, 2**m + 1), dtype=int))
    beyond = dataclasses.replace(twgraphdim, rows=lambda m, n: np.full((1, 2**m), 2**n))
    for check in (check_unique_surjection, check_factorization):
        assert check(1, wide).counterexample == {
            "error": "twgraphdim rows(0, 0) gave shape (1, 2), expected (*, 1)"
        }
        assert check(1, beyond).counterexample == {
            "error": "twgraphdim rows(0, 0) gave the vertex 1, expected one below 1"
        }


def test_face_injection_without_flips_fails_factorization():
    rep = _patched(twisted, "_zero_parity", np.zeros_like, check_factorization, 2)
    assert rep.counterexample == {
        "m": 1, "n": 2, "f": {"0": "01", "1": "00"}, "reason": "no factorization"
    }


def test_passing_check_run_builds_no_morphism(monkeypatch):
    named = _count_arrow_names(monkeypatch)
    assert cli.main(["check", "--suite", "all", "--max-dim", "3"]) == 0
    assert named == {}


def test_surjection_and_factorization_at_dimension_five():
    rep = check_unique_surjection(5)
    assert rep.passed and rep.counts == {"surjective_found": 21}
    rep = check_factorization(5)
    assert rep.passed and rep.counts == {"factored": 1637}


def test_acyclic_hamiltonian_paths_counts():
    assert acyclic_hamiltonian_paths(standard_cube(1)) == [["0", "1"]]
    assert acyclic_hamiltonian_paths(standard_cube(2)) == []
    assert acyclic_hamiltonian_paths(twisted_cube(2)) == [["01", "00", "10", "11"]]
    assert len(acyclic_hamiltonian_paths(twisted_cube(3))) == 1


@pytest.mark.parametrize("build", [standard_cube, twisted_cube])
@pytest.mark.parametrize("n", range(5))
def test_acyclic_hamiltonian_paths_match_the_search_on_cubes(build, n):
    g = build(n)
    assert acyclic_hamiltonian_paths(g) == hamiltonian_paths_reference(g)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_acyclic_hamiltonian_paths_match_the_search_on_small_digraphs(data):
    names = [format(k, "03b") for k in range(8)]
    vertices = data.draw(st.lists(st.sampled_from(names), max_size=8, unique=True))
    edges = []
    if vertices:
        pair = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
        edges = data.draw(st.lists(pair, max_size=20))
    if data.draw(st.booleans()):
        # only edges that go forward in the drawn order, so no cycle, and
        # sometimes its chain, so a Hamiltonian path
        rank = {v: i for i, v in enumerate(vertices)}
        edges = [(u, v) for u, v in edges if rank[u] <= rank[v]]
        if data.draw(st.booleans()):
            edges += list(zip(vertices, vertices[1:]))
    g = Graph(vertices, edges)
    found = acyclic_hamiltonian_paths(g)
    if has_cycle_reference(g):
        assert found is None
    else:
        assert found == hamiltonian_paths_reference(g)


def _with_back_edge(n):
    """twisted_cube(n) with the reverse of its first edge that is not a loop: a cycle."""
    g = twisted_cube(n)
    u, v = next((u, v) for u, v in g.edge_list if u != v)
    return Graph(g.vertices, g.edges | {(v, u)})


def test_cyclic_build_fails_hamiltonian():
    rep = check_unique_hamiltonian(3, build=_with_back_edge)
    assert rep.counterexample == {"n": 1, "reason": "cyclic"}
    assert rep.counts == {"paths_searched": 0}


def test_unique_hamiltonian_at_dimension_eight():
    rep = check_unique_hamiltonian(8)
    assert rep.passed and rep.counts == {"paths_searched": 8}


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


def _untwisted_f(n, k):
    """hamiltonian_f without its twist: k's own bits, so the path leaves T^n at n = 2."""
    return format(k, f"0{n}b")


def test_path_outside_the_cube_is_a_counterexample_not_a_crash(monkeypatch, capsys):
    # its steps chain, but through vertices in binary order, not the cube's path
    monkeypatch.setattr(twisted, "hamiltonian_f", _untwisted_f)
    rep = check_unique_hamiltonian(3)
    assert not rep.passed
    assert rep.counterexample == {
        "n": 2, "found": ["01", "00", "10", "11"], "constructed": ["00", "01", "10", "11"]
    }
    assert cli.main(["check", "--suite", "twisted", "--max-dim", "3"]) == 1
    assert "FAIL unique_hamiltonian" in capsys.readouterr().err


def _raising_rows(cat_id, raising):
    return dataclasses.replace(category_view(cat_id), rows=raising)


# Each check run with one injectable parameter replaced by the callable
# `raising`, or by a view whose rows are `raising`.
INJECTED = {
    ("check_category_laws", "cat"): lambda raising: check_category_laws(
        _raising_rows("bch", raising), 1
    ),
    ("check_isomorphism", "cat_a"): lambda raising: check_isomorphism(
        _raising_rows("bch", raising), category_view("bch"), _same, _same, max_dim=1
    ),
    ("check_isomorphism", "cat_b"): lambda raising: check_isomorphism(
        category_view("bch"), _raising_rows("bch", raising), _same, _same, max_dim=1
    ),
    ("check_isomorphism", "forward"): lambda raising: check_isomorphism(
        category_view("bch"), category_view("bch"), raising, _same, max_dim=1
    ),
    ("check_isomorphism", "backward"): lambda raising: check_isomorphism(
        category_view("bch"), category_view("bch"), _same, raising, max_dim=1
    ),
    ("check_ternary_iso", "view"): lambda raising: check_ternary_iso(
        1, 1, 0, view=_raising_rows("ternary", raising)
    ),
    ("check_total_order", "build"): lambda raising: check_total_order(1, build=raising),
    ("check_unique_hamiltonian", "build"): lambda raising: check_unique_hamiltonian(
        1, build=raising
    ),
    ("check_unique_surjection", "view"): lambda raising: check_unique_surjection(
        1, _raising_rows("twgraphdim", raising)
    ),
    ("check_factorization", "view"): lambda raising: check_factorization(
        1, _raising_rows("twgraphdim", raising)
    ),
    ("check_fibre_dimension", "maps"): lambda raising: check_fibre_dimension(
        1, maps=_raising_rows("twcubecat", raising)
    ),
    ("check_fibre_dimension", "dims"): lambda raising: check_fibre_dimension(
        1, dims=_raising_rows("twgraphdim", raising)
    ),
}


def test_check_builds_no_view(monkeypatch, capsys):
    # every category is read through its registered view: a run builds none
    built = []
    init = rows.FiniteCategoryView.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.name)

    monkeypatch.setattr(rows.FiniteCategoryView, "__init__", spy)
    dataclasses.replace(category_view("bch"), name="spied")
    assert built == ["spied"]  # the spy sees a replaced view
    built.clear()
    assert cli.main(["check", "--suite", "all", "--max-dim", "3"]) == 0
    assert built == []


def _injectable_parameters():
    """(check, parameter) for each parameter of an oracle check that takes a
    callable or a FiniteCategoryView, read off the signatures."""
    return [
        (name, param.name)
        for name, fn in vars(oracle).items()
        if name.startswith("check_")
        for param in inspect.signature(fn).parameters.values()
        if str(param.annotation).startswith(("Callable", "FiniteCategoryView"))
    ]


def test_every_injectable_parameter_is_injected():
    assert sorted(_injectable_parameters()) == sorted(INJECTED)


@pytest.mark.parametrize("check, param", _injectable_parameters())
def test_injected_callable_that_raises_is_an_error(check, param):
    rep = INJECTED[(check, param)](_raising(ValueError, "injected"))
    assert not rep.passed
    assert rep.counterexample["error"] == "ValueError: injected"
    for exc_type in (MemoryError, CapacityError):
        with pytest.raises(exc_type, match="injected"):
            INJECTED[(check, param)](_raising(exc_type, "injected"))


# Each check run with a result of the code under check that is malformed
# rather than raised: (patch, check, the report's error).
MALFORMED = {
    "preorder not an array": (
        lambda patch: patch.setattr(oracle, "free_preorder", lambda g: [[True]]),
        check_total_order,
        "free_preorder(build(1)) gave bool of shape (1, 1), expected bool of shape (2, 2)",
    ),
    "preorder of integers": (
        lambda patch: patch.setattr(oracle, "free_preorder", lambda g: [[1]]),
        check_total_order,
        f"free_preorder(build(0)) gave {np.dtype(int)} of shape (1, 1),"
        " expected bool of shape (1, 1)",
    ),
    "ranks not integers": (
        lambda patch: patch.setattr(oracle, "order_g", lambda n, v: None),
        check_total_order,
        "order_g(0, v) over build(0) gave object of shape (1,), expected integers of shape (1,)",
    ),
    "build not a graph": (
        lambda patch: patch.setattr(check_unique_hamiltonian, "__defaults__", (4, lambda n: None)),
        check_unique_hamiltonian,
        "build(1) gave NoneType, expected a Graph",
    ),
    "path of no steps": (
        lambda patch: patch.setattr(oracle, "hamiltonian_path", lambda n: []),
        check_unique_hamiltonian,
        "hamiltonian_path(1) gave no 2^1 - 1 vertex pairs of build(1)",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_injected_callable_with_a_malformed_result_is_an_error(monkeypatch, capsys, case):
    patch, check, error = MALFORMED[case]
    patch(monkeypatch)
    rep = check(2)
    assert rep.counterexample == {"error": error}
    assert cli.main(["check", "--suite", "twisted", "--max-dim", "2"]) == 1
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["counterexample"] for r in reports if r["check"] == rep.name] == [{"error": error}]


def test_untwisted_homs_mutant_fails_surjection():
    rep = check_unique_surjection(2, view=category_view("graphdim"))
    assert not rep.passed


def _reversed_bits_twisted(n):
    # Reversing every vertex's bits gives a graph isomorphic to T^n but,
    # from n = 2 on, not equal to it.
    g = twisted_cube(n)
    return Graph([v[::-1] for v in g.vertices], [(u[::-1], v[::-1]) for u, v in g.edges])


def _reversed_bits_twisted_rec(n, twisted, rec=cubes.cube_rec):
    """cubes.cube_rec with every twisted cube relabelled by _reversed_bits_twisted."""
    return _reversed_bits_twisted(n) if twisted else rec(n, twisted)


def test_relabelled_rec_builder_fails_rec_nonrec(monkeypatch):
    monkeypatch.setattr(cubes, "cube_rec", _reversed_bits_twisted_rec)
    rep = check_rec_nonrec(3)
    assert not rep.passed
    assert rep.counterexample == {"kind": "twisted", "n": 2}


def test_untwisted_compose_mutant_fails_iso():
    rep = check_ternary_iso(2, 2, comp_samples=0, view=_untwisted_ternary())
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


@pytest.mark.parametrize(
    "rows, ordered",
    [
        ([[0, 1], [0, 256]], True),
        ([[255, 0], [256, 0], [256, 1]], True),
        ([[0, 256], [0, 1]], False),
        ([[0, 256], [0, 256]], False),
    ],
    ids=["increasing", "increasing-first-digit", "descending", "equal"],
)
def test_row_keys_check_order_with_two_byte_digits(rows, ordered):
    if ordered:
        hom = HomRows(np.array(rows), "rows")
        assert hom.index(hom.rows).tolist() == list(range(len(rows)))
    else:
        with pytest.raises(RowError, match="rows gave rows that are not strictly increasing"):
            HomRows(np.array(rows), "rows")


def test_row_keys_find_members_only_of_width_zero():
    # the one arrow of bch hom(0, n) and of ternary hom(m, 0) is an empty row
    empty = np.zeros((1, 0), dtype=np.uint8)
    query = np.zeros((2, 3, 0), dtype=np.intp)
    assert HomRows(empty, "rows").index(query).tolist() == [[0] * 3] * 2
    assert HomRows(empty[:0], "rows").index(empty).tolist() == [-1]
    with pytest.raises(RowError, match="not strictly increasing"):
        HomRows(np.repeat(empty, 2, axis=0), "rows").index(empty)


def test_view_hom_matches_the_enumerators():
    # a graph view's rows are the enumerator's, and hom names each row by its vertex map
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
            src, tgt = build(m), build(n)
            rows = enumerate_graph_homs(src, tgt, constraints)
            assert view.rows(m, n) is rows
            names = [dict(zip(src.vertices, (tgt.vertices[i] for i in row))) for row in rows]
            assert view.hom(m, n) == tuple(names)
    # bchop(m, n) names the bch arrow n -> m
    assert category_view("bchop").hom(1, 0) == ({"m": 0, "n": 1, "map": []},)
    maps = (["b0", "b0"], ["b0", "b1"], ["b1", "b0"], ["b1", "b1"])
    assert category_view("bch").hom(2, 0) == tuple({"m": 2, "n": 0, "map": a} for a in maps)
    assert category_view("semi").hom(1, 2) == ("0*", "1*", "*0", "*1")


def test_hom_table_frozen_rows():
    assert hom_table("ternary", 2) == [[1, 2, 4], [1, 3, 8], [1, 3, 9]]
    assert hom_table("twgraphdim", 2) == [[1, 2, 4], [1, 3, 8], [1, 3, 9]]
    assert hom_table("bchop", 1) == [[1, 2], [1, 3]]
    assert hom_table("graphcube", 2)[2][2] == 24


# each hom-set count from its notation's definition: bchop and the graph
# categories equivalent to it count as bch(n, m), and twgraphdim as ternary
_CLOSED_FORM_COUNTS = {
    "bch": bch_count,
    "bchop": lambda m, n: bch_count(n, m),
    "graphmeet": lambda m, n: bch_count(n, m),
    "graphdim": lambda m, n: bch_count(n, m),
    "ternary": ternary_count,
    "twgraphdim": ternary_count,
    "semi": semi_count,
}


@pytest.mark.parametrize("cat_id", list(_CLOSED_FORM_COUNTS))
def test_hom_table_matches_closed_form_counts(cat_id):
    # evidence that does not come from the hom enumeration kernel
    count = _CLOSED_FORM_COUNTS[cat_id]
    assert hom_table(cat_id, 5) == [[count(m, n) for n in range(6)] for m in range(6)]


def test_hom_tables_of_equivalent_categories_agree():
    assert hom_table("bchop", 3) == hom_table("graphmeet", 3) == hom_table("graphdim", 3)
    assert hom_table("ternary", 3) == hom_table("twgraphdim", 3)


def test_hom_table_capacity(monkeypatch):
    # the kernel's frontier alone bounds the ternary and semi rows: a
    # frontier of 2^12 bytes refuses 6 -> 6
    ternary_rows.cache_clear()
    semi_rows.cache_clear()
    monkeypatch.setattr(kernels, "MAX_FRONTIER", 2**12)
    with pytest.raises(CapacityError, match="frontier"):
        ternary_rows(6, 6)
    with pytest.raises(CapacityError, match="frontier"):
        hom_table("semi", 6)
    monkeypatch.undo()
    assert len(hom_table("ternary", 6)) == 7


def test_view_rows_are_read_only():
    for cat_id in CATEGORY_IDS:
        view = category_view(cat_id)
        for m, n in itertools.product(range(4), repeat=2):
            assert not view.rows(m, n).flags.writeable, (cat_id, m, n)


def test_unknown_category_id():
    with pytest.raises(ValueError):
        category_view("nope")


def _swap_j0_b0(m, n, rows):
    """Swaps the bch arrows j0 and b0 of hom(1, 1), and keeps every other row."""
    return _row_map((1, 1), {(0,): (1,), (1,): (0,)})(m, n, rows)


def _no_edges_into_top(n):
    """T^n without its non-loop edges into the last vertex: no cube from n = 1 on."""
    g = twisted_cube(n)
    return Graph(g.vertices, [(u, v) for u, v in g.edges if u == v or v != g.vertices[-1]])


def _fibre_views(build):
    """The maps and dimension maps of check_fibre_dimension, both graph views over build."""
    return (
        rows._graph_view("maps", build, None),
        rows._graph_view("dimension maps", build, dimension_constraints),
    )


def _reversed_path(n):
    """The constructed Hamiltonian path, walked backwards."""
    return [(t, s) for s, t in reversed(twisted.hamiltonian_path(n))]


def _reversed_bits_path(n):
    """The Hamiltonian path of _reversed_bits_twisted(n): the constructed one with
    every vertex reversed, so that from n = 2 on more than one step changes bit 0."""
    return [(s[::-1], t[::-1]) for s, t in twisted.hamiltonian_path(n)]


def _unchained_path(n):
    """The constructed Hamiltonian path with every target kept and each later source
    its first bit followed by its other bits flipped: from n = 2 on no step chains."""
    flipped = str.maketrans("01", "10")
    path = twisted.hamiltonian_path(n)
    return path[:1] + [(s[0] + s[1:].translate(flipped), t) for s, t in path[1:]]


def test_steps_that_do_not_chain_fail_hamiltonian(monkeypatch):
    # the mutant keeps the vertex order and the steps that change bit 0
    for n in range(1, 5):
        path, unchained = twisted.hamiltonian_path(n), _unchained_path(n)
        assert [t for _, t in unchained] == [t for _, t in path]
        assert [s[0] for s, _ in unchained] == [s[0] for s, _ in path]
    monkeypatch.setattr(oracle, "hamiltonian_path", _unchained_path)
    rep = check_unique_hamiltonian(4)
    assert rep.counterexample == {
        "error": "hamiltonian_path(2) gave steps 0 and 1 that do not chain"
    }


def _failing_sites():
    """(name, check) for each place a check can return a counterexample, each
    with a mutant that reaches it: every law, every isomorphism stage, and
    every branch of the theorem checks."""
    bch = category_view("bch")
    raising = dataclasses.replace(bch, compose_rows=_raising(TypeError))
    union = dataclasses.replace(category_view("graphcube"), rows=_origin_or_top_fixing)
    untwisted = _untwisted_ternary()
    reversed_bits = rows._graph_view("reversed", _reversed_bits_twisted, dimension_constraints)
    builder_failed = _raising(ValueError, "builder failed")
    f0, w, o = (1, 0), (0, 0), (1, 1)
    return [
        ("identity arrow", lambda: check_category_laws(
            _without_identities(category_view("semi")), 2
        )),
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
        ("identity", lambda: check_isomorphism(bch, bch, _swap_j0_b0, _swap_j0_b0, max_dim=2)),
        ("composition", lambda: check_ternary_iso(2, 2, 0, view=untwisted)),
        ("sampled composition", lambda: check_ternary_iso(3, 0, 200, view=untwisted)),
        ("stage exception", lambda: check_isomorphism(raising, raising, _same, _same, max_dim=1)),
        ("rec_nonrec", lambda: _patched(
            cubes, "cube_rec", _reversed_bits_twisted_rec, check_rec_nonrec, 3
        )),
        ("rec_nonrec error", lambda: _patched(
            cubes, "cube_rec", builder_failed, check_rec_nonrec, 3
        )),
        ("meet_equals_dim", lambda: _meet_equals_dim_with(_meet_tables_only)),
        ("meet_equals_dim error", lambda: _meet_equals_dim_with(
            _raising(ValueError, "bound tables failed")
        )),
        ("not total", lambda: check_total_order(3, build=standard_cube)),
        ("not an order isomorphism", lambda: _patched(
            oracle, "order_g", lambda n, v: -twisted.order_g(n, v), check_total_order, 3
        )),
        ("total_order error", lambda: check_total_order(3, build=builder_failed)),
        ("path count", lambda: check_unique_hamiltonian(3, build=standard_cube)),
        ("path found", lambda: _patched(
            oracle, "hamiltonian_path", _reversed_path, check_unique_hamiltonian, 3
        )),
        ("dimension zero steps", lambda: _patched(
            oracle, "hamiltonian_path", _reversed_bits_path, check_unique_hamiltonian, 3,
            build=_reversed_bits_twisted,
        )),
        ("unique_hamiltonian error", lambda: check_unique_hamiltonian(3, build=builder_failed)),
        ("path not in the cube", lambda: _patched(
            twisted, "hamiltonian_f", _untwisted_f, check_unique_hamiltonian, 3
        )),
        ("surjection count", lambda: check_unique_surjection(2, category_view("graphdim"))),
        ("surjection found", lambda: check_unique_surjection(2, reversed_bits)),
        ("surjection error", lambda: check_unique_surjection(2, dataclasses.replace(
            category_view("twgraphdim"), rows=_raising(TypeError, "rows failed")
        ))),
        ("no factorization", lambda: check_factorization(2, category_view("graphdim"))),
        ("factorization error", lambda: _patched(
            oracle, "ternary_to_graphdim_rows", _raising(ValueError, "injection failed"),
            check_factorization, 2,
        )),
        ("fibre_dimension", lambda: check_fibre_dimension(2, *_fibre_views(_no_edges_into_top))),
        ("fibre_dimension error", lambda: check_fibre_dimension(2, *_fibre_views(builder_failed))),
    ]


def test_failing_reports_match_golden(capsys, monkeypatch):
    # check prints each report as one JSON line; comparing bytes, not dicts,
    # also pins the order of the keys
    sites = _failing_sites()
    monkeypatch.setattr(cli, "_suite_steps", lambda suite, d: [check for _, check in sites])
    assert cli.main(["check"]) == 1
    out = capsys.readouterr().out
    assert len(out.splitlines()) == len(sites)
    assert all(not json.loads(line)["passed"] for line in out.splitlines())
    assert out.encode() == (Path(__file__).parent / "golden" / "failing_reports.txt").read_bytes()


def test_failing_reports_match_golden_in_one_row_blocks(capsys, monkeypatch):
    # no counterexample or count depends on where a block ends
    monkeypatch.setattr(kernels, "GATHER_BYTES", 1)
    test_failing_reports_match_golden(capsys, monkeypatch)
