"""Brute-force verifiers: category laws, isomorphisms, Hamiltonian search.

Every theorem the package implements structurally is re-checked here by
exhaustive computation over small dimensions.  Each check keeps its
loops in one first_failure() that returns the first counterexample in
canonical order, or None, and counts the work done as it goes; _run
times it and builds the CheckReport.  No check assumes the statement
it is checking.

The category laws and the isomorphisms work on morphisms as rows: each
hom-set is a sorted integer matrix, composition is one batched row
operation per triple of objects, and a composite is found in its
hom-set by a binary search of its row key.  Morphism objects are built
only to describe a counterexample.

Every call into the code under check, a view's callbacks and an
isomorphism's functors, goes through _call, so an exception there
becomes a RowError and an "exception" counterexample, while an
exception in the oracle's own code propagates.

The check functions take the pieces they verify as parameters where a
mutation test needs to swap them out (a cube builder, a hom enumerator,
a composition rule), so deliberately corrupted inputs demonstrate that
the checks can fail.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels
from .graphs import (
    CapacityError,
    Graph,
    free_preorder,
    is_total_order,
)
from .cubes import standard_cube, twisted_cube
from .rows import HomRows, RowError, checked_rows
from .standard import (
    BchMorphism,
    GraphMorphism,
    bch_compose_rows,
    bch_rows,
    bchop_to_graphmeet_rows,
    bound_constraints,
    compose_graph_rows,
    dimension_constraints,
    graphmeet_to_bchop_rows,
    hom_matrix,
)
from .twisted import (
    TernaryMorphism,
    face_to_injection,
    factorize,
    graphdim_to_ternary_rows,
    hamiltonian_path,
    image_face,
    order_g,
    semi_rows,
    ternary_compose_rows,
    ternary_rows,
    ternary_seq,
    ternary_to_graphdim_rows,
    unique_surjection,
)

DEFAULT_TRIPLE_CAP = 10**8
# Largest gathered block of associativity composites, in bytes.
GATHER_BYTES = 1 << 22


@dataclass
class CheckReport:
    """Outcome of one brute-force check."""

    name: str
    params: dict
    passed: bool
    counterexample: Optional[dict]
    counts: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def __post_init__(self) -> None:
        if self.passed == (self.counterexample is not None):
            raise ValueError("counterexample must be present exactly when the check fails")

    def to_dict(self, include_elapsed: bool = False) -> dict:
        """The report as check prints it, without elapsed, so that stdout is
        byte-stable.  The keyword stays because perfbench/oracle_child.py
        passes include_elapsed=False."""
        out = {
            "check": self.name,
            "params": self.params,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "counts": self.counts,
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(", ", ": "))


@dataclass(frozen=True)
class FiniteCategoryView:
    """Just enough of a category to brute-force its laws, with morphisms as rows.

    Objects are the natural numbers up to some bound.  rows(m, n) is
    hom(m, n) as a 2-D array of non-negative integers, one row per
    morphism, in strictly increasing lexicographic order; equal rows are
    equal morphisms.  identity(n) is the row of id_n.
    compose_rows(m, n, p, h, g) takes rows h of hom(n, p) and rows g of
    hom(m, n) and returns the (len(h), len(g), w) array of the rows of
    every h∘g.  morphism(m, n, row) is the morphism object of a row of
    hom(m, n), and describe names one in a counterexample.
    """

    name: str
    rows: Callable[[int, int], np.ndarray]
    identity: Callable[[int], np.ndarray]
    compose_rows: Callable[[int, int, int, np.ndarray, np.ndarray], np.ndarray]
    morphism: Callable[[int, int, np.ndarray], object]
    describe: Callable[[object], str] = repr

    def hom(self, m: int, n: int) -> tuple:
        """The morphism objects of hom(m, n), in row order."""
        return tuple(self.morphism(m, n, row) for row in self.rows(m, n))


def _run(
    name: str, params: dict, counts: dict, first_failure: Callable[[], Optional[dict]]
) -> CheckReport:
    """The report of a check whose first_failure() gives its first counterexample,
    or None when it passes, and fills counts as it goes."""
    t0 = time.perf_counter()
    counterexample = first_failure()
    return CheckReport(
        name, params, counterexample is None, counterexample, counts, time.perf_counter() - t0
    )


def _call(fn: Callable, *args):
    """fn(*args), a call into the code under check: any exception but
    CapacityError and MemoryError is raised as a RowError."""
    try:
        return fn(*args)
    except (CapacityError, MemoryError):
        raise
    except Exception as exc:
        raise RowError(f"{type(exc).__name__}: {exc}") from exc


class _Rows:
    """A view's hom-sets, identities and composition, checked as they come."""

    def __init__(self, cat: FiniteCategoryView, objs: range):
        self.cat = cat
        self.homs = {
            (m, n): HomRows(_call(cat.rows, m, n), f"rows({m}, {n})") for m in objs for n in objs
        }

    def identity(self, n: int) -> np.ndarray:
        identity = _call(self.cat.identity, n)
        return checked_rows(identity, (self.homs[(n, n)].width,), f"identity({n})")

    def compose(self, m: int, n: int, p: int, h: np.ndarray, g: np.ndarray) -> np.ndarray:
        shape = (len(h), len(g), self.homs[(m, p)].width)
        composites = _call(self.cat.compose_rows, m, n, p, h, g)
        return checked_rows(composites, shape, f"compose_rows({m}, {n}, {p})")

    def describe(self, m: int, n: int, row: np.ndarray) -> str:
        return _call(self.cat.describe, _call(self.cat.morphism, m, n, row))


def _first(bad: np.ndarray) -> Optional[tuple]:
    """Position of the first True of bad in row-major order, or None."""
    found = np.argwhere(bad)
    return tuple(int(i) for i in found[0]) if len(found) else None


def _associativity_failure(gf: np.ndarray, hg: np.ndarray, x_f: np.ndarray, h_y: np.ndarray):
    """(h, g, f) positions of the first triple with (h∘g)∘f != h∘(g∘f), or None.

    gf[g, f] and hg[h, g] index g∘f and h∘g in their hom-sets; x_f[x, f]
    indexes x∘f for x in the hom-set of h∘g, and h_y[h, y] indexes h∘y
    for y in the hom-set of g∘f.  Rows of h are compared in blocks of at
    most GATHER_BYTES bytes per gathered array.
    """
    step = max(1, GATHER_BYTES // max(1, gf.nbytes))
    for start in range(0, len(hg), step):
        stop = start + step
        ok = x_f[hg[start:stop]] == h_y[start:stop][:, gf]
        if not ok.all():
            ih, ig, jf = np.unravel_index(int(ok.argmin()), ok.shape)
            return start + int(ih), int(ig), int(jf)
    return None


def check_category_laws(
    cat: FiniteCategoryView, max_dim: int, max_assoc_dim: Optional[int] = None
) -> CheckReport:
    """Exhaustive identity laws up to max_dim; closure and associativity up to max_assoc_dim.

    Each hom-set is composed with the identities on both sides in two
    batched calls.  Then the rows of hom(n, p) and hom(m, n) are
    composed in one call per (m, n, p) with objects up to max_assoc_dim,
    and each composite is looked up in hom(m, p) by its row key.  A
    composite that is not there fails closure; the others fill a table
    of hom-set indices, on which associativity is checked.  An exception
    from a callback of the view, or a result of the wrong shape or with
    a negative value, is an "exception" counterexample.
    """
    if max_assoc_dim is None:
        max_assoc_dim = max_dim
    if max_assoc_dim > max_dim:
        raise ValueError("max_assoc_dim must not exceed max_dim")
    name = f"category_laws[{cat.name}]"
    counts = {"identity_checks": 0, "associativity_checks": 0}
    objs = range(max_dim + 1)

    def first_failure() -> Optional[dict]:
        try:
            view = _Rows(cat, objs)
            homs = view.homs
            for (m, n), hom in homs.items():
                f = hom.rows
                right = view.compose(m, m, n, f, view.identity(m)[None])[:, 0]
                left = view.compose(m, n, n, view.identity(n)[None], f)[0]
                bad_right = (right != f).any(axis=1)
                bad = _first(bad_right | (left != f).any(axis=1))
                if bad is not None:
                    (r,) = bad
                    counts["identity_checks"] += 2 * r
                    law = "right identity" if bad_right[r] else "left identity"
                    return {"law": law, "m": m, "n": n, "f": view.describe(m, n, f[r])}
                counts["identity_checks"] += 2 * len(f)
            aobjs = range(max_assoc_dim + 1)
            triples = sum(
                len(homs[(n, p)]) * len(homs[(m, n)]) * len(homs[(k, m)])
                for k, m, n, p in product(aobjs, repeat=4)
            )
            if triples > DEFAULT_TRIPLE_CAP:
                raise CapacityError(
                    f"{name}: {triples} associativity triples exceed {DEFAULT_TRIPLE_CAP}"
                )
            tables = {}  # tables[m, n, p][h, g]: index of h∘g in hom(m, p)
            for m, n, p in product(aobjs, repeat=3):
                hs, gs = homs[(n, p)].rows, homs[(m, n)].rows
                table = homs[(m, p)].index(view.compose(m, n, p, hs, gs))
                bad = _first(table < 0)
                if bad is not None:
                    ih, ig = bad
                    return {
                        "law": "closure",
                        "dims": [m, n, p],
                        "g": view.describe(m, n, gs[ig]),
                        "h": view.describe(n, p, hs[ih]),
                    }
                tables[(m, n, p)] = table
            for k, m, n, p in product(aobjs, repeat=4):
                fs, gs, hs = homs[(k, m)].rows, homs[(m, n)].rows, homs[(n, p)].rows
                bad = _associativity_failure(
                    tables[(k, m, n)],
                    tables[(m, n, p)],
                    tables[(k, m, p)],
                    tables[(k, n, p)],
                )
                if bad is not None:
                    ih, ig, jf = bad
                    counts["associativity_checks"] += (ih * len(gs) + ig) * len(fs) + jf
                    return {
                        "law": "associativity",
                        "dims": [k, m, n, p],
                        "f": view.describe(k, m, fs[jf]),
                        "g": view.describe(m, n, gs[ig]),
                        "h": view.describe(n, p, hs[ih]),
                    }
                counts["associativity_checks"] += len(hs) * len(gs) * len(fs)
        except RowError as exc:  # a broken composition rule may not even type-check
            return {"law": "exception", "error": str(exc)}
        return None

    return _run(name, {"max_dim": max_dim, "max_assoc_dim": max_assoc_dim}, counts, first_failure)


def _sampled_pairs(sizes: dict, max_dim: int, comp_samples: int, seed: int):
    """(k, m, n, g, f), g indexing hom(m, n) and f hom(k, m); sizes[m, n] is |hom(m, n)|.

    comp_samples seeded draws with objects up to max_dim; a draw with an
    empty hom-set is skipped.  Draws may repeat a pair.  The stream
    depends only on its arguments: k, m, n, g and f are drawn in that
    order by one Random(seed).randrange.
    """
    randrange = random.Random(seed).randrange
    objs = max_dim + 1
    for _ in range(comp_samples):
        k, m, n = randrange(objs), randrange(objs), randrange(objs)
        g_size, f_size = sizes[(m, n)], sizes[(k, m)]
        if g_size and f_size:
            yield k, m, n, randrange(g_size), randrange(f_size)


def check_isomorphism(
    cat_a: FiniteCategoryView,
    cat_b: FiniteCategoryView,
    forward: Callable[[int, int, np.ndarray], np.ndarray],
    backward: Callable[[int, int, np.ndarray], np.ndarray],
    max_dim: int,
    comp_dim: Optional[int] = None,
    comp_samples: int = 0,
    seed: int = 0,
) -> CheckReport:
    """Functorial isomorphism check: round trips, images, identities, composition.

    forward(m, n, rows) maps rows of hom_a(m, n) to rows of hom_b(m, n),
    one row each, and backward the other way.  Round trips, forward
    images and identity preservation run on every hom-set up to max_dim;
    the forward images give phi[m, n], the index in hom_b(m, n) of the
    image of each row of hom_a(m, n).  Composition preservation runs on
    all composable pairs with objects up to comp_dim (default max_dim),
    then on comp_samples seeded random pairs with objects up to max_dim.
    For each (k, m, n) it is one comparison of index tables:
    phi[k, n][T_a] == T_b[phi[m, n], phi[k, m]], where T_a and T_b index
    the composites of each pair in hom_a(k, n) and hom_b(k, n).  A
    composite outside hom_a(k, n) goes through forward; one outside
    hom_b(k, n) matches nothing.

    When comp_samples > 0 the tables cover every (k, m, n) up to
    max_dim, so a sample can fail only if a pair in them fails.  The
    seeded stream is drawn only when one does, to find and count the
    first failing draw, or when a hom-set is empty, to count the draws
    that are not skipped; otherwise every draw would pass, sampled_pairs
    is comp_samples and nothing is drawn.  An exception from
    forward, backward or a callback of either view, or a result of the
    wrong shape or with a negative value, is an "exception"
    counterexample.
    """
    if comp_dim is None:
        comp_dim = max_dim
    if comp_dim > max_dim:
        raise ValueError("comp_dim must not exceed max_dim")
    counts = {"round_trips": 0, "identities": 0, "composition_pairs": 0, "sampled_pairs": 0}

    def mapped(which: str, m: int, n: int, rows: np.ndarray, to: HomRows) -> np.ndarray:
        image = _call(forward if which == "forward" else backward, m, n, rows)
        return checked_rows(image, (len(rows), to.width), f"{which}({m}, {n})")

    objs = range(max_dim + 1)

    def first_failure() -> Optional[dict]:
        try:
            a, b = _Rows(cat_a, objs), _Rows(cat_b, objs)
            phi = {}
            for m, n in product(objs, repeat=2):
                ha, hb = a.homs[(m, n)], b.homs[(m, n)]
                if len(ha) != len(hb):
                    return {"stage": "hom size", "m": m, "n": n, "a": len(ha), "b": len(hb)}
                image = mapped("forward", m, n, ha.rows, hb)
                bad_trip = (mapped("backward", m, n, image, ha) != ha.rows).any(axis=1)
                phi[(m, n)] = hb.index(image)
                bad = _first(bad_trip | (phi[(m, n)] < 0))
                if bad is not None:
                    (r,) = bad
                    stage = "round trip a->b->a" if bad_trip[r] else "forward image"
                    counts["round_trips"] += r + (not bad_trip[r])
                    return {"stage": stage, "m": m, "n": n, "f": a.describe(m, n, ha.rows[r])}
                counts["round_trips"] += len(ha)
                again = mapped("forward", m, n, mapped("backward", m, n, hb.rows, ha), hb)
                bad = _first((again != hb.rows).any(axis=1))
                if bad is not None:
                    (r,) = bad
                    counts["round_trips"] += r
                    g = b.describe(m, n, hb.rows[r])
                    return {"stage": "round trip b->a->b", "m": m, "n": n, "g": g}
                counts["round_trips"] += len(hb)
            for n in objs:
                image = mapped("forward", n, n, a.identity(n)[None], b.homs[(n, n)])
                if (image[0] != b.identity(n)).any():
                    return {"stage": "identity", "n": n}
                counts["identities"] += 1

            def agree(k: int, m: int, n: int) -> np.ndarray:
                """agree[g, f]: forward(g∘f) == forward(g)∘forward(f), for g in hom_a(m, n)
                and f in hom_a(k, m)."""
                ha_kn, hb_kn = a.homs[(k, n)], b.homs[(k, n)]
                composites = a.compose(k, m, n, a.homs[(m, n)].rows, a.homs[(k, m)].rows)
                t_a = ha_kn.index(composites)
                lhs = np.append(phi[(k, n)], -1)[t_a]
                outside = t_a < 0
                if outside.any():
                    lhs[outside] = hb_kn.index(mapped("forward", k, n, composites[outside], hb_kn))
                t_b = hb_kn.index(b.compose(k, m, n, b.homs[(m, n)].rows, b.homs[(k, m)].rows))
                rhs = t_b[phi[(m, n)][:, None], phi[(k, m)][None, :]]
                return (lhs == rhs) & (rhs >= 0)

            def composition_failure(stage: str, k: int, m: int, n: int, g: int, f: int) -> dict:
                return {
                    "stage": stage,
                    "dims": [k, m, n],
                    "f": a.describe(k, m, a.homs[(k, m)].rows[f]),
                    "g": a.describe(m, n, a.homs[(m, n)].rows[g]),
                }

            ok = {}
            for k, m, n in product(range(comp_dim + 1), repeat=3):
                ok[(k, m, n)] = agree(k, m, n)
                bad = _first(~ok[(k, m, n)])
                if bad is not None:
                    g, f = bad
                    counts["composition_pairs"] += g * ok[(k, m, n)].shape[1] + f
                    return composition_failure("composition", k, m, n, g, f)
                counts["composition_pairs"] += ok[(k, m, n)].size
            if comp_samples:
                for kmn in product(objs, repeat=3):
                    if kmn not in ok:
                        ok[kmn] = agree(*kmn)
                sizes = {mn: len(hom) for mn, hom in a.homs.items()}
                if all(block.all() for block in ok.values()) and all(sizes.values()):
                    counts["sampled_pairs"] = comp_samples
                else:
                    for k, m, n, g, f in _sampled_pairs(sizes, max_dim, comp_samples, seed):
                        if not ok[(k, m, n)][g, f]:
                            return composition_failure("sampled composition", k, m, n, g, f)
                        counts["sampled_pairs"] += 1
        except RowError as exc:
            return {"stage": "exception", "error": str(exc)}
        return None

    params = {"max_dim": max_dim, "comp_dim": comp_dim, "comp_samples": comp_samples}
    return _run(f"isomorphism[{cat_a.name}~{cat_b.name}]", params, counts, first_failure)


def brute_hamiltonian(g: Graph) -> list[list[str]]:
    """All directed Hamiltonian paths, found by exhaustive search."""
    nv = len(g.vertices)
    if nv > 16:
        raise CapacityError("brute_hamiltonian is limited to 16 vertices")
    succ = [
        [g.index[v] for u2, v in g.edge_list if u2 == u and v != u]
        for u in g.vertices
    ]
    paths: list[list[str]] = []
    path = [0] * nv

    def dfs(v: int, visited: int, depth: int) -> None:
        path[depth] = v
        if depth == nv - 1:
            paths.append([g.vertices[i] for i in path])
            return
        for w in succ[v]:
            bit = 1 << w
            if not visited & bit:
                dfs(w, visited | bit, depth + 1)

    for start in range(nv):
        dfs(start, 1 << start, 0)
    return paths


CATEGORY_IDS = (
    "bch", "bchop", "graphcube", "graphmeet", "graphdim",
    "twcubecat", "twgraphdim", "ternary", "semi",
)


def _graph_view(
    name: str, build: Callable[[int], Graph], constraints: Optional[Callable]
) -> FiniteCategoryView:
    return FiniteCategoryView(
        name,
        lambda m, n: hom_matrix(build(m), build(n), constraints),
        lambda n: np.arange(len(build(n).vertices)),
        lambda m, n, p, h, g: compose_graph_rows(h, g),
        lambda m, n, row: GraphMorphism.from_indices(build(m), build(n), row),
    )


def _ternary_view(name: str, rows: Callable[[int, int], np.ndarray]) -> FiniteCategoryView:
    return FiniteCategoryView(
        name,
        rows,
        lambda n: np.full(n, 2),
        lambda m, n, p, h, g: ternary_compose_rows(h, g),
        lambda m, n, row: TernaryMorphism(m, n, ternary_seq(row)),
        lambda t: t.seq,
    )


def category_view(cat_id: str) -> FiniteCategoryView:
    """The nine categories by name, as brute-forceable views."""
    if cat_id == "bch":
        return FiniteCategoryView(
            "bch",
            bch_rows,
            np.arange,
            lambda m, n, p, h, g: bch_compose_rows(h, g, p),
            BchMorphism,
        )
    if cat_id == "bchop":
        return FiniteCategoryView(
            "bchop",
            lambda m, n: bch_rows(n, m),
            np.arange,
            lambda m, n, p, h, g: bch_compose_rows(g, h, m).transpose(1, 0, 2),
            lambda m, n, row: BchMorphism(n, m, row),
        )
    if cat_id == "graphcube":
        return _graph_view("graphcube", standard_cube, None)
    if cat_id == "graphmeet":
        return _graph_view("graphmeet", standard_cube, bound_constraints)
    if cat_id == "graphdim":
        return _graph_view("graphdim", standard_cube, dimension_constraints)
    if cat_id == "twcubecat":
        return _graph_view("twcubecat", twisted_cube, None)
    if cat_id == "twgraphdim":
        return _graph_view("twgraphdim", twisted_cube, dimension_constraints)
    if cat_id == "ternary":
        return _ternary_view("ternary", ternary_rows)
    if cat_id == "semi":
        return _ternary_view("semi", semi_rows)
    raise ValueError(f"unknown category id {cat_id!r}; choose one of {', '.join(CATEGORY_IDS)}")


def hom_table(cat_id: str, max_dim: int) -> list[list[int]]:
    """|hom(m, n)| for m, n in 0..max_dim."""
    view = category_view(cat_id)
    return [[len(view.rows(m, n)) for n in range(max_dim + 1)] for m in range(max_dim + 1)]


# --- theorem-specific suites -------------------------------------------------


def check_rec_nonrec(max_n: int = 4) -> CheckReport:
    """Recursive and closed-form builders give equal graphs."""
    from .cubes import standard_cube_rec, twisted_cube_rec

    counts = {"isomorphisms": 0}

    def first_failure() -> Optional[dict]:
        for n in range(max_n + 1):
            for kind, rec, nonrec in (
                ("standard", standard_cube_rec(n), standard_cube(n)),
                ("twisted", twisted_cube_rec(n), twisted_cube(n)),
            ):
                if rec != nonrec:
                    return {"kind": kind, "n": n}
                counts["isomorphisms"] += 1
        return None

    return _run("rec_nonrec", {"max_n": max_n}, counts, first_failure)


def check_bchop_graphmeet_iso(max_dim: int = 3, comp_dim: int = 2) -> CheckReport:
    """The opposite substitution category matches meet-and-join-preserving maps."""
    return check_isomorphism(
        category_view("bchop"),
        category_view("graphmeet"),
        bchop_to_graphmeet_rows,
        graphmeet_to_bchop_rows,
        max_dim=max_dim,
        comp_dim=comp_dim,
    )


def check_meet_equals_dim(max_dim: int = 3) -> CheckReport:
    """Meet-and-join preservation and dimension preservation pick the same maps.

    Both sides come from the hom enumeration, each under its own
    constraints, as lexicographic rows; equal arrays are equal sets.
    """
    counts = {"hom_sets": 0, "morphisms": 0}

    def first_failure() -> Optional[dict]:
        for m in range(max_dim + 1):
            for n in range(max_dim + 1):
                src, tgt = standard_cube(m), standard_cube(n)
                meets = hom_matrix(src, tgt, bound_constraints)
                dims = hom_matrix(src, tgt, dimension_constraints)
                if not np.array_equal(meets, dims):
                    meet_set = set(map(tuple, meets.tolist()))
                    diff = min(meet_set ^ set(map(tuple, dims.tolist())))
                    return {"m": m, "n": n, "vmap": list(diff), "in_meet": diff in meet_set}
                counts["hom_sets"] += 1
                counts["morphisms"] += len(meets)
        return None

    return _run("meet_equals_dim", {"max_dim": max_dim}, counts, first_failure)


def check_total_order(max_n: int = 5, build: Callable[[int], Graph] = twisted_cube) -> CheckReport:
    """The free preorder is total and order_g is an order isomorphism."""
    counts = {"vertices": 0}

    def first_failure() -> Optional[dict]:
        for n in range(max_n + 1):
            g = build(n)
            pre = free_preorder(g)
            if not is_total_order(pre):
                return {"n": n, "reason": "not total"}
            ranks = np.array([order_g(n, v) for v in g.vertices])
            expected = ranks[:, None] <= ranks[None, :]
            if not (pre.matrix == expected).all():
                i, j = np.argwhere(pre.matrix != expected)[0]
                return {
                    "n": n,
                    "u": g.vertices[i],
                    "v": g.vertices[j],
                    "reason": "order_g not an order isomorphism",
                }
            counts["vertices"] += len(g.vertices)
        return None

    return _run("total_order", {"max_n": max_n}, counts, first_failure)


def check_unique_hamiltonian(
    max_n: int = 4, build: Callable[[int], Graph] = twisted_cube
) -> CheckReport:
    """Exhaustive search finds exactly the one constructed Hamiltonian path."""
    counts = {"paths_searched": 0}

    def first_failure() -> Optional[dict]:
        for n in range(1, max_n + 1):
            found = brute_hamiltonian(build(n))
            counts["paths_searched"] += len(found)
            constructed = hamiltonian_path(n)
            vertex_order = [constructed[0][0]] + [t for _, t in constructed]
            if len(found) != 1:
                return {"n": n, "count": len(found)}
            if found[0] != vertex_order:
                return {"n": n, "found": found[0], "constructed": vertex_order}
            newest = [k for k, (s, tv) in enumerate(constructed) if s[0] != tv[0]]
            if newest != [2 ** (n - 1) - 1]:
                return {"n": n, "dimension_zero_steps": newest}
        return None

    return _run("unique_hamiltonian", {"max_n": max_n}, counts, first_failure)


def check_unique_surjection(
    max_dim: int = 3,
    homs: Callable[[int, int], Sequence] = category_view("twgraphdim").hom,
) -> CheckReport:
    """Exactly one surjective dimension-preserving map when m >= n, else none."""
    counts = {"surjective_found": 0}

    def first_failure() -> Optional[dict]:
        for m in range(max_dim + 1):
            for n in range(max_dim + 1):
                surjective = [f for f in homs(m, n) if len(set(f.vmap)) == 2**n]
                expected = 1 if m >= n else 0
                if len(surjective) != expected:
                    return {"m": m, "n": n, "count": len(surjective), "expected": expected}
                counts["surjective_found"] += len(surjective)
                if m >= n and surjective[0] != unique_surjection(m, n):
                    return {"m": m, "n": n, "found": surjective[0].as_dict()}
        return None

    return _run("unique_surjection", {"max_dim": max_dim}, counts, first_failure)


def check_factorization(
    max_dim: int = 3,
    homs: Callable[[int, int], Sequence] = category_view("twgraphdim").hom,
) -> CheckReport:
    """Every dimension-preserving map recomposes from its unique factorization."""
    counts = {"factored": 0}

    def first_failure() -> Optional[dict]:
        for m in range(max_dim + 1):
            for n in range(max_dim + 1):
                for f in homs(m, n):
                    try:
                        k, surj, inj = factorize(f)
                    except (CapacityError, MemoryError):
                        raise
                    except Exception as exc:
                        return {"m": m, "n": n, "f": f.as_dict(), "error": str(exc)}
                    if inj != face_to_injection(image_face(f)) or k != image_face(f).dimension:
                        return {"m": m, "n": n, "f": f.as_dict(), "reason": "wrong factors"}
                    counts["factored"] += 1
        return None

    return _run("factorization", {"max_dim": max_dim}, counts, first_failure)


def check_ternary_iso(
    max_dim: int = 3,
    comp_dim: int = 2,
    comp_samples: int = 20000,
    seed: int = 20260815,
    compose: Callable[[np.ndarray, np.ndarray], np.ndarray] = ternary_compose_rows,
) -> CheckReport:
    """Ternary notation matches dimension-preserving twisted-cube maps.

    compose(g, f) composes digit rows as ternary_compose_rows does.
    """
    return check_isomorphism(
        replace(category_view("ternary"), compose_rows=lambda m, n, p, h, g: compose(h, g)),
        category_view("twgraphdim"),
        ternary_to_graphdim_rows,
        graphdim_to_ternary_rows,
        max_dim=max_dim,
        comp_dim=comp_dim,
        comp_samples=comp_samples,
        seed=seed,
    )


def check_fibre_dimension(
    max_dim: int = 3, build: Callable[[int], Graph] = twisted_cube
) -> CheckReport:
    """Equal non-empty fibre sizes characterize dimension preservation."""
    counts = {"morphisms": 0}

    def first_failure() -> Optional[dict]:
        for m in range(max_dim + 1):
            for n in range(max_dim + 1):
                src, tgt = build(m), build(n)
                mat = hom_matrix(src, tgt, None)
                fibres = kernels.fibre_counts(mat, len(tgt.vertices))
                biggest = fibres.max(axis=1)
                equal = (
                    np.where(fibres == 0, biggest[:, None], fibres).min(axis=1) == biggest
                )
                dim_rows = hom_matrix(src, tgt, dimension_constraints)
                dimpres = HomRows(dim_rows, "dimension-preserving rows").index(mat) >= 0
                if (equal != dimpres).any():
                    row = int(np.nonzero(equal != dimpres)[0][0])
                    return {
                        "m": m,
                        "n": n,
                        "vmap": mat[row].tolist(),
                        "equal_fibres": bool(equal[row]),
                        "dimension_preserving": bool(dimpres[row]),
                    }
                counts["morphisms"] += len(mat)
        return None

    return _run("fibre_dimension", {"max_dim": max_dim}, counts, first_failure)


def check_all_laws(max_dim: int = 3, max_assoc_dim: int = 2) -> list[CheckReport]:
    """Category laws for all nine categories."""
    return [
        check_category_laws(category_view(cat_id), max_dim, max_assoc_dim)
        for cat_id in CATEGORY_IDS
    ]
