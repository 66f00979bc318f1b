"""Brute-force verifiers: category laws, isomorphisms, Hamiltonian search.

Every theorem the package implements structurally is re-checked here by
exhaustive (or, where stated, sampled) computation over small
dimensions.  Checks return CheckReport values carrying a verdict, the
first counterexample in canonical order when there is one, and counts
of the work done; they never assume the statement they are checking.

The check functions take the pieces they verify as parameters where a
mutation test needs to swap them out (a cube builder, a hom enumerator,
a composition rule), so deliberately corrupted inputs demonstrate that
the checks can fail.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field, replace
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
from .standard import (
    bch_compose,
    bch_identity,
    bchop_to_graphmeet,
    compose_graph_morphisms,
    dimension_constraints,
    enumerate_bch,
    enumerate_graph_homs,
    enumerate_graphdim,
    enumerate_graphmeet,
    graphmeet_to_bchop,
    hom_matrix,
    identity_graph_morphism,
)
from .twisted import (
    face_to_injection,
    factorize,
    graphdim_to_ternary,
    hamiltonian_path,
    image_face,
    enumerate_semi,
    enumerate_ternary,
    enumerate_twgraphdim,
    order_g,
    ternary_compose,
    ternary_identity,
    ternary_to_graphdim,
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

    def to_dict(self, include_elapsed: bool = True) -> dict:
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

    def to_json(self, include_elapsed: bool = True) -> str:
        return json.dumps(self.to_dict(include_elapsed), separators=(", ", ": "))


@dataclass(frozen=True)
class FiniteCategoryView:
    """Just enough of a category to brute-force its laws.

    Objects are the natural numbers up to some bound; hom(m, n) must be
    deterministic and morphism equality structural (==).
    """

    name: str
    hom: Callable[[int, int], Sequence]
    identity: Callable[[int], object]
    compose: Callable[[object, object], object]
    describe: Callable[[object], str] = repr


class _CallbackError(Exception):
    """An exception raised by a callback of the category or functor under check."""


def _guarded(fn: Callable) -> Callable:
    """fn, with any exception but CapacityError and MemoryError raised as _CallbackError."""

    def call(*args):
        try:
            return fn(*args)
        except (CapacityError, MemoryError):
            raise
        except Exception as exc:
            raise _CallbackError(f"{type(exc).__name__}: {exc}") from exc

    return call


def _guarded_view(cat: FiniteCategoryView) -> FiniteCategoryView:
    return FiniteCategoryView(cat.name, *map(_guarded, (cat.hom, cat.identity, cat.compose, cat.describe)))


def _report(name: str, params: dict, t0: float, counterexample: Optional[dict], counts: dict) -> CheckReport:
    return CheckReport(
        name=name,
        params=params,
        passed=counterexample is None,
        counterexample=counterexample,
        counts=counts,
        elapsed=time.perf_counter() - t0,
    )


def _identity_failure(cat: FiniteCategoryView, m: int, n: int, hom: Sequence):
    """(row, law) of the first f in hom(m, n) failing an identity law, or None."""
    id_m, id_n = cat.identity(m), cat.identity(n)
    for r, f in enumerate(hom):
        if cat.compose(f, id_m) != f:
            return r, "right identity"
        if cat.compose(id_n, f) != f:
            return r, "left identity"
    return None


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

    Every composable pair with objects up to max_assoc_dim is composed
    once and its composite looked up by == in the target hom-set, which
    checks closure and fills a table of hom-set indices.  Associativity
    is then checked on those tables, so it assumes that compose respects
    ==: equal arguments give equal composites.  An exception from a
    callback of the view is an "exception" counterexample.
    """
    t0 = time.perf_counter()
    cat = _guarded_view(cat)
    if max_assoc_dim is None:
        max_assoc_dim = max_dim
    if max_assoc_dim > max_dim:
        raise ValueError("max_assoc_dim must not exceed max_dim")
    name = f"category_laws[{cat.name}]"
    params = {"max_dim": max_dim, "max_assoc_dim": max_assoc_dim}
    counts = {"identity_checks": 0, "associativity_checks": 0}
    objs = range(max_dim + 1)

    def fail(kind: str, **data: object) -> CheckReport:
        return _report(name, params, t0, {"law": kind, **data}, counts)

    try:
        homs = {(m, n): cat.hom(m, n) for m in objs for n in objs}
        for (m, n), hom in homs.items():
            bad = _identity_failure(cat, m, n, hom)
            if bad is not None:
                r, law = bad
                counts["identity_checks"] += 2 * r
                return fail(law, m=m, n=n, f=cat.describe(hom[r]))
            counts["identity_checks"] += 2 * len(hom)
        aobjs = range(max_assoc_dim + 1)
        triples = sum(
            len(homs[(n, p)]) * len(homs[(m, n)]) * len(homs[(k, m)])
            for k in aobjs
            for m in aobjs
            for n in aobjs
            for p in aobjs
        )
        if triples > DEFAULT_TRIPLE_CAP:
            raise CapacityError(
                f"{name}: {triples} associativity triples exceed {DEFAULT_TRIPLE_CAP}"
            )
        index = {(m, p): {f: i for i, f in enumerate(homs[(m, p)])} for m in aobjs for p in aobjs}
        tables = {}  # tables[m, n, p][h, g]: index of h∘g in hom(m, p)
        for m in aobjs:
            for n in aobjs:
                for p in aobjs:
                    gs, hs = homs[(m, n)], homs[(n, p)]
                    table = np.empty((len(hs), len(gs)), dtype=np.intp)
                    for ih, h in enumerate(hs):
                        for ig, g in enumerate(gs):
                            i = index[(m, p)].get(cat.compose(h, g))
                            if i is None:
                                return fail(
                                    "closure",
                                    dims=[m, n, p],
                                    g=cat.describe(g),
                                    h=cat.describe(h),
                                )
                            table[ih, ig] = i
                    tables[(m, n, p)] = table
        for k in aobjs:
            for m in aobjs:
                for n in aobjs:
                    for p in aobjs:
                        fs, gs, hs = homs[(k, m)], homs[(m, n)], homs[(n, p)]
                        bad = _associativity_failure(
                            tables[(k, m, n)],
                            tables[(m, n, p)],
                            tables[(k, m, p)],
                            tables[(k, n, p)],
                        )
                        if bad is not None:
                            ih, ig, jf = bad
                            counts["associativity_checks"] += (ih * len(gs) + ig) * len(fs) + jf
                            return fail(
                                "associativity",
                                dims=[k, m, n, p],
                                f=cat.describe(fs[jf]),
                                g=cat.describe(gs[ig]),
                                h=cat.describe(hs[ih]),
                            )
                        counts["associativity_checks"] += len(hs) * len(gs) * len(fs)
    except _CallbackError as exc:  # a broken composition rule may not even type-check
        return fail("exception", error=str(exc))
    return _report(name, params, t0, None, counts)


def _composable_pairs(sizes: dict, max_dim: int, comp_dim: int, comp_samples: int, seed: int):
    """(stage, k, m, n, g, f), g indexing hom(m, n) and f hom(k, m); sizes[m, n] is |hom(m, n)|.

    Every pair with objects up to comp_dim, then comp_samples seeded draws
    with objects up to max_dim; a draw with an empty hom-set is skipped.
    Draws may repeat a pair.  The stream depends only on its arguments:
    k, m, n, g and f are drawn in that order by one Random(seed).randrange.
    """
    dims = range(comp_dim + 1)
    for k, m, n in itertools.product(dims, dims, dims):
        for g, f in itertools.product(range(sizes[(m, n)]), range(sizes[(k, m)])):
            yield "composition", k, m, n, g, f
    randrange = random.Random(seed).randrange
    objs = max_dim + 1
    for _ in range(comp_samples):
        k, m, n = randrange(objs), randrange(objs), randrange(objs)
        g_size, f_size = sizes[(m, n)], sizes[(k, m)]
        if g_size and f_size:
            yield "sampled composition", k, m, n, randrange(g_size), randrange(f_size)


def check_isomorphism(
    cat_a: FiniteCategoryView,
    cat_b: FiniteCategoryView,
    forward: Callable[[int, int, object], object],
    backward: Callable[[int, int, object], object],
    max_dim: int,
    comp_dim: Optional[int] = None,
    comp_samples: int = 0,
    seed: int = 0,
) -> CheckReport:
    """Functorial isomorphism check: round trips, images, identities, composition.

    Round trips, forward images and identity preservation run on every
    hom-set up to max_dim; composition preservation on all composable
    pairs with objects up to comp_dim (default max_dim), then on
    comp_samples seeded random pairs with objects up to max_dim.  Each
    distinct pair is composed and compared once; a repeated draw is only
    counted.  The image of g∘f is read from the round trip's images by
    its index in hom_a(k, n); forward runs on g∘f only when it is not in
    hom_a(k, n).  So when cat_a is closed under composition, forward runs
    once per morphism of cat_a.  compose and forward must respect ==.
    An exception from forward, backward or a callback of either view is
    an "exception" counterexample.
    """
    t0 = time.perf_counter()
    cat_a, cat_b = _guarded_view(cat_a), _guarded_view(cat_b)
    forward, backward = _guarded(forward), _guarded(backward)
    if comp_dim is None:
        comp_dim = max_dim
    if comp_dim > max_dim:
        raise ValueError("comp_dim must not exceed max_dim")
    name = f"isomorphism[{cat_a.name}~{cat_b.name}]"
    params = {"max_dim": max_dim, "comp_dim": comp_dim, "comp_samples": comp_samples}
    counts = {"round_trips": 0, "identities": 0, "composition_pairs": 0, "sampled_pairs": 0}
    counted = {"composition": "composition_pairs", "sampled composition": "sampled_pairs"}

    def fail(kind: str, **data: object) -> CheckReport:
        return _report(name, params, t0, {"stage": kind, **data}, counts)

    objs = range(max_dim + 1)
    try:
        homs = {(m, n): (cat_a.hom(m, n), cat_b.hom(m, n)) for m in objs for n in objs}
        image = {}  # image[m, n][i]: forward of the i-th morphism of hom_a(m, n)
        for (m, n), (ha, hb) in homs.items():
            if len(ha) != len(hb):
                return fail("hom size", m=m, n=n, a=len(ha), b=len(hb))
            members = set(hb)
            image[(m, n)] = []
            for f in ha:
                fb = forward(m, n, f)
                if backward(m, n, fb) != f:
                    return fail("round trip a->b->a", m=m, n=n, f=cat_a.describe(f))
                counts["round_trips"] += 1
                if fb not in members:
                    return fail("forward image", m=m, n=n, f=cat_a.describe(f))
                image[(m, n)].append(fb)
            for g in hb:
                if forward(m, n, backward(m, n, g)) != g:
                    return fail("round trip b->a->b", m=m, n=n, g=cat_b.describe(g))
                counts["round_trips"] += 1
        for n in objs:
            if forward(n, n, cat_a.identity(n)) != cat_b.identity(n):
                return fail("identity", n=n)
            counts["identities"] += 1
        sizes = {mn: len(ha) for mn, (ha, _) in homs.items()}
        index = {mn: {f: i for i, f in enumerate(ha)} for mn, (ha, _) in homs.items()}
        compared = set()
        for stage, k, m, n, i, j in _composable_pairs(sizes, max_dim, comp_dim, comp_samples, seed):
            pair = (k, m, n, i, j)
            if pair not in compared:
                g, f = homs[(m, n)][0][i], homs[(k, m)][0][j]
                gf = cat_a.compose(g, f)
                try:
                    r = index[(k, n)].get(gf)
                except TypeError:  # an unhashable composite is in no hom-set
                    r = None
                lhs = forward(k, n, gf) if r is None else image[(k, n)][r]
                if lhs != cat_b.compose(image[(m, n)][i], image[(k, m)][j]):
                    return fail(stage, dims=[k, m, n], f=cat_a.describe(f), g=cat_a.describe(g))
                compared.add(pair)
            counts[counted[stage]] += 1
    except _CallbackError as exc:
        return fail("exception", error=str(exc))
    return _report(name, params, t0, None, counts)


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
    name: str, build: Callable[[int], Graph], hom: Callable[[int, int], Sequence]
) -> FiniteCategoryView:
    return FiniteCategoryView(
        name, hom, lambda n: identity_graph_morphism(build(n)), compose_graph_morphisms
    )


def category_view(cat_id: str) -> FiniteCategoryView:
    """The nine categories by name, as brute-forceable views."""
    if cat_id == "bch":
        return FiniteCategoryView("bch", enumerate_bch, bch_identity, bch_compose)
    if cat_id == "bchop":
        return FiniteCategoryView(
            "bchop",
            lambda m, n: enumerate_bch(n, m),
            bch_identity,
            lambda g, f: bch_compose(f, g),
        )
    if cat_id == "graphcube":
        return _graph_view(
            "graphcube",
            standard_cube,
            lambda m, n: enumerate_graph_homs(standard_cube(m), standard_cube(n)),
        )
    if cat_id == "graphmeet":
        return _graph_view("graphmeet", standard_cube, enumerate_graphmeet)
    if cat_id == "graphdim":
        return _graph_view("graphdim", standard_cube, enumerate_graphdim)
    if cat_id == "twcubecat":
        return _graph_view(
            "twcubecat",
            twisted_cube,
            lambda m, n: enumerate_graph_homs(twisted_cube(m), twisted_cube(n)),
        )
    if cat_id == "twgraphdim":
        return _graph_view("twgraphdim", twisted_cube, enumerate_twgraphdim)
    if cat_id in ("ternary", "semi"):
        hom = enumerate_ternary if cat_id == "ternary" else enumerate_semi
        return FiniteCategoryView(cat_id, hom, ternary_identity, ternary_compose, lambda t: t.seq)
    raise ValueError(f"unknown category id {cat_id!r}; choose one of {', '.join(CATEGORY_IDS)}")


def hom_table(cat_id: str, max_dim: int) -> list[list[int]]:
    """|hom(m, n)| for m, n in 0..max_dim."""
    view = category_view(cat_id)
    return [[len(view.hom(m, n)) for n in range(max_dim + 1)] for m in range(max_dim + 1)]


# --- theorem-specific suites -------------------------------------------------


def check_rec_nonrec(max_n: int = 4) -> CheckReport:
    """Recursive and closed-form builders give equal graphs."""
    t0 = time.perf_counter()
    from .cubes import standard_cube_rec, twisted_cube_rec

    params = {"max_n": max_n}
    counts = {"isomorphisms": 0}
    for n in range(max_n + 1):
        for kind, rec, nonrec in (
            ("standard", standard_cube_rec(n), standard_cube(n)),
            ("twisted", twisted_cube_rec(n), twisted_cube(n)),
        ):
            if rec != nonrec:
                return _report(
                    "rec_nonrec", params, t0, {"kind": kind, "n": n}, counts
                )
            counts["isomorphisms"] += 1
    return _report("rec_nonrec", params, t0, None, counts)


def check_bchop_graphmeet_iso(max_dim: int = 3, comp_dim: int = 2) -> CheckReport:
    """The opposite substitution category matches meet-and-join-preserving maps."""
    return check_isomorphism(
        category_view("bchop"),
        category_view("graphmeet"),
        lambda m, n, a: bchop_to_graphmeet(a),
        lambda m, n, g: graphmeet_to_bchop(g),
        max_dim=max_dim,
        comp_dim=comp_dim,
    )


def check_meet_equals_dim(max_dim: int = 3) -> CheckReport:
    """Meet-and-join preservation and dimension preservation pick the same maps.

    Both sides come from the hom enumeration, each under its own constraints.
    """
    t0 = time.perf_counter()
    params = {"max_dim": max_dim}
    counts = {"hom_sets": 0, "morphisms": 0}
    for m in range(max_dim + 1):
        for n in range(max_dim + 1):
            meets = {f.vmap for f in enumerate_graphmeet(m, n)}
            dims = {f.vmap for f in enumerate_graphdim(m, n)}
            if meets != dims:
                diff = sorted(meets ^ dims)[0]
                return _report(
                    "meet_equals_dim",
                    params,
                    t0,
                    {"m": m, "n": n, "vmap": list(diff), "in_meet": diff in meets},
                    counts,
                )
            counts["hom_sets"] += 1
            counts["morphisms"] += len(meets)
    return _report("meet_equals_dim", params, t0, None, counts)


def check_total_order(max_n: int = 5, build: Callable[[int], Graph] = twisted_cube) -> CheckReport:
    """The free preorder is total and order_g is an order isomorphism."""
    t0 = time.perf_counter()
    params = {"max_n": max_n}
    counts = {"vertices": 0}
    for n in range(max_n + 1):
        g = build(n)
        pre = free_preorder(g)
        if not is_total_order(pre):
            return _report("total_order", params, t0, {"n": n, "reason": "not total"}, counts)
        ranks = np.array([order_g(n, v) for v in g.vertices])
        expected = ranks[:, None] <= ranks[None, :]
        if not (pre.matrix == expected).all():
            i, j = np.argwhere(pre.matrix != expected)[0]
            return _report(
                "total_order",
                params,
                t0,
                {"n": n, "u": g.vertices[i], "v": g.vertices[j], "reason": "order_g not an order isomorphism"},
                counts,
            )
        counts["vertices"] += len(g.vertices)
    return _report("total_order", params, t0, None, counts)


def check_unique_hamiltonian(
    max_n: int = 4, build: Callable[[int], Graph] = twisted_cube
) -> CheckReport:
    """Exhaustive search finds exactly the one constructed Hamiltonian path."""
    t0 = time.perf_counter()
    params = {"max_n": max_n}
    counts = {"paths_searched": 0}
    for n in range(1, max_n + 1):
        found = brute_hamiltonian(build(n))
        counts["paths_searched"] += len(found)
        constructed = hamiltonian_path(n)
        vertex_order = [constructed[0][0]] + [t for _, t in constructed]
        if len(found) != 1:
            return _report(
                "unique_hamiltonian", params, t0, {"n": n, "count": len(found)}, counts
            )
        if found[0] != vertex_order:
            return _report(
                "unique_hamiltonian",
                params,
                t0,
                {"n": n, "found": found[0], "constructed": vertex_order},
                counts,
            )
        newest = [k for k, (s, tv) in enumerate(constructed) if s[0] != tv[0]]
        if newest != [2 ** (n - 1) - 1]:
            return _report(
                "unique_hamiltonian",
                params,
                t0,
                {"n": n, "dimension_zero_steps": newest},
                counts,
            )
    return _report("unique_hamiltonian", params, t0, None, counts)


def check_unique_surjection(
    max_dim: int = 3,
    homs: Callable[[int, int], Sequence] = enumerate_twgraphdim,
) -> CheckReport:
    """Exactly one surjective dimension-preserving map when m >= n, else none."""
    t0 = time.perf_counter()
    params = {"max_dim": max_dim}
    counts = {"surjective_found": 0}
    for m in range(max_dim + 1):
        for n in range(max_dim + 1):
            surjective = [f for f in homs(m, n) if len(set(f.vmap)) == 2**n]
            expected = 1 if m >= n else 0
            if len(surjective) != expected:
                return _report(
                    "unique_surjection",
                    params,
                    t0,
                    {"m": m, "n": n, "count": len(surjective), "expected": expected},
                    counts,
                )
            counts["surjective_found"] += len(surjective)
            if m >= n and surjective[0] != unique_surjection(m, n):
                return _report(
                    "unique_surjection",
                    params,
                    t0,
                    {"m": m, "n": n, "found": surjective[0].as_dict()},
                    counts,
                )
    return _report("unique_surjection", params, t0, None, counts)


def check_factorization(
    max_dim: int = 3,
    homs: Callable[[int, int], Sequence] = enumerate_twgraphdim,
) -> CheckReport:
    """Every dimension-preserving map recomposes from its unique factorization."""
    t0 = time.perf_counter()
    params = {"max_dim": max_dim}
    counts = {"factored": 0}
    for m in range(max_dim + 1):
        for n in range(max_dim + 1):
            for f in homs(m, n):
                try:
                    k, surj, inj = factorize(f)
                except (CapacityError, MemoryError):
                    raise
                except Exception as exc:
                    return _report(
                        "factorization",
                        params,
                        t0,
                        {"m": m, "n": n, "f": f.as_dict(), "error": str(exc)},
                        counts,
                    )
                if inj != face_to_injection(image_face(f)) or k != image_face(f).dimension:
                    return _report(
                        "factorization",
                        params,
                        t0,
                        {"m": m, "n": n, "f": f.as_dict(), "reason": "wrong factors"},
                        counts,
                    )
                counts["factored"] += 1
    return _report("factorization", params, t0, None, counts)


def check_ternary_iso(
    max_dim: int = 3,
    comp_dim: int = 2,
    comp_samples: int = 20000,
    seed: int = 20260815,
    compose: Callable = ternary_compose,
) -> CheckReport:
    """Ternary notation matches dimension-preserving twisted-cube maps."""
    return check_isomorphism(
        replace(category_view("ternary"), compose=compose),
        category_view("twgraphdim"),
        lambda m, n, t: ternary_to_graphdim(t),
        lambda m, n, g: graphdim_to_ternary(g),
        max_dim=max_dim,
        comp_dim=comp_dim,
        comp_samples=comp_samples,
        seed=seed,
    )


def check_fibre_dimension(
    max_dim: int = 3, build: Callable[[int], Graph] = twisted_cube
) -> CheckReport:
    """Equal non-empty fibre sizes characterize dimension preservation."""
    t0 = time.perf_counter()
    params = {"max_dim": max_dim}
    counts = {"morphisms": 0}
    for m in range(max_dim + 1):
        for n in range(max_dim + 1):
            src, tgt = build(m), build(n)
            mat = hom_matrix(src, tgt, None)
            fibres = kernels.fibre_counts(mat, len(tgt.vertices))
            biggest = fibres.max(axis=1)
            equal = (
                np.where(fibres == 0, biggest[:, None], fibres).min(axis=1) == biggest
            )
            dim_rows = {row.tobytes() for row in hom_matrix(src, tgt, dimension_constraints)}
            dimpres = np.array([row.tobytes() in dim_rows for row in mat], dtype=bool)
            if (equal != dimpres).any():
                row = int(np.nonzero(equal != dimpres)[0][0])
                return _report(
                    "fibre_dimension",
                    params,
                    t0,
                    {
                        "m": m,
                        "n": n,
                        "vmap": mat[row].tolist(),
                        "equal_fibres": bool(equal[row]),
                        "dimension_preserving": bool(dimpres[row]),
                    },
                    counts,
                )
            counts["morphisms"] += len(mat)
    return _report("fibre_dimension", params, t0, None, counts)


def check_all_laws(max_dim: int = 3, max_assoc_dim: int = 2) -> list[CheckReport]:
    """Category laws for all nine categories."""
    return [
        check_category_laws(category_view(cat_id), max_dim, max_assoc_dim)
        for cat_id in CATEGORY_IDS
    ]
