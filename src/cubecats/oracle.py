"""Brute-force verifiers: category laws, isomorphisms, Hamiltonian paths.

Every theorem the package implements structurally is re-checked here by
exhaustive computation over small dimensions, except Hamiltonian paths:
Kahn's algorithm either finds a cycle in a built cube or gives its one
candidate path, its topological order.  Each check keeps its
loops in one first_failure() that returns the first counterexample in
canonical order, or None, and counts the work done as it goes; _run
times it and builds the CheckReport.  No check assumes the statement
it is checking.

Every check that reads a category's hom-sets works on morphisms as
rows, read in two ways only: _Rows loads each hom-set as a HomRows, a
sorted integer matrix whose order is checked at load, and
_Rows.composites composes a block of pairs in one batched row
operation.  An identity is an arrow: _Rows.identity reads it once and
finds it in hom(n, n), and from then on it is that hom-set's row, so
every block composed is rows of a loaded hom-set, in its dtype.  A law
that equates two arrows compares their rows; a row is looked up by
HomRows.index only where an index or a membership is the answer.  A
counterexample names each arrow by _Rows.describe, the view's describe
called through _call: the value homs prints for it.

Every call into the code under check goes through _call: a view's
callbacks, an isomorphism's functors, the factorization's face
injections, and the cube builders, preorder, order and path of the
theorem checks.  An exception there becomes a RowError, and so does a
result of the wrong form: an array that checked_rows refuses, a build
that is no Graph, a preorder that is no square boolean array over the
cube's vertices, ranks that are not one integer per vertex, or a path
that is not 2^n - 1 chained vertex pairs.  _run turns a RowError into the
counterexample {"error": message}, tagged {"law": "exception"} in the
laws and {"stage": "exception"} in the isomorphisms.  An exception in the
oracle's own code propagates.

The check functions take the pieces they verify as parameters where a
mutation test needs to swap them out (a cube builder or a category
view), so deliberately corrupted inputs demonstrate that the checks can
fail.  Every category is read through a view that rows.py builds; the
oracle builds none of its own.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterator, Optional

import numpy as np

from . import cubes, kernels
from .graphs import CapacityError, Graph, free_preorder, is_total_order
from .cubes import standard_cube, twisted_cube
from .rows import (
    CATEGORY_IDS,
    FiniteCategoryView,
    HomRows,
    RowError,
    category_view,
    checked_rows,
)
from .standard import bchop_to_graphmeet_rows, graphmeet_to_bchop_rows
from .twisted import graphdim_to_ternary_rows, hamiltonian_path, order_g, ternary_to_graphdim_rows

DEFAULT_TRIPLE_CAP = 10**8


@dataclass
class CheckReport:
    """Outcome of one brute-force check."""

    name: str
    params: dict
    counterexample: Optional[dict]
    counts: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        """A check passes exactly when it found no counterexample."""
        return self.counterexample is None

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


def _run(
    name: str,
    params: dict,
    counts: dict,
    first_failure: Callable[[], Optional[dict]],
    tag: Optional[dict] = None,
) -> CheckReport:
    """The report of a check whose first_failure() gives its first counterexample,
    or None when it passes, and fills counts as it goes.  A RowError from it
    is the counterexample {**tag, "error": message}; a CapacityError leaves
    with the check's name as its check attribute."""
    t0 = time.perf_counter()
    try:
        counterexample = first_failure()
    except RowError as exc:
        counterexample = {**(tag or {}), "error": str(exc)}
    except CapacityError as exc:
        exc.check = name
        raise
    return CheckReport(name, params, counterexample, counts, time.perf_counter() - t0)


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
            (m, n): HomRows(_call(cat.rows, m, n), f"{cat.name} rows({m}, {n})")
            for m in objs
            for n in objs
        }

    def identity(self, n: int) -> Optional[int]:
        """The index of identity(n) in hom(n, n), or None when it is no arrow of it."""
        hom = self.homs[(n, n)]
        identity = checked_rows(_call(self.cat.identity, n), (hom.width,), f"identity({n})")
        (at,) = hom.index(identity[None])
        return None if at < 0 else int(at)

    def composites(self, m: int, n: int, p: int, h: np.ndarray, g: np.ndarray) -> Iterator:
        """(rows, the checked rows of each h[i]∘g[j] for i in rows), in kernels.row_blocks
        sized for the larger of an 8-byte index and a row of hom(m, p) a pair.  This is
        the one call of the view's compose_rows."""
        hom, what = self.homs[(m, p)], f"compose_rows({m}, {n}, {p})"
        for rows in kernels.row_blocks(len(h), max(8, hom.width * hom.rows.itemsize) * len(g)):
            hs = h[rows]
            composites = _call(self.cat.compose_rows, m, n, p, hs, g)
            yield rows, checked_rows(composites, (len(hs), len(g), hom.width), what)

    def describe(self, m: int, n: int, row: np.ndarray) -> object:
        return _call(self.cat.describe, m, n, np.asarray(row))


def _first(bad: np.ndarray) -> Optional[tuple]:
    """Position of the first True of bad in row-major order, or None."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.unravel_index(bad.argmax(), bad.shape))


def _one_side_only(left: HomRows, right: HomRows) -> Optional[tuple[list, bool]]:
    """The least row in exactly one of two hom-sets, and whether it is in
    left, or None when they hold the same rows.  Each side's rows are looked
    up in the other, whose order was checked when it was loaded."""
    checked_rows(right.rows, (None, left.width), right.what)
    firsts = [
        (row, side)
        for hom, other, side in ((left, right, True), (right, left, False))
        for row in hom.rows[other.index(hom.rows) < 0][:1].tolist()
    ]
    return min(firsts, default=None)


def check_category_laws(
    cat: FiniteCategoryView, max_dim: int, max_assoc_dim: Optional[int] = None
) -> CheckReport:
    """Exhaustive identity laws up to max_dim; closure and associativity up to max_assoc_dim.

    Each identity(n) must be an arrow of hom(n, n).  _Rows.composites
    composes each hom-set with the identities' own rows of hom(m, m) and
    hom(n, n), and each composite must be its arrow's own row.  Then it
    composes the rows of hom(n, p) and hom(m, n) per (m, n, p) with
    objects up to max_assoc_dim and looks each composite up in hom(m, p).
    A composite that is not there fails closure; the others fill a table
    of hom-set indices, on which associativity is checked in
    kernels.row_blocks, each block's first failing triple found by
    _first.  An exception from a callback of the view, or a result of the
    wrong shape or with a negative value, is an "exception" counterexample.
    """
    if max_assoc_dim is None:
        max_assoc_dim = max_dim
    if max_assoc_dim > max_dim:
        raise ValueError("max_assoc_dim must not exceed max_dim")
    name = f"category_laws[{cat.name}]"
    counts = {"identity_checks": 0, "associativity_checks": 0}
    objs = range(max_dim + 1)

    def first_failure() -> Optional[dict]:
        view = _Rows(cat, objs)
        homs = view.homs
        ids = []  # ids[n]: the row of identity(n), as hom(n, n) holds it
        for n in objs:
            at = view.identity(n)
            if at is None:
                return {"law": "identity arrow", "n": n}
            ids.append(homs[(n, n)].rows[at : at + 1])
        for (m, n), hom in homs.items():
            f = hom.rows
            right = np.concatenate([fid for _, fid in view.composites(m, m, n, f, ids[m])])
            ((_, left),) = view.composites(m, n, n, ids[n], f)  # one row: one block
            bad_right = (right[:, 0] != f).any(axis=1)
            bad = _first(bad_right | (left[0] != f).any(axis=1))
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
            hgs = view.composites(m, n, p, hs, gs)
            table = np.concatenate([homs[(m, p)].index(hg) for _, hg in hgs])
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
            gf, hg = tables[(k, m, n)], tables[(m, n, p)]
            for rows in kernels.row_blocks(len(hs), gf.nbytes):
                # (h∘g)∘f against h∘(g∘f), as indices in hom(k, p)
                bad = _first(tables[(k, m, p)][hg[rows]] != tables[(k, n, p)][rows][:, gf])
                if bad is not None:
                    ih, ig, jf = bad
                    ih += rows.start
                    counts["associativity_checks"] += (ih * len(gs) + ig) * len(fs) + jf
                    return {
                        "law": "associativity",
                        "dims": [k, m, n, p],
                        "f": view.describe(k, m, fs[jf]),
                        "g": view.describe(m, n, gs[ig]),
                        "h": view.describe(n, p, hs[ih]),
                    }
            counts["associativity_checks"] += len(hs) * len(gs) * len(fs)
        return None

    params = {"max_dim": max_dim, "max_assoc_dim": max_assoc_dim}
    return _run(name, params, counts, first_failure, {"law": "exception"})


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
    """Functorial isomorphism check: hom sizes, round trips, images, identities, composition.

    forward(m, n, rows) maps rows of hom_a(m, n) to rows of hom_b(m, n),
    one row each, and backward the other way.  Each image may depend
    only on its own row, as each composite of a view's compose_rows may
    depend only on its own pair.  On every hom-set up to max_dim, hom
    size compares |hom_a(m, n)| with |hom_b(m, n)|, the round trip
    a->b->a asks backward(forward(f)) == f, and forward image asks that
    forward(f) be a row of hom_b(m, n).  The round trip makes forward
    one-to-one, the image puts it into hom_b(m, n) and hom size makes it
    onto, so forward is a bijection that backward inverts, and each g in
    hom_b(m, n) is forward(backward(g)) too: round_trips counts the rows
    of both sides.  Then each identity must be an arrow, and the
    image of a's identity(n) b's identity(n).  Composition preservation
    runs on all composable pairs with objects up to comp_dim (default
    max_dim), then on comp_samples seeded random pairs with objects up
    to max_dim.  For each (k, m, n), block by block of a's
    _Rows.composites, it looks each g∘f up in hom_a(k, n) and compares
    its image with forward(g)∘forward(f), composed from the images in
    b's blocks of the same rows.  A pair whose g∘f is outside
    hom_a(k, n) fails.

    When comp_samples > 0 the tables cover every (k, m, n) up to
    max_dim, so a sample can fail only if a pair in them fails.  The
    seeded stream is drawn only when one does, to find and count the
    first failing draw, or when a hom-set is empty, to count the draws
    that are not skipped; otherwise every draw would pass, sampled_pairs
    is comp_samples and nothing is drawn.  An exception from forward,
    backward or a callback of either view, or a result of the wrong
    shape or with a negative value, is an "exception" counterexample.
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
        a, b = _Rows(cat_a, objs), _Rows(cat_b, objs)
        images = {}  # images[m, n]: forward of each row of hom_a(m, n), in hom_b(m, n)'s dtype
        for m, n in product(objs, repeat=2):
            ha, hb = a.homs[(m, n)], b.homs[(m, n)]
            if len(ha) != len(hb):
                return {"stage": "hom size", "m": m, "n": n, "a": len(ha), "b": len(hb)}
            image = mapped("forward", m, n, ha.rows, hb)
            bad_trip = (mapped("backward", m, n, image, ha) != ha.rows).any(axis=1)
            bad = _first(bad_trip | (hb.index(image) < 0))
            if bad is not None:
                (r,) = bad
                stage = "round trip a->b->a" if bad_trip[r] else "forward image"
                counts["round_trips"] += r + (not bad_trip[r])
                return {"stage": stage, "m": m, "n": n, "f": a.describe(m, n, ha.rows[r])}
            counts["round_trips"] += len(ha) + len(hb)
            images[(m, n)] = image.astype(hb.rows.dtype)
        for n in objs:
            at_a, at_b = a.identity(n), b.identity(n)
            if None in (at_a, at_b) or (images[(n, n)][at_a] != b.homs[(n, n)].rows[at_b]).any():
                return {"stage": "identity", "n": n}
            counts["identities"] += 1

        def agree(k: int, m: int, n: int) -> np.ndarray:
            """agree[g, f]: forward(g∘f) == forward(g)∘forward(f), for g in hom_a(m, n)
            and f in hom_a(k, m); False where g∘f is not in hom_a(k, n)."""
            blocks = []
            for rows, gf in a.composites(k, m, n, a.homs[(m, n)].rows, a.homs[(k, m)].rows):
                at = a.homs[(k, n)].index(gf)  # b's rows may make smaller blocks of the same rows
                for sub, fg in b.composites(k, m, n, images[(m, n)][rows], images[(k, m)]):
                    found = at[sub] >= 0  # -1 reads the last image row, if any; found masks it
                    same = (images[(k, n)][at[sub]] == fg).all(axis=-1) if found.any() else found
                    blocks.append(found & same)
            return np.concatenate(blocks)

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
            ok.update((kmn, agree(*kmn)) for kmn in product(objs, repeat=3) if kmn not in ok)
            sizes = {mn: len(hom) for mn, hom in a.homs.items()}
            if all(block.all() for block in ok.values()) and all(sizes.values()):
                counts["sampled_pairs"] = comp_samples
            else:
                for k, m, n, g, f in _sampled_pairs(sizes, max_dim, comp_samples, seed):
                    if not ok[(k, m, n)][g, f]:
                        return composition_failure("sampled composition", k, m, n, g, f)
                    counts["sampled_pairs"] += 1
        return None

    params = {"max_dim": max_dim, "comp_dim": comp_dim, "comp_samples": comp_samples}
    name = f"isomorphism[{cat_a.name}~{cat_b.name}]"
    return _run(name, params, counts, first_failure, {"stage": "exception"})


def acyclic_hamiltonian_paths(g: Graph) -> Optional[list[list[str]]]:
    """The directed Hamiltonian paths of g, or None when g has a cycle.

    Loops aside, an acyclic graph has at most one: its topological order,
    found by Kahn's algorithm, when each vertex of it has an edge to the next.
    """
    adj = g.adjacency & ~np.eye(len(g.vertices), dtype=bool)
    indegree = adj.sum(axis=0)
    order = np.flatnonzero(indegree == 0).tolist()
    for v in order:  # order grows as the loop reads it: a queue
        indegree[adj[v]] -= 1
        order += np.flatnonzero(adj[v] & (indegree == 0)).tolist()
    if len(order) < len(g.vertices):
        return None
    return [[g.vertices[v] for v in order]] if order and adj[order[:-1], order[1:]].all() else []


# --- theorem-specific suites -------------------------------------------------


def check_rec_nonrec(max_n: int = 4) -> CheckReport:
    """Recursive and closed-form builders give equal graphs."""
    counts = {"isomorphisms": 0}

    def first_failure() -> Optional[dict]:
        for n in range(max_n + 1):
            for twisted, closed in ((False, standard_cube), (True, twisted_cube)):
                if _call(cubes.cube_rec, n, twisted) != _call(closed, n):
                    return {"kind": "twisted" if twisted else "standard", "n": n}
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

    Both sides are the hom-sets of a category view, graphmeet and
    graphdim, compared by _one_side_only.
    """
    counts = {"hom_sets": 0, "morphisms": 0}
    objs = range(max_dim + 1)

    def first_failure() -> Optional[dict]:
        meet, dim = _Rows(category_view("graphmeet"), objs), _Rows(category_view("graphdim"), objs)
        for m, n in product(objs, repeat=2):
            diff = _one_side_only(meet.homs[(m, n)], dim.homs[(m, n)])
            if diff is not None:
                vmap = (meet if diff[1] else dim).describe(m, n, diff[0])
                return {"m": m, "n": n, "vmap": vmap, "in_meet": diff[1]}
            counts["hom_sets"] += 1
            counts["morphisms"] += len(meet.homs[(m, n)])
        return None

    return _run("meet_equals_dim", {"max_dim": max_dim}, counts, first_failure)


def _built(build: Callable[[int], Graph], n: int) -> Graph:
    """build(n), checked to be a Graph."""
    g = _call(build, n)
    if not isinstance(g, Graph):
        raise RowError(f"build({n}) gave {type(g).__name__}, expected a Graph")
    return g


def check_total_order(max_n: int = 5, build: Callable[[int], Graph] = twisted_cube) -> CheckReport:
    """The free preorder is total and order_g is an order isomorphism."""
    counts = {"vertices": 0}

    def first_failure() -> Optional[dict]:
        for n in range(max_n + 1):
            g = _built(build, n)
            leq = _call(np.asarray, _call(free_preorder, g))
            k = len(g.vertices)
            if leq.shape != (k, k) or leq.dtype != bool:
                what = f"free_preorder(build({n})) gave {leq.dtype} of shape {leq.shape}"
                raise RowError(f"{what}, expected bool of shape {(k, k)}")
            if not is_total_order(leq):
                return {"n": n, "reason": "not total"}
            ranks = _call(np.asarray, [_call(order_g, n, v) for v in g.vertices])
            if ranks.shape != (k,) or ranks.dtype.kind not in "iu":
                what = f"order_g({n}, v) over build({n}) gave {ranks.dtype} of shape {ranks.shape}"
                raise RowError(f"{what}, expected integers of shape {(k,)}")
            expected = ranks[:, None] <= ranks[None, :]
            if not (leq == expected).all():
                i, j = np.argwhere(leq != expected)[0]
                return {
                    "n": n,
                    "u": g.vertices[i],
                    "v": g.vertices[j],
                    "reason": "order_g not an order isomorphism",
                }
            counts["vertices"] += len(g.vertices)
        return None

    return _run("total_order", {"max_n": max_n}, counts, first_failure)


def _path(n: int, g: Graph) -> list:
    """hamiltonian_path(n), checked to be 2^n - 1 chained pairs of vertices of g."""
    path = _call(hamiltonian_path, n)

    def is_pair(step: object) -> bool:
        return isinstance(step, (list, tuple)) and len(step) == 2 and all(
            isinstance(v, str) and v in g.index for v in step
        )

    if not (isinstance(path, (list, tuple)) and len(path) == 2**n - 1 and all(map(is_pair, path))):
        raise RowError(f"hamiltonian_path({n}) gave no 2^{n} - 1 vertex pairs of build({n})")
    for k in range(1, len(path)):
        if path[k][0] != path[k - 1][1]:
            raise RowError(f"hamiltonian_path({n}) gave steps {k - 1} and {k} that do not chain")
    return path


def check_unique_hamiltonian(
    max_n: int = 4, build: Callable[[int], Graph] = twisted_cube
) -> CheckReport:
    """Each built cube is acyclic and has exactly one Hamiltonian path, the
    constructed one, whose one step that changes the first bit is its middle step."""
    counts = {"paths_searched": 0}

    def first_failure() -> Optional[dict]:
        for n in range(1, max_n + 1):
            g = _built(build, n)
            found = acyclic_hamiltonian_paths(g)
            if found is None:
                return {"n": n, "reason": "cyclic"}
            counts["paths_searched"] += len(found)
            constructed = _path(n, g)
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


def _vertex_maps(hom: HomRows, m: int, n: int) -> np.ndarray:
    """The rows of hom, checked to be maps of the 2^m vertices of the m-cube
    into the 2^n vertices of the n-cube."""
    rows = checked_rows(hom.rows, (None, 2**m), hom.what)
    if rows.size and rows.max() >= 2**n:
        raise RowError(f"{hom.what} gave the vertex {rows.max()}, expected one below {2**n}")
    return rows


def check_unique_surjection(
    max_dim: int = 3, view: FiniteCategoryView = category_view("twgraphdim")
) -> CheckReport:
    """Exactly one surjective dimension-preserving map when m >= n, else none,
    and it drops the trailing coordinates: v -> v >> (m - n).  An exception
    from the view, or rows that are not vertex maps, is an "error"
    counterexample."""
    counts = {"surjective_found": 0}
    objs = range(max_dim + 1)

    def first_failure() -> Optional[dict]:
        arrows = _Rows(view, objs)
        for m, n in product(objs, repeat=2):
            rows = _vertex_maps(arrows.homs[(m, n)], m, n)
            surjective = rows[kernels.fibre_counts(rows, 2**n).all(axis=1)]
            expected = 1 if m >= n else 0
            if len(surjective) != expected:
                return {"m": m, "n": n, "count": len(surjective), "expected": expected}
            counts["surjective_found"] += len(surjective)
            if m >= n and (surjective[0] != np.arange(2**m) >> (m - n)).any():
                return {"m": m, "n": n, "found": arrows.describe(m, n, surjective[0])}
        return None

    return _run("unique_surjection", {"max_dim": max_dim}, counts, first_failure)


def check_factorization(
    max_dim: int = 3, view: FiniteCategoryView = category_view("twgraphdim")
) -> CheckReport:
    """Every dimension-preserving map is a face injection after the unique surjection.

    A row's image face has a star where its image varies and the
    constant bit elsewhere.  With k stars, the surjection is
    v -> v >> (m - k) and the injection is ternary_to_graphdim_rows(k,
    n, face), one batched call per k.  The row factors when the
    injection after the surjection is the row, the injection is
    one-to-one and in hom(k, n), and the surjection is in hom(m, k).
    An exception from the view or from ternary_to_graphdim_rows, or
    rows that are not vertex maps, is an "error" counterexample.
    """
    counts = {"factored": 0}
    objs = range(max_dim + 1)

    def first_failure() -> Optional[dict]:
        arrows = _Rows(view, objs)
        homs = arrows.homs
        for m, n in product(objs, repeat=2):
            rows = _vertex_maps(homs[(m, n)], m, n)
            bits = (rows[:, :, None] >> np.arange(n - 1, -1, -1)) & 1
            varies = bits.min(axis=1) != bits.max(axis=1)
            faces = np.where(varies, 2, bits[:, 0, :])
            stars = varies.sum(axis=1)
            factors = np.zeros(len(rows), dtype=bool)  # False for more than m stars
            for k in range(m + 1):
                at = np.flatnonzero(stars == k)
                if not len(at):
                    continue
                surj = np.arange(2**m) >> (m - k)
                inj = checked_rows(
                    _call(ternary_to_graphdim_rows, k, n, faces[at]),
                    (len(at), 2**k),
                    f"ternary_to_graphdim_rows({k}, {n})",
                )
                factors[at] = (
                    (inj[:, surj] == rows[at]).all(axis=1)
                    & (np.diff(np.sort(inj, axis=1), axis=1) > 0).all(axis=1)
                    & (homs[(k, n)].index(inj) >= 0)
                    & (homs[(m, k)].index(surj[None])[0] >= 0)
                )
            bad = _first(~factors)
            if bad is not None:
                (r,) = bad
                counts["factored"] += r
                f = arrows.describe(m, n, rows[r])
                return {"m": m, "n": n, "f": f, "reason": "no factorization"}
            counts["factored"] += len(rows)
        return None

    return _run("factorization", {"max_dim": max_dim}, counts, first_failure)


def check_ternary_iso(
    max_dim: int = 3,
    comp_dim: int = 2,
    comp_samples: int = 20000,
    seed: int = 20260815,
    view: FiniteCategoryView = category_view("ternary"),
) -> CheckReport:
    """Ternary notation, read through view, matches dimension-preserving twisted-cube maps."""
    return check_isomorphism(
        view,
        category_view("twgraphdim"),
        ternary_to_graphdim_rows,
        graphdim_to_ternary_rows,
        max_dim=max_dim,
        comp_dim=comp_dim,
        comp_samples=comp_samples,
        seed=seed,
    )


def check_fibre_dimension(
    max_dim: int = 3,
    maps: FiniteCategoryView = category_view("twcubecat"),
    dims: FiniteCategoryView = category_view("twgraphdim"),
) -> CheckReport:
    """Equal non-empty fibre sizes characterize dimension preservation.

    maps lists the edge-preserving maps and dims the dimension-preserving
    ones.  _one_side_only compares the rows of maps whose non-empty fibres
    are equal with the whole hom-set of dims.
    """
    counts = {"morphisms": 0}
    objs = range(max_dim + 1)

    def first_failure() -> Optional[dict]:
        edge, dim = _Rows(maps, objs), _Rows(dims, objs)
        for m, n in product(objs, repeat=2):
            mat = _vertex_maps(edge.homs[(m, n)], m, n)
            fibres = kernels.fibre_counts(mat, 2**n)
            biggest = fibres.max(axis=1)
            equal = np.where(fibres == 0, biggest[:, None], fibres).min(axis=1) == biggest
            diff = _one_side_only(HomRows(mat[equal], edge.homs[(m, n)].what), dim.homs[(m, n)])
            if diff is not None:
                vmap = (edge if diff[1] else dim).describe(m, n, diff[0])
                sides = {"equal_fibres": diff[1], "dimension_preserving": not diff[1]}
                return {"m": m, "n": n, "vmap": vmap, **sides}
            counts["morphisms"] += len(mat)
        return None

    return _run("fibre_dimension", {"max_dim": max_dim}, counts, first_failure)


def check_all_laws(max_dim: int = 3, max_assoc_dim: int = 2) -> list[CheckReport]:
    """Category laws for all nine categories."""
    return [
        check_category_laws(category_view(cat_id), max_dim, max_assoc_dim)
        for cat_id in CATEGORY_IDS
    ]
