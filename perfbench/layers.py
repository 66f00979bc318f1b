"""Per-layer timers and counters, installed from outside the package.

``Tracer.install`` wraps the public functions of each cubecats module
listed in ``TIMED`` and rebinds every ``cubecats.*`` module attribute
that refers to one of them, plus every default argument bound to one,
so that ``from .x import y`` call sites and injected callbacks are timed
too.  Each wrapper keeps calls, inclusive time and self time; self time
leaves out the time spent in nested wrapped calls, so the layer times
of one run add up without double counting.  ``lru_cache`` hits and
misses are read as ``cache_info()`` deltas, untouched by the wrappers.
"""

from __future__ import annotations

import functools
import sys
import types
from collections import Counter
from time import perf_counter

TRACE_MARK = "PERFBENCH_TRACE "  # prefixes the stderr line that carries a child's metrics

CUBES = tuple(
    f"cubes.{name}"
    for name in (
        "standard_cube", "twisted_cube", "standard_cube_rec", "twisted_cube_rec",
        "standard_cube_nonrec", "twisted_cube_nonrec", "base_subgraph", "to_dot",
    )
)
ENUMERATORS = (
    "standard.enumerate_graph_homs", "standard.enumerate_graphdim",
    "standard.enumerate_graphmeet", "standard.enumerate_graphmeet_naive",
)
MASKS = ("kernels.bound_preserving_mask", "kernels.dimension_preserving_mask")
TERNARY_COMPOSE = ("twisted.ternary_compose", "twisted.untwisted_ternary_compose")

CALLS, SELF = 0, 1
# metric: (statistic, wrapped functions it sums over)
TIMED = {
    "cubes.build_calls": (CALLS, CUBES),
    "cubes.build_s": (SELF, CUBES),
    "graphs.preorder_s": (SELF, ("graphs.free_preorder",)),
    "graphs.bound_tables_s": (SELF, ("graphs._bound_tables",)),
    "graphs.iso_calls": (CALLS, ("graphs.graph_isomorphic",)),
    "graphs.iso_s": (SELF, ("graphs.graph_isomorphic",)),
    "kernels.filter_calls": (CALLS, ("kernels.edge_preserving_maps",)),
    "kernels.filter_s": (SELF, ("kernels.edge_preserving_maps",)),
    "kernels.mask_s": (SELF, MASKS),
    "standard.materialise_s": (SELF, ENUMERATORS),
    "standard.compose_calls": (CALLS, ("standard.compose_graph_morphisms",)),
    "standard.compose_s": (SELF, ("standard.compose_graph_morphisms",)),
    "twisted.ternary_compose_calls": (CALLS, TERNARY_COMPOSE),
    "twisted.ternary_compose_s": (SELF, TERNARY_COMPOSE),
    "twisted.to_graphdim_calls": (CALLS, ("twisted.ternary_to_graphdim",)),
    "twisted.to_graphdim_s": (SELF, ("twisted.ternary_to_graphdim",)),
    "oracle.laws_self_s": (SELF, ("oracle.check_category_laws",)),
    "oracle.iso_self_s": (SELF, ("oracle.check_isomorphism",)),
    "oracle.hamiltonian_s": (SELF, ("oracle.brute_hamiltonian",)),
}


def _on_filter(counts: Counter, args: tuple, result, missed: bool) -> None:
    ns, nt = args[:2]
    counts["kernels.filter_candidates"] += nt**ns
    counts["kernels.filter_rows_out"] += len(result)


def _on_mask(counts: Counter, args: tuple, result, missed: bool) -> None:
    counts["kernels.mask_rows_in"] += len(args[0])
    counts["kernels.mask_rows_out"] += int(result.sum())


def _on_enumerate(counts: Counter, args: tuple, result, missed: bool) -> None:
    if missed:
        counts["standard.morphisms_built"] += len(result)


HOOKS = {
    "kernels.edge_preserving_maps": _on_filter,
    "kernels.bound_preserving_mask": _on_mask,
    "kernels.dimension_preserving_mask": _on_mask,
    **{name: _on_enumerate for name in ENUMERATORS},
}


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # function -> [calls, self seconds]
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._caches: dict[str, tuple] = {}

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "cubecats" or name.startswith("cubecats.")
        }
        functions = [
            obj
            for mod in modules.values()
            for obj in vars(mod).values()
            if isinstance(obj, types.FunctionType)
        ]
        for name, mod in modules.items():
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == name:
                    info = obj.cache_info()
                    label = f"{name.rsplit('.', 1)[-1]}.{attr.lstrip('_')}"
                    self._caches[label] = (obj, info.hits, info.misses)
        wanted = {key for _, keys in TIMED.values() for key in keys}
        for key in sorted(wanted):
            layer, attr = key.split(".")
            original = getattr(modules.get(f"cubecats.{layer}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(key, original)
            for mod in modules.values():
                for name, obj in list(vars(mod).items()):
                    if obj is original:
                        setattr(mod, name, wrapper)
            for fn in functions:
                if fn.__defaults__ and any(d is original for d in fn.__defaults__):
                    fn.__defaults__ = tuple(wrapper if d is original else d for d in fn.__defaults__)
                if fn.__kwdefaults__ and any(d is original for d in fn.__kwdefaults__.values()):
                    fn.__kwdefaults__ = {
                        k: wrapper if d is original else d for k, d in fn.__kwdefaults__.items()
                    }

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        counts = self.counts
        hook = HOOKS.get(key)
        info = getattr(fn, "cache_info", None)

        def timed(*args, **kwargs):
            misses = info().misses if info else 0
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                stat[0] += 1
                stat[1] += dt - inner
            if hook:
                hook(counts, args, result, info is None or info().misses > misses)
            return result

        return functools.update_wrapper(timed, fn)

    def metrics(self) -> dict:
        """Additive layer metrics: sums over calls, so children can be added up."""
        out: dict = dict(self.counts)
        for metric, (field, keys) in TIMED.items():
            out[metric] = sum(self.stats[k][field] for k in keys if k in self.stats)
        for label, (obj, hits, misses) in self._caches.items():
            info = obj.cache_info()
            out[f"{label}_hits"] = info.hits - hits
            out[f"{label}_misses"] = info.misses - misses
        return out
