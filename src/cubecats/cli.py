"""Command line front end.

Subcommands: build cube graphs (JSON or DOT), list hom-sets, compose
morphisms, run the brute-force check suites, print hom-set count
tables, and re-export graph JSON.  Everything written to stdout is
byte-stable across runs; progress and timing go to stderr.

Exit codes: 0 success, 1 a check failed, 2 usage error, 3 capacity
error, 141 stdout closed by its reader (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .graphs import CapacityError, Graph, graph_from_json, graph_to_json
from .cubes import cube_rec, standard_cube, to_dot, twisted_cube
from .standard import bch_compose_rows, bch_from_json
from .twisted import ternary_compose
from .rows import CATEGORY_IDS, category_view, hom_table

SUITES = ("all", "standard", "twisted", "laws", "iso")
# Largest cube dimension of build (json), homs and table: cubes and their bound
# tables are built before any enumeration, and a 14-cube takes over 300 MB.
MAX_DIM = 8


def cmd_build(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    n, kind = args.n, args.kind
    if n < 0:
        parser.error("--n must be non-negative")
    if args.out == "json" and n > MAX_DIM:
        parser.error(f"json output is limited to --n {MAX_DIM}")
    if args.out == "dot" and n > 4:
        parser.error("dot output is limited to --n 4")
    twisted = kind == "twisted"
    cube = (twisted_cube if twisted else standard_cube)(n)
    if args.verify_iso:
        if cube_rec(n, twisted) != cube:
            print(f"rec and nonrec {kind} cubes differ at n={n}", file=sys.stderr)
            return 1
        print(
            f"verified: rec and nonrec {kind} cubes are equal, so isomorphic, at n={n}",
            file=sys.stderr,
        )
    sys.stdout.write(graph_to_json(cube) if args.out == "json" else to_dot(cube, twisted))
    return 0


def cmd_homs(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    m, n = args.m, args.n
    if m < 0 or n < 0:
        parser.error("dimensions must be non-negative")
    if max(m, n) > MAX_DIM:
        raise CapacityError(f"homs builds cubes of dimension at most {MAX_DIM} (256 vertices)")
    view = category_view(args.cat)
    for row in view.rows(m, n):
        name = view.describe(m, n, row)
        print(name if isinstance(name, str) else json.dumps(name))
    return 0


def cmd_compose(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.cat == "bch":
        try:
            (g_m, g_n, g), (f_m, f_n, f) = bch_from_json(args.g), bch_from_json(args.f)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            parser.error(f"invalid morphism JSON: {exc}")
        if f_n != g_m:
            parser.error(f"cannot compose {g_m}->{g_n} after {f_m}->{f_n}")
        outer, inner = (np.array([entries], dtype=np.intp) for entries in (g, f))
        gf = bch_compose_rows(outer, inner, g_n)[0, 0]
        print(json.dumps(category_view("bch").describe(f_m, g_n, gf)))
        return 0
    try:
        print(ternary_compose(args.g, args.f, twist=args.cat == "ternary"))
    except ValueError as exc:
        parser.error(str(exc))
    return 0


def _suite_steps(suite: str, d: int) -> list[Callable]:
    """The checks that suite runs at depth d, in run order; all runs every one."""
    from . import oracle
    comp_dim = min(d, 2)
    samples = 20000 if d >= 3 else 0
    steps = [  # (the suites besides all that run the check, the check)
        (("standard",), partial(oracle.check_rec_nonrec, d)),
        (("standard",), partial(oracle.check_meet_equals_dim, d)),
        (("standard", "iso"), partial(oracle.check_bchop_graphmeet_iso, d, comp_dim)),
        (("iso",), partial(oracle.check_ternary_iso, d, comp_dim, samples)),
        (("twisted",), partial(oracle.check_total_order, d)),
        (("twisted",), partial(oracle.check_unique_hamiltonian, d)),
        (("twisted",), partial(oracle.check_unique_surjection, d)),
        (("twisted",), partial(oracle.check_factorization, d)),
        (("twisted",), partial(oracle.check_fibre_dimension, d)),
    ] + [
        (("laws",), partial(oracle.check_category_laws, view, d, comp_dim))
        for view in map(category_view, CATEGORY_IDS)
    ]
    return [check for suites, check in steps if suite == "all" or suite in suites]


def cmd_check(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    d = args.max_dim
    if not 0 <= d <= 4:
        parser.error("--max-dim must be between 0 and 4")
    reports = []
    capacity_skips = 0
    for check in _suite_steps(args.suite, d):
        try:
            report = check()
        except CapacityError as exc:
            capacity_skips += 1
            print(
                json.dumps(
                    {"check": exc.check, "skipped": "capacity", "reason": str(exc)},
                    separators=(", ", ": "),
                )
            )
            print(f"SKIP {exc.check}: {exc}", file=sys.stderr)
            continue
        print(report.to_json())
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {report.name} ({report.elapsed:.2f}s)", file=sys.stderr)
        reports.append(report)
    failed = sum(not r.passed for r in reports)
    print(
        f"{len(reports) - failed}/{len(reports)} checks passed, {capacity_skips} skipped",
        file=sys.stderr,
    )
    if failed:
        return 1
    if capacity_skips:
        return 3
    return 0


def cmd_table(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.max_dim < 0:
        parser.error("--max-dim must be non-negative")
    if args.max_dim > MAX_DIM:
        raise CapacityError(f"table lists hom-sets of dimension at most {MAX_DIM}")
    for m, row in enumerate(hom_table(args.cat, args.max_dim)):
        print(f"m={m}: {json.dumps(row)}")
    return 0


def _generic_dot(g: Graph) -> str:
    lines = ["digraph G {", "  rankdir=LR;"]
    lines += [f'  "{v}";' for v in g.vertices]
    lines += [f'  "{u}" -> "{v}";' for u, v in g.edge_list if u != v]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _detect_cube(g: Graph) -> Optional[bool]:
    """Whether g is a twisted cube, None when it is no cube; standard first,
    as C^0 = T^0 and C^1 = T^1."""
    n = g.dimension
    for twisted, closed in ((False, standard_cube), (True, twisted_cube)):
        if n <= 4 and g == closed(n):
            return twisted
    return None


def cmd_export(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        text = sys.stdin.read() if args.infile == "-" else Path(args.infile).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read {args.infile}: {exc}")
    try:
        graph = graph_from_json(text)
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        parser.error(f"invalid graph JSON: {exc}")
    if args.out == "json":
        sys.stdout.write(graph_to_json(graph))
        return 0
    if len(graph.vertices) > 16:
        raise CapacityError("dot output is limited to 16 vertices")
    twisted = _detect_cube(graph)
    sys.stdout.write(_generic_dot(graph) if twisted is None else to_dot(graph, twisted))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubecats",
        description="Build cube graphs, enumerate and compose their morphisms, "
        "and brute-force the laws and equivalences relating them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit a cube graph as JSON or DOT")
    p.add_argument("--kind", choices=("standard", "twisted"), required=True)
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--out", choices=("json", "dot"), default="json")
    p.add_argument(
        "--verify-iso",
        action="store_true",
        help="also check that the rec and nonrec builders give equal graphs",
    )
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("homs", help="list a hom-set, one morphism per line")
    p.add_argument("--cat", choices=CATEGORY_IDS, required=True)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_homs)

    p = sub.add_parser("compose", help="compose two morphisms g and f as g after f")
    p.add_argument("--cat", choices=("ternary", "bch", "untwisted"), required=True)
    p.add_argument("g", help="outer morphism (ternary string, or JSON for bch)")
    p.add_argument("f", help="inner morphism")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("check", help="run brute-force verification suites")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--max-dim", type=int, default=3)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("table", help="print |hom(m, n)| for m, n up to --max-dim")
    p.add_argument("--cat", choices=CATEGORY_IDS, required=True)
    p.add_argument("--max-dim", type=int, default=3)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("export", help="re-emit a graph JSON file as JSON or DOT")
    p.add_argument("--in", dest="infile", default="-", help="input path, or - for stdin")
    p.add_argument("--out", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        code = 3
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    return code


if __name__ == "__main__":
    sys.exit(main())
