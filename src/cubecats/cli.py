"""Command line front end.

Subcommands: build cube graphs (JSON or DOT), list hom-sets, compose
morphisms, run the brute-force check suites, print hom-set count
tables, and re-export graph JSON.  Everything written to stdout is
byte-stable across runs; progress and timing go to stderr.

Exit codes: 0 success, 1 a check failed, 2 usage error, 3 capacity
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Optional

from .graphs import CapacityError, Graph, graph_from_json, graph_to_json
from .cubes import (
    LabeledCubeGraph,
    standard_cube,
    standard_cube_nonrec,
    standard_cube_rec,
    to_dot,
    twisted_cube,
    twisted_cube_nonrec,
    twisted_cube_rec,
)
from .standard import bch_compose, bch_from_json
from .twisted import TernaryMorphism, order_g, ternary_compose
from .oracle import (
    CATEGORY_IDS,
    CheckReport,
    category_view,
    check_all_laws,
    check_bchop_graphmeet_iso,
    check_factorization,
    check_fibre_dimension,
    check_meet_equals_dim,
    check_rec_nonrec,
    check_ternary_iso,
    check_total_order,
    check_unique_hamiltonian,
    check_unique_surjection,
    hom_table,
)

SUITES = ("all", "standard", "twisted", "laws", "iso")


def _twisted_vertex_order(n: int) -> list[str]:
    return sorted(twisted_cube(n).vertices, key=lambda v: order_g(n, v))


def cmd_build(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    n, kind = args.n, args.kind
    if n < 0:
        parser.error("--n must be non-negative")
    if args.out == "json" and n > 8:
        parser.error("json output is limited to --n 8")
    if args.out == "dot":
        if n > 4:
            parser.error("dot output is limited to --n 4")
        if args.definition == "rec":
            parser.error("dot output needs --def nonrec; edge labels come from the closed form")
    rec, nonrec, labeled = {
        "standard": (standard_cube_rec, standard_cube, standard_cube_nonrec),
        "twisted": (twisted_cube_rec, twisted_cube, twisted_cube_nonrec),
    }[kind]
    if args.verify_iso:
        if rec(n) != nonrec(n):
            print(f"rec and nonrec {kind} cubes differ at n={n}", file=sys.stderr)
            return 1
        print(
            f"verified: rec and nonrec {kind} cubes are equal, so isomorphic, at n={n}",
            file=sys.stderr,
        )
    if args.out == "json":
        sys.stdout.write(graph_to_json((rec if args.definition == "rec" else nonrec)(n)))
    else:
        order = _twisted_vertex_order(n) if kind == "twisted" else None
        sys.stdout.write(to_dot(labeled(n), order))
    return 0


def _morphism_line(cat_id: str, f: object) -> str:
    if cat_id in ("ternary", "semi"):
        return f.seq
    return f.to_json()


def cmd_homs(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.m < 0 or args.n < 0:
        parser.error("dimensions must be non-negative")
    if max(args.m, args.n) > 8:
        # input bound, not a hom-set bound: the cube graphs are built before
        # any enumeration, and one of dimension 14 alone takes over 300 MB
        raise CapacityError("homs builds cubes of dimension at most 8 (256 vertices)")
    view = category_view(args.cat)
    for row in view.rows(args.m, args.n):
        print(_morphism_line(args.cat, view.morphism(args.m, args.n, row)))
    return 0


def cmd_compose(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.cat == "bch":
        try:
            g = bch_from_json(args.g)
            f = bch_from_json(args.f)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            parser.error(f"invalid morphism JSON: {exc}")
        try:
            composite = bch_compose(g, f)
        except ValueError as exc:
            parser.error(str(exc))
        print(composite.to_json())
        return 0
    try:
        f = TernaryMorphism(args.f.count("*"), len(args.f), args.f)
        g = TernaryMorphism(len(args.f), len(args.g), args.g)
    except ValueError as exc:
        parser.error(str(exc))
    print(ternary_compose(g, f, twist=args.cat == "ternary").seq)
    return 0


def _suite_steps(suite: str, d: int) -> list[tuple[str, Callable[[], object]]]:
    steps: list[tuple[str, Callable[[], object]]] = []
    comp_dim = min(d, 2)
    samples = 20000 if d >= 3 else 0
    if suite in ("all", "standard"):
        steps.append(("rec_nonrec", lambda: check_rec_nonrec(d)))
        steps.append(("meet_equals_dim", lambda: check_meet_equals_dim(d)))
    if suite in ("all", "standard", "iso"):
        steps.append(("bchop_graphmeet_iso", lambda: check_bchop_graphmeet_iso(d, comp_dim)))
    if suite in ("all", "iso"):
        steps.append(("ternary_iso", lambda: check_ternary_iso(d, comp_dim, samples)))
    if suite in ("all", "twisted"):
        steps.append(("total_order", lambda: check_total_order(d)))
        steps.append(("unique_hamiltonian", lambda: check_unique_hamiltonian(d)))
        steps.append(("unique_surjection", lambda: check_unique_surjection(d)))
        steps.append(("factorization", lambda: check_factorization(d)))
        steps.append(("fibre_dimension", lambda: check_fibre_dimension(d)))
    if suite in ("all", "laws"):
        steps.append(("laws", lambda: check_all_laws(d, comp_dim)))
    return steps


def cmd_check(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    d = args.max_dim
    if not 0 <= d <= 4:
        parser.error("--max-dim must be between 0 and 4")
    reports: list[CheckReport] = []
    capacity_skips = 0
    for name, thunk in _suite_steps(args.suite, d):
        try:
            result = thunk()
        except CapacityError as exc:
            capacity_skips += 1
            print(
                json.dumps(
                    {"check": name, "skipped": "capacity", "reason": str(exc)},
                    separators=(", ", ": "),
                )
            )
            print(f"SKIP {name}: {exc}", file=sys.stderr)
            continue
        for report in result if isinstance(result, list) else [result]:
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
    for m, row in enumerate(hom_table(args.cat, args.max_dim)):
        print(f"m={m}: {json.dumps(row)}")
    return 0


def _generic_dot(g: Graph) -> str:
    lines = ["digraph G {", "  rankdir=LR;"]
    lines += [f'  "{v}";' for v in g.vertices]
    lines += [f'  "{u}" -> "{v}";' for u, v in g.edge_list if u != v]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _detect_cube(g: Graph) -> Optional[tuple[LabeledCubeGraph, bool]]:
    n = g.dimension
    if n > 4:
        return None
    if g == standard_cube(n):
        return standard_cube_nonrec(n), False
    if g == twisted_cube(n):
        return twisted_cube_nonrec(n), True
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
    detected = _detect_cube(graph)
    if detected is None:
        sys.stdout.write(_generic_dot(graph))
    else:
        labeled, twisted = detected
        order = _twisted_vertex_order(graph.dimension) if twisted else None
        sys.stdout.write(to_dot(labeled, order))
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
    p.add_argument("--def", dest="definition", choices=("rec", "nonrec"), default="nonrec")
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
        return args.func(args, parser)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
