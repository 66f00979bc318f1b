"""The cubecats benchmark: three workloads, each checked against reference outputs.

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload.  The last stdout line is a JSON object with
      the keys correct, attempted, failed and metrics: the end-to-end
      metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
      --trace 1.  The lines before it give the environment and the metrics
      under their per-workload names.
  python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
      The self-test of the output check, then every workload in turn,
      one at a time from this process.
  python3 perfbench/run.py --self-test
      Only the self-test: corrupted outputs must count as failures.

Exit status 0 when every output was correct, 1 when one was not, 2 when
the package source under src/ is missing.  See NOTES.md for the metrics.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys

import harness
from harness import ROOT, Child, invocation_ok, median, report_failures, tail

OP_NAMES = {"verify-d3": "verify_s", "oracle-warm": "pass_p50_s", "cli-small": "invocation_p50_s"}


def end_to_end(run: harness.Run) -> dict:
    return {
        "setup_s": median(run.setup_s),
        "op_p50_s": median(run.op_s),
        "peak_rss_mb": run.peak_rss_mb,
    }


def per_layer(run: harness.Run) -> dict:
    out = dict(run.layers)
    out["cli.import_s"] = median(run.import_s)
    candidates = out.get("kernels.filter_candidates", 0)
    out["kernels.filter_yield"] = out.get("kernels.filter_rows_out", 0) / candidates if candidates else 0.0
    out["trace.overhead_frac"] = run.traced_s / run.untraced_s - 1 if run.untraced_s else 0.0
    return out


def describe(name: str, run: harness.Run, trace: bool) -> list[str]:
    """The run's metrics under the names NOTES.md gives them for this workload."""
    fail = f"fail_frac {run.failed / run.attempted if run.attempted else 1.0:g} ({run.failed}/{run.attempted})"
    if trace:
        return [f"{name}: traced run, {fail}"]
    lines = [
        f"{name}: setup_s {median(run.setup_s):.4f} s (median of {len(run.setup_s)})",
        f"{name}: {OP_NAMES[name]} {median(run.op_s):.4f} s (median of {len(run.op_s)})",
    ]
    if name == "cli-small":
        t = tail(run.op_s)
        lines.append(
            f"{name}: invocation_tail_s {t[1]:.4f} s (p{t[0]} of {len(run.op_s)})"
            if t
            else f"{name}: invocation_tail_s n/a (only {len(run.op_s)} invocations)"
        )
    lines.append(f"{name}: peak_rss_mb {run.peak_rss_mb:.1f} MB")
    lines.append(f"{name}: {fail}")
    return lines


def result(run: harness.Run, trace: bool, spec: dict) -> dict:
    measured = per_layer(run) if trace else end_to_end(run)
    declared = spec["per_layer" if trace else "end_to_end"]
    return {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in declared},
    }


def self_test(ref: dict) -> bool:
    """Show that the output check counts corrupted outputs as failures."""
    verify = ref["verify-d3"]["reports"]
    flipped = copy.deepcopy(verify)
    flipped[0]["passed"] = False
    oracle = ref["oracle-warm"]["reports"]
    changed = copy.deepcopy(oracle)
    key = next(iter(changed[1]["counts"]))
    changed[1]["counts"][key] += 1
    grown = copy.deepcopy(oracle)
    grown[1]["counts"]["closure_checks"] = 1
    entry, steps = next((k, v) for k, v in ref["cli-small"].items() if "stdout" in v[0])
    want = steps[0]
    clean = Child(want["exit"], want["stdout"].encode(), b"", 0.0, 0.0)
    exit_one = Child(1, want["stdout"].encode(), b"", 0.0, 0.0)
    cases = [
        ("verify-d3 reference reports", report_failures(verify, verify), 0),
        ("verify-d3 with one passed flipped to false", report_failures(verify, flipped), 1),
        ("verify-d3 with one report missing", report_failures(verify, verify[1:]), 1),
        ("oracle-warm with one count changed", report_failures(oracle, changed), 1),
        ("oracle-warm with an extra count key", report_failures(oracle, grown), 0),
        (f"cli-small `{entry}` reference output", int(not invocation_ok(want, clean)), 0),
        (f"cli-small `{entry}` with exit code 1", int(not invocation_ok(want, exit_one)), 1),
    ]
    ok = True
    for label, got, expected in cases:
        ok &= got == expected
        print(f"self-test: {label}: {got} failure(s), expected {expected}: {'ok' if got == expected else 'WRONG'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark the cubecats verifier.")
    parser.add_argument("--workload", choices=tuple(harness.WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="only check that the output check can fail")
    args = parser.parse_args()

    if not (ROOT / "src" / "cubecats" / "cli.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'cubecats'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ref = json.loads(harness.REFERENCE.read_text())
    if args.self_test:
        return 0 if self_test(ref) else 1
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    trace = bool(args.trace)

    try:
        env = harness.probe_environment()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(env, sort_keys=True))
    if args.workload:
        run = harness.WORKLOADS[args.workload](args.seed, seconds, trace, ref)
        print("\n".join(describe(args.workload, run, trace)))
        out = result(run, trace, spec)
        print(json.dumps(out))
        return 0 if out["correct"] else 1

    ok = self_test(ref)
    summary = {}
    for name, workload in harness.WORKLOADS.items():
        run = workload(args.seed, seconds, trace, ref)
        print("\n".join(describe(name, run, trace)), flush=True)
        summary[name] = result(run, trace, spec)
        ok &= summary[name]["correct"]
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
