"""Record the outputs that the benchmark's correctness check compares against.

Usage, from the repository root: python3 perfbench/record_reference.py

Writes perfbench/reference.json: the reports (name, parameters, verdict
and counts) of one `check --suite all --max-dim 3` and of one oracle-warm
pass, the exit code and stdout of every cli-small menu entry, and the
hom-set sizes of the three timed kernel filters.  `check`
stdout is kept as reports, so that later count keys do not read as a
change.  Re-record only when a change of expected output is intended.
"""

import json
import sys
import time

import harness
from harness import CLI, KERNEL_FILTERS, MENU, ORACLE_CHILD, VERIFY_ARGS, entry_key, spawn

KEEP = ("check", "params", "passed", "counts")
DEFAULT_TERNARY_SEED = "20260815"  # the seed the CLI's own ternary_iso sample uses


def reports(lines: list[dict]) -> list[dict]:
    return [{k: r[k] for k in KEEP} for r in lines if "check" in r]


def checked(child: harness.Child, what: str) -> harness.Child:
    if child.exit != 0 or child.crashed:
        sys.exit(f"{what} exited {child.exit}:\n{child.stderr.decode(errors='replace')}")
    return child


def main() -> None:
    verify = reports(checked(spawn(CLI + VERIFY_ARGS), "verify-d3").lines())
    argv = ORACLE_CHILD + [DEFAULT_TERNARY_SEED, "0", "1", "0", repr(time.monotonic())]
    first_pass = next(line for line in checked(spawn(argv), "oracle-warm").lines() if "pass_s" in line)
    oracle = reports(first_pass["reports"])
    if not all(r["passed"] for r in verify + oracle):
        sys.exit("a check failed; a reference must record passing output")
    cli = {}
    for entry in MENU:
        steps = []
        stdin = None
        for argv in entry:
            child = checked(spawn(CLI + argv, stdin), entry_key(entry))
            if argv[0] == "check":
                steps.append({"exit": child.exit, "reports": reports(child.lines())})
            else:
                steps.append({"exit": child.exit, "stdout": child.stdout.decode()})
            stdin = child.stdout
        cli[entry_key(entry)] = steps
    filters = json.loads(checked(spawn(KERNEL_FILTERS), "kernel filters").stdout)
    ref = {
        "commit": harness.git_commit(),
        "verify-d3": {"reports": verify},
        "oracle-warm": {"reports": oracle},
        "cli-small": cli,
        "kernel-filters": {pair: v["homs"] for pair, v in filters.items()},
    }
    harness.REFERENCE.write_text(json.dumps(ref, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {harness.REFERENCE}: {len(verify)} + {len(oracle)} reports, {len(cli)} menu entries")


if __name__ == "__main__":
    main()
