"""Workloads, child processes and output checks shared by the benchmark scripts.

Every operation runs in a fresh child process with a pinned environment,
so each run starts with cold caches and one BLAS/OpenMP thread.  Peak RSS
is read per child with ``os.wait4``; ``RUSAGE_CHILDREN`` would accumulate
over the whole run.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from layers import TRACE_MARK

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
CHILD_TIMEOUT_S = 120.0
IMPORT_SAMPLES = 10
ORACLE_CHILDREN = 2
TRACED_PASSES = 2

CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k not in ("CUBECATS_KERNEL", "PYTHONPATH")},
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMBA_NUM_THREADS": "1",
}

CLI = [sys.executable, "-m", "cubecats.cli"]
TRACED_CLI = [sys.executable, str(HERE / "traced_cli.py")]
ORACLE_CHILD = [sys.executable, str(HERE / "oracle_child.py")]
KERNEL_FILTERS = [sys.executable, str(HERE / "kernel_filters.py")]
IMPORT_CLI = [sys.executable, "-c", "import cubecats.cli"]
PROBE = [
    sys.executable,
    "-c",
    "import importlib, json, sys, numpy, cubecats.cli\n"
    "def ok(name):\n"
    "    try:\n"
    "        importlib.import_module(name)\n"
    "    except Exception:\n"
    "        return False\n"
    "    return True\n"
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,"
    " 'numba': ok('numba'), 'networkx': ok('networkx')}))",
]

VERIFY_ARGS = ["check", "--suite", "all", "--max-dim", "3"]
CATEGORIES = (
    "bch", "bchop", "graphcube", "graphmeet", "graphdim", "twcubecat", "twgraphdim", "ternary", "semi",
)

Entry = tuple[list[str], ...]


def _menu() -> list[Entry]:
    """cli-small entries: one argv, or a build whose stdout is piped into export."""
    menu: list[Entry] = []
    for suite in ("all", "standard", "twisted", "laws", "iso"):
        for d in (0, 1, 2):
            menu.append((["check", "--suite", suite, "--max-dim", str(d)],))
    for cat in CATEGORIES:
        for m, n in ((1, 2), (2, 1), (2, 2)):
            menu.append((["homs", "--cat", cat, str(m), str(n)],))
    for cat, g, f in (
        ("ternary", "0**", "1*"),
        ("ternary", "0**", "00"),
        ("untwisted", "0**", "1*"),
        ("untwisted", "*1*", "0*"),
        ("bch", '{"m": 2, "n": 1, "map": ["j0", "b1"]}', '{"m": 1, "n": 2, "map": ["j1"]}'),
        ("bch", '{"m": 2, "n": 2, "map": ["j1", "j0"]}', '{"m": 2, "n": 2, "map": ["b0", "j0"]}'),
    ):
        menu.append((["compose", "--cat", cat, g, f],))
    for cat in CATEGORIES:
        menu.append((["table", "--cat", cat, "--max-dim", "2"],))
    for kind in ("standard", "twisted"):
        for n in ("2", "3"):
            menu.append((["build", "--kind", kind, "--n", n, "--out", "json"], ["export", "--out", "dot"]))
        menu.append((["build", "--kind", kind, "--n", "3", "--verify-iso"],))
    return menu


MENU = _menu()


def entry_key(entry: Entry) -> str:
    return " | ".join(" ".join(argv) for argv in entry)


def menu_rounds(seed: int) -> Iterator[Entry]:
    """The menu in seeded shuffled rounds, so every entry recurs evenly."""
    rng = random.Random(seed)
    while True:
        order = list(MENU)
        rng.shuffle(order)
        yield from order


# --- child processes ---------------------------------------------------------


@dataclass
class Child:
    exit: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_mb: float

    @property
    def crashed(self) -> bool:
        return b"Traceback (most recent call last)" in self.stderr

    def lines(self) -> list[dict]:
        """Every stdout line that parses as a JSON object."""
        out = []
        for line in self.stdout.decode(errors="replace").splitlines():
            try:
                value = json.loads(line)
            except ValueError:
                continue
            if isinstance(value, dict):
                out.append(value)
        return out

    def trace(self) -> dict:
        """The layer counters a traced child printed on its last marked stderr line."""
        for line in reversed(self.stderr.decode(errors="replace").splitlines()):
            if line.startswith(TRACE_MARK):
                return json.loads(line[len(TRACE_MARK):])
        return {}


def spawn(argv: list[str], stdin: bytes | None = None) -> Child:
    """Run argv to completion in the pinned environment and read its own rusage."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=CHILD_ENV,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    if stdin is not None:
        # inputs are a few kilobytes, well under one pipe buffer
        proc.stdin.write(stdin)
        proc.stdin.close()
    out: list[bytes] = []
    err: list[bytes] = []
    killed = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ, out)
        sel.register(proc.stderr, selectors.EVENT_READ, err)
        while sel.get_map():
            remaining = CHILD_TIMEOUT_S - (time.monotonic() - t0)
            if remaining <= 0 and not killed:
                proc.kill()
                killed = True
            for key, _ in sel.select(timeout=max(remaining, 0.1)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    key.data.append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here; Popen must not wait again
    return Child(proc.returncode, b"".join(out), b"".join(err), wall, usage.ru_maxrss / 1024.0)


def probe_environment() -> dict:
    """Versions, imports and machine state recorded with every result.

    The probe child also compiles the package's bytecode, so that the
    timed children of a fresh checkout do not pay for it.
    """
    child = spawn(PROBE)
    if child.exit != 0:
        raise RuntimeError(
            "cannot import cubecats from src/:\n" + child.stderr.decode(errors="replace")
        )
    return {
        **json.loads(child.stdout),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": git_commit(),
        "pinned_env": {k: v for k, v in CHILD_ENV.items() if k == "PYTHONHASHSEED" or k.endswith("_THREADS")},
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# --- output checks -----------------------------------------------------------


def report_key(report: dict) -> str:
    return report.get("check", "") + json.dumps(report.get("params"), sort_keys=True)


def report_failures(expected: list[dict], got: list[dict]) -> int:
    """How many expected reports are missing, not passed, or have a changed count.

    Count keys that the reference lacks are allowed, so a check may grow
    new counters without failing.
    """
    by_key = {report_key(r): r for r in got}
    failed = 0
    for want in expected:
        have = by_key.get(report_key(want))
        if (
            have is None
            or have.get("passed") is not True
            or any(have.get("counts", {}).get(k) != v for k, v in want["counts"].items())
        ):
            failed += 1
    return failed


def invocation_ok(expected: dict, child: Child) -> bool:
    """One cli-small invocation against its reference: exit code, then stdout."""
    if child.exit != expected["exit"] or child.crashed:
        return False
    if "reports" in expected:
        return report_failures(expected["reports"], child.lines()) == 0
    return child.stdout.decode(errors="replace") == expected["stdout"]


def law_checks(reports: list[dict]) -> int:
    return sum(v for r in reports for v in r.get("counts", {}).values() if isinstance(v, int))


# --- workloads ---------------------------------------------------------------


@dataclass
class Run:
    """What one benchmark run measured."""

    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    layers: Counter = field(default_factory=Counter)
    import_s: list[float] = field(default_factory=list)
    untraced_s: float = 0.0
    traced_s: float = 0.0

    def child(self, child: Child) -> Child:
        self.peak_rss_mb = max(self.peak_rss_mb, child.maxrss_mb)
        return child

    def traced(self, child: Child, reports: list[dict], cli_stdout: bool) -> None:
        trace = child.trace()
        self.import_s.append(trace.pop("cli.import_s", 0.0))
        self.layers.update(trace)
        self.layers["oracle.law_checks"] += law_checks(reports)
        self.layers["cli.stdout_bytes"] += len(child.stdout) if cli_stdout else 0
        self.traced_s += child.wall_s

    def reports(self, expected: list[dict], child: Child, got: list[dict]) -> None:
        self.attempted += len(expected)
        if child.exit != 0 or child.crashed:
            self.failed += len(expected)
        else:
            self.failed += report_failures(expected, got)


def kernel_filters(run: Run, ref: dict) -> None:
    """Add the three 3-cube filters, timed alone, to a traced run's kernel rows."""
    expected = ref["kernel-filters"]
    child = run.child(spawn(KERNEL_FILTERS))
    got = json.loads(child.stdout) if child.exit == 0 and not child.crashed else {}
    for pair, homs in expected.items():
        run.attempted += 1
        run.failed += got.get(pair, {}).get("homs") != homs
        run.layers[f"kernels.filter_s.{pair}"] += got.get(pair, {}).get("seconds", 0.0)


def closed_loop(seconds: float, op: Callable[[], None]) -> None:
    """Run op back to back, at least once, while the next one is likely to end in time."""
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        op()
        last = time.monotonic() - t0
        if time.monotonic() - start + last > seconds:
            return


def import_setup(run: Run) -> None:
    """IMPORT_SAMPLES children that start Python and import cubecats.cli.

    The closed-loop workloads call this before their first operation and
    again after their last, so the median of setup_s spans the run, as the
    median operation time does, rather than only its first seconds.
    """
    for _ in range(IMPORT_SAMPLES):
        child = run.child(spawn(IMPORT_CLI))
        if child.exit != 0:
            raise RuntimeError("importing cubecats.cli failed:\n" + child.stderr.decode(errors="replace"))
        run.setup_s.append(child.wall_s)


def verify_d3(seed: int, seconds: float, trace: bool, ref: dict) -> Run:
    """`check --suite all --max-dim 3` in a new process per sample; the seed is unused."""
    run = Run()
    expected = ref["verify-d3"]["reports"]

    def one(argv: list[str]) -> Child:
        child = run.child(spawn(argv))
        run.reports(expected, child, child.lines())
        return child

    if trace:
        run.untraced_s = one(CLI + VERIFY_ARGS).wall_s
        child = one(TRACED_CLI + VERIFY_ARGS)
        run.traced(child, child.lines(), cli_stdout=True)
        kernel_filters(run, ref)
        return run
    import_setup(run)
    closed_loop(seconds, lambda: run.op_s.append(one(CLI + VERIFY_ARGS).wall_s))
    import_setup(run)
    return run


def oracle_warm(seed: int, seconds: float, trace: bool, ref: dict) -> Run:
    """Warm every hom-set in one process, then time repeated in-process oracle passes."""
    run = Run()
    expected = ref["oracle-warm"]["reports"]

    def one(pass_seconds: float, min_passes: int, traced: bool) -> Child:
        argv = ORACLE_CHILD + [str(seed), str(pass_seconds), str(min_passes), str(int(traced))]
        child = run.child(spawn(argv + [repr(time.monotonic())]))
        lines = child.lines()
        passes = [line for line in lines if "pass_s" in line]
        for line in passes:
            run.reports(expected, child, line["reports"])
        if not passes:
            run.reports(expected, child, [])
        run.setup_s += [line["setup_s"] for line in lines if "setup_s" in line]
        run.op_s += [line["pass_s"] for line in passes]
        if traced:
            run.traced(child, [r for line in passes for r in line["reports"]], cli_stdout=False)
        return child

    if trace:
        run.untraced_s = one(0, TRACED_PASSES, False).wall_s
        one(0, TRACED_PASSES, True)
        kernel_filters(run, ref)
        return run
    # Passes are split over several warmed children, which gives several
    # setup samples and spreads the passes over more of the run.
    for _ in range(ORACLE_CHILDREN):
        one(seconds / ORACLE_CHILDREN, 1, False)
    return run


def cli_small(seed: int, seconds: float, trace: bool, ref: dict) -> Run:
    """A seeded sequence of short CLI invocations drawn from MENU."""
    run = Run()
    expected = ref["cli-small"]

    def one(entry: Entry, traced: bool = False) -> float:
        wall = 0.0
        stdin = None
        for argv, want in zip(entry, expected[entry_key(entry)]):
            child = run.child(spawn((TRACED_CLI if traced else CLI) + argv, stdin))
            run.attempted += 1
            run.failed += not invocation_ok(want, child)
            run.op_s.append(child.wall_s)
            wall += child.wall_s
            stdin = child.stdout
            if traced:
                run.traced(child, child.lines(), cli_stdout=True)
        return wall

    if trace:
        # every entry once, so the counts do not depend on the seed
        order = MENU[:]
        random.Random(seed).shuffle(order)
        run.untraced_s = sum(one(entry) for entry in order)
        for entry in order:
            one(entry, traced=True)
        kernel_filters(run, ref)
        return run
    import_setup(run)
    entries = menu_rounds(seed)
    closed_loop(seconds, lambda: one(next(entries)))
    import_setup(run)
    return run


WORKLOADS: dict[str, Callable[[int, float, bool, dict], Run]] = {
    "verify-d3": verify_d3,
    "oracle-warm": oracle_warm,
    "cli-small": cli_small,
}


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, and its value."""
    n = len(samples)
    if n < 11:
        return None
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))  # nearest-rank
    return pct, sorted(samples)[rank - 1]


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0
