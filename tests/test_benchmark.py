"""The names the benchmark calls still resolve: a short traced oracle-warm
run of perfbench/run.py is correct.

That run covers perfbench/oracle_child.py (`view.hom`, `check_all_laws`,
`to_dict(include_elapsed=False)`) and perfbench/kernel_filters.py
(`enumerate_graph_homs`).  perfbench/layers.py skips a traced name it
cannot find, so a name the package no longer has shows up here, not
only as a crash in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_oracle_warm_run_is_correct():
    argv = ["--workload", "oracle-warm", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=300,
    )
    assert proc.stdout, proc.stderr[-2000:]
    last = json.loads(proc.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), proc.stderr[-2000:]
    assert proc.returncode == 0
