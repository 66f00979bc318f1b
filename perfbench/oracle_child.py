"""One oracle-warm process: warm every hom-set, then run timed oracle passes.

Usage: python oracle_child.py SEED PASS_SECONDS MIN_PASSES TRACE SPAWNED_AT

A pass makes the oracle calls of ``cubecats check --suite all
--max-dim 3``, with the ternary sample seed taken from SEED.  Passes
continue while the next is likely to end within PASS_SECONDS, and at
least MIN_PASSES run.  SPAWNED_AT is the parent's ``time.monotonic()``
just before the spawn, so setup_s counts interpreter start, import and
warm-up.  Each pass prints one JSON line with its time and reports.
"""

import gc
import json
import sys
import time

from layers import TRACE_MARK, Tracer

seed = int(sys.argv[1])
pass_seconds = float(sys.argv[2])
min_passes = int(sys.argv[3])
trace = sys.argv[4] == "1"
spawned_at = float(sys.argv[5])

t0 = time.perf_counter()
import cubecats.cli  # noqa: E402,F401  (the CLI's imports, as in the other workloads)
from cubecats import oracle  # noqa: E402

import_s = time.perf_counter() - t0
tracer = Tracer()
if trace:
    tracer.install()

for cat_id in oracle.CATEGORY_IDS:
    view = oracle.category_view(cat_id)
    for m in range(4):
        for n in range(4):
            view.hom(m, n)
print(json.dumps({"setup_s": time.monotonic() - spawned_at}), flush=True)


def one_pass() -> list:
    reports = [
        oracle.check_rec_nonrec(3),
        oracle.check_meet_equals_dim(3),
        oracle.check_bchop_graphmeet_iso(3, 2),
        oracle.check_ternary_iso(3, 2, 20000, seed=seed),
        oracle.check_total_order(3),
        oracle.check_unique_hamiltonian(3),
        oracle.check_unique_surjection(3),
        oracle.check_factorization(3),
        oracle.check_fibre_dimension(3),
    ]
    return reports + oracle.check_all_laws(3, 2)


start = time.monotonic()
done = 0
last = 0.0
while done < min_passes or (done and time.monotonic() - start + last <= pass_seconds):
    gc.collect()  # garbage left by setup or the last pass is not this pass's cost
    t = time.perf_counter()
    reports = one_pass()
    last = time.perf_counter() - t
    done += 1
    print(json.dumps({"pass_s": last, "reports": [r.to_dict(include_elapsed=False) for r in reports]}), flush=True)
if trace:
    print(TRACE_MARK + json.dumps({"cli.import_s": import_s, **tracer.metrics()}), file=sys.stderr)
