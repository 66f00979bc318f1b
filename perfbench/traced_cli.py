"""Run the cubecats CLI with the layer tracer installed.

Usage: python traced_cli.py <cubecats arguments>

Stdout and the exit code are the CLI's own.  The layer metrics go to
stderr as one JSON line after the marker ``PERFBENCH_TRACE``.
"""

import json
import sys
import time

from layers import TRACE_MARK, Tracer

t0 = time.perf_counter()
import cubecats.cli  # noqa: E402

import_s = time.perf_counter() - t0

tracer = Tracer()
tracer.install()
code = 1
try:
    code = cubecats.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
finally:
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps({"cli.import_s": import_s, **tracer.metrics()}), file=sys.stderr)
sys.exit(code)
