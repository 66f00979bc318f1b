"""Time the three 3-cube hom-set filters alone, with cold caches.

Usage: python kernel_filters.py

Standard 3->3, twisted 3->3 and twisted 3->2: the pairs by which the
kernel layer has been judged.  Each is enumerated once through the
public ``enumerate_graph_homs``, so the timing does not depend on how
the kernel is called.  Prints one JSON object with the seconds and the
number of morphisms per pair.
"""

import json
import time

from cubecats import enumerate_graph_homs, standard_cube, twisted_cube

PAIRS = {
    "standard_3_3": (standard_cube(3), standard_cube(3)),
    "twisted_3_3": (twisted_cube(3), twisted_cube(3)),
    "twisted_3_2": (twisted_cube(3), twisted_cube(2)),
}

out = {}
for name, (src, tgt) in PAIRS.items():
    t0 = time.perf_counter()
    homs = enumerate_graph_homs(src, tgt)
    out[name] = {"seconds": time.perf_counter() - t0, "homs": len(homs)}
print(json.dumps(out))
