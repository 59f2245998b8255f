"""Fresh-process set-up probe.

Reads ``{"workload": ..., "pool": ..., "cold": bool}`` as JSON on standard
input and prints one JSON line of timings:

* ``start``: ``time.perf_counter()`` at the first statement, for the parent
  to compute interpreter start-up on the shared monotonic clock;
* ``import_ms``: importing ``cxlattices`` (``cxlattices.cli`` for the cli
  workload), and with it numpy;
* ``setup_s``: the import plus the workload's set-up and one warm-up call of
  each op kind, without the conversion of the inputs to arrays;
* ``cold_ms`` (when ``cold``): ``sigma_candidates(2, h)`` for h = 1, 2, 3 on an
  empty cache, before anything else fills it.
"""

import time

START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

cfg = json.loads(sys.stdin.read())
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
t0 = time.perf_counter()
importlib.import_module("cxlattices.cli" if cfg["workload"] == "cli" else "cxlattices")
t1 = time.perf_counter()
out = {"start": START, "import_ms": 1e3 * (t1 - t0)}
if cfg["cold"]:
    from cxlattices import sigma_candidates  # noqa: E402

    c0 = time.perf_counter()
    for h in (1, 2, 3):
        sigma_candidates(2, h)
    out["cold_ms"] = 1e3 * (time.perf_counter() - c0)
else:
    import workloads  # noqa: E402

    prepared = workloads.prepare(cfg["workload"], cfg["pool"])
    t2 = time.perf_counter()
    workloads.setup(workloads.Context(cfg["workload"], prepared))
    out["setup_s"] = (t1 - t0) + (time.perf_counter() - t2)
print(json.dumps(out))
