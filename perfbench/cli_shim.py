"""Run one ``cxlat`` command exactly as ``python -m cxlattices.cli`` would, with timestamps.

Used only by the traced run: it appends one line to standard error holding
``time.perf_counter()`` at interpreter start, after the import of
``cxlattices.cli`` and after ``cli.run``, so the parent can split a process
into interpreter start, import and run.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

STAMP_PREFIX = "perfbench-shim-stamps "

stamps = {"start": START}
try:
    from cxlattices import cli

    stamps["imported"] = time.perf_counter()
    code = cli.run(sys.argv[1:])
finally:
    stamps.setdefault("imported", time.perf_counter())
    stamps["ran"] = time.perf_counter()
    sys.stdout.flush()
    sys.stderr.write(STAMP_PREFIX + json.dumps(stamps) + "\n")
sys.exit(code)
