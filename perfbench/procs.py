"""Child processes, outcome records and the speed calibration; standard library only.

The cli workload's parent imports nothing heavier than this module before
its timed loop.  A child's peak RSS includes its parent's RSS at the moment of
the fork, so a parent holding numpy would inflate every child's figure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

CHILD_TIMEOUT_S = 60.0
SHIM = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_shim.py")
STAMP_PREFIX = "perfbench-shim-stamps "
CLI = [sys.executable, "-m", "cxlattices.cli"]

# The host's speed drifts by tens of percent within seconds on a shared
# machine.  The benchmark therefore interleaves a fixed task that never touches
# cxlattices with the requests and reports its times scaled to a reference
# speed: value * reference / (the task's local median time).  The cli workload
# times one ``python -c "import numpy"`` process, which tracks the cost of a
# cxlat process (start-up, imports, page faults) far better than in-process
# work does; the in-process workloads time a short pure-Python loop.  The
# references are roughly the tasks' times on the machine the benchmark was
# written on, so scaled and raw figures are of the same size.
CALIBRATION_REF_MS = {"process": 150.0, "loop": 2.5}
CALIBRATION_EVERY_S = {"process": 2.0, "loop": 0.25}


class Outcome:
    """What one request returned or raised."""

    __slots__ = ("value", "error", "crash")

    def __init__(self, value=None, error=None, crash=None):
        self.value, self.error, self.crash = value, error, crash


def spawn(argv, text: str, env, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one child process to completion; on timeout kill it and wait."""
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    try:
        out, err = proc.communicate(text, timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    return {"exit": proc.returncode, "stdout": out, "stderr": err, "timed_out": timed_out}


def run_cli(q, env) -> Outcome:
    return Outcome(value=spawn(CLI + q["argv"], q["input"], env))


def split_shim_stamps(stderr: str):
    """Separate the shim's timing line from the child's own standard error."""
    kept, stamps = [], None
    for line in stderr.splitlines(keepends=True):
        if line.startswith(STAMP_PREFIX):
            stamps = json.loads(line[len(STAMP_PREFIX):])
        else:
            kept.append(line)
    return "".join(kept), stamps


def calibrate_process(env) -> float:
    """Milliseconds of one ``python -c "import numpy"`` process."""
    t0 = time.perf_counter()
    spawn([sys.executable, "-c", "import numpy"], "", env)
    return 1e3 * (time.perf_counter() - t0)


def calibrate_loop() -> float:
    """Milliseconds of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for k in range(18000):
        acc = (acc * 31 + k) % 1000003
        table[k & 255] = acc
    return 1e3 * (time.perf_counter() - t0)
