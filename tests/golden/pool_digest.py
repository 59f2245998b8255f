"""Print a SHA-256 over the library's outputs on the perfbench request pools.

    python tests/golden/pool_digest.py                          # the standard set, below
    python tests/golden/pool_digest.py --equiv 5 911 --maps 1   # chosen workloads and seeds
    python tests/golden/pool_digest.py --against ../parent      # both trees, compared

For each (workload, seed) the pool is built by ``perfbench/inputs.py`` and
every request runs once through ``perfbench/workloads.py``, exactly as the
benchmark runs it, untraced.  Everything a request returns goes into the
digest: verdicts, witnesses, the dtype, shape and bytes of every array, and
the name of the domain error a request raises.  One line per pool gives the
request count and the digest, so two checkouts agree bit for bit on a pool
exactly when their lines agree.  The script imports the package from the
``src/`` and the benchmark from the ``perfbench/`` next to it, and never
writes to either.  With ``--against DIR`` it also runs itself, in a
subprocess, on DIR's ``src/`` and ``perfbench/`` (another checkout), prints
both lines of each pool, marks the pools whose lines differ, and exits 1 if
any does.

Compare lines from one host and one BLAS kernel.  Array bytes that come from
LAPACK or BLAS (SVDs, solves, determinants) round differently under each
OpenBLAS kernel (the one the CPU selects, or OPENBLAS_CORETYPE names), so two
checkouts agree only when both ran on the same machine under the same kernel.
"""

import argparse
import dataclasses
import hashlib
import pathlib
import struct
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from cxlattices.errors import CxlatError  # noqa: E402

STANDARD = {"equiv": (1, 2, 3, 4, 5, 7, 911), "torus": (1, 2, 3, 4), "maps": (1, 2)}


def _feed(h, obj) -> None:
    """Hash obj by its value: container structure, dataclass fields, numbers by their bits."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None or isinstance(obj, (bool, int, str)):
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, float):
        h.update(b"f" + struct.pack("<d", obj))
    elif isinstance(obj, complex):
        h.update(b"c" + struct.pack("<dd", obj.real, obj.imag))
    elif isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape};".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(f"t{len(obj)};".encode())
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj):
        h.update(f"d{type(obj).__name__};".encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    else:
        raise TypeError(f"no digest for {type(obj).__name__}")


def pool_digest(workload: str, seed: int) -> tuple[int, str]:
    """(requests, hex digest) for one workload's pool at one seed."""
    ctx = workloads.Context(workload, workloads.prepare(workload, inputs.pool_for(workload, seed)))
    workloads.setup(ctx)
    reqs = workloads.requests_of(workload, ctx.prepared)
    h = hashlib.sha256()
    for q in reqs:
        try:
            _feed(h, workloads.run(ctx, q))
        except CxlatError as exc:
            h.update(f"error:{type(exc).__name__};".encode())
    return len(reqs), h.hexdigest()


# the child of --against: this script, run as if it sat in the other tree
_AGAINST = (
    "import sys; code, sys.argv = sys.argv[1], sys.argv[2:]; "
    "exec(compile(open(code).read(), code, 'exec'), {'__name__': '__main__', '__file__': sys.argv[0]})"
)


def _lines_against(root: pathlib.Path, argv: list) -> list:
    """This script's output lines, run in a subprocess on root's src/ and perfbench/."""
    script = root / "tests" / "golden" / "pool_digest.py"
    cmd = [sys.executable, "-c", _AGAINST, __file__, str(script), *argv]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for workload in STANDARD:
        parser.add_argument(f"--{workload}", type=int, nargs="+", metavar="SEED")
    parser.add_argument("--against", type=pathlib.Path, metavar="DIR",
                        help="compare with the same digests on DIR's src/ and perfbench/")
    args = parser.parse_args(argv)
    chosen = {w: getattr(args, w) for w in STANDARD if getattr(args, w)}
    pools = [(w, seed) for w, seeds in (chosen or STANDARD).items() for seed in seeds]
    selection = [a for w, seeds in chosen.items() for a in (f"--{w}", *map(str, seeds))]
    there = _lines_against(args.against.resolve(), selection) if args.against else None
    differ = 0
    for i, (workload, seed) in enumerate(pools):
        count, digest = pool_digest(workload, seed)
        line = f"{workload} seed {seed}: {count} requests {digest}"
        print(line, flush=True)
        if there is not None:
            same = there[i] == line
            differ += not same
            print(f"{there[i]} ({args.against}){'' if same else '  DIFFERS'}", flush=True)
    if differ:
        raise SystemExit(f"{differ} of {len(pools)} pools differ")


if __name__ == "__main__":
    main()
