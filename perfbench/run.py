#!/usr/bin/env python3
"""Benchmark of cxlattices: four closed-loop workloads, checked, optionally traced.

    python3 perfbench/run.py --workload maps --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.  One
client sends each request only after the previous one returned (a closed
loop, as every caller of the library or of ``cxlat`` waits for its reply).
BLAS and OpenMP threads are pinned to 1.  Inputs come from ``--seed`` alone.

Times in the end-to-end metrics are scaled to a reference machine speed by a
calibration task interleaved with the requests (see ``procs.py``); the raw
figures are printed beside them.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, whose spans
go to ``.perfbench/spans-<workload>-<seed>.jsonl``.  Earlier lines give the
machine record, each metric with its unit and sample count, and the
failures by kind.  ``--workload all`` runs the four workloads one after
another, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import procs  # standard library only; the script's directory is first on sys.path

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("maps", "torus", "equiv", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Tail percentile per workload: the highest of p90 / p99 / p99.9 that keeps at
# least 10 samples beyond it at half the request count measured when the
# benchmark was written.  It is fixed so that a faster or slower program is
# compared on the same percentile.
TAIL_PERCENTILE = {"maps": 99.0, "torus": 99.0, "equiv": 90.0, "cli": 90.0}
SETUP_PROBES = 5
COLD_PROBES = 3
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_record(np) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def timed_loop(run_request, reqs, seconds: float, calibrate, every: float, tracer=None, root=""):
    """Closed loop over the cycled pool for ``seconds``; keeps the first pass's outcomes.

    Every ``every`` seconds the loop pauses for one calibration task; the
    pauses are left out of the measured times.  Each request records its
    latency, the wall time since the previous request ended, and the index of
    the calibration before it.
    """
    outcomes = [None] * len(reqs)
    latencies, elapsed, segment, calibration = [], [], [], []
    prev_end = time.perf_counter()
    deadline, next_cal = prev_end + seconds, prev_end
    i = 0
    while True:
        t0 = time.perf_counter()
        if t0 >= deadline:
            break
        if t0 >= next_cal:
            calibration.append(calibrate())
            shift = time.perf_counter() - t0
            deadline, t0, prev_end = deadline + shift, t0 + shift, prev_end + shift
            next_cal = t0 + every
        q = reqs[i % len(reqs)]
        if tracer is None:
            out = run_request(q)
        else:
            tracer.request = i
            with tracer.span(root):
                out = run_request(q)
        end = time.perf_counter()
        latencies.append(end - t0)
        elapsed.append(end - prev_end)
        segment.append(len(calibration) - 1)
        prev_end = end
        if i < len(reqs):
            outcomes[i] = out
        i += 1
    return latencies, elapsed, segment, calibration, outcomes


def speed_factors(calibration, reference: float) -> list:
    """Per segment, the reference time over the median of the five calibrations around it."""
    return [reference / statistics.median(calibration[max(0, s - 2): s + 3]) for s in range(len(calibration))]


def replay(run_request, reqs, count: int) -> float:
    """Wall time of the first ``count`` requests, untraced."""
    start = time.perf_counter()
    for i in range(count):
        run_request(reqs[i % len(reqs)])
    return time.perf_counter() - start


def probes(workload: str, pool, env, cold: bool) -> dict:
    """Fresh-process set-ups, each between two process calibrations
    (and, when traced, cold candidate generations)."""
    import workloads

    reqs = pool["requests"] if workload == "torus" else pool
    warm = [reqs[i] for i in workloads.warm_keys(workload, reqs)]
    small = {"lattices": pool["lattices"], "requests": warm} if workload == "torus" else warm
    samples = {"setup_s": [], "import_ms": [], "interp_start_ms": [], "cold_ms": [], "calibration_ms": []}
    jobs = [False] * SETUP_PROBES + [True] * (COLD_PROBES if cold else 0)
    after = procs.calibrate_process(env)
    for is_cold in jobs:
        text = json.dumps({"workload": workload, "pool": small, "cold": is_cold})
        before = after
        spawned = time.perf_counter()
        res = procs.spawn([sys.executable, os.path.join(HERE, "probe.py")], text, env)
        after = procs.calibrate_process(env)
        if res["exit"] != 0 or res["timed_out"]:
            raise RuntimeError(f"set-up probe failed (exit {res['exit']}): {res['stderr'][-2000:]}")
        got = json.loads(res["stdout"].strip().splitlines()[-1])
        samples["interp_start_ms"].append(1e3 * (got["start"] - spawned))
        samples["import_ms"].append(got["import_ms"])
        if is_cold:
            samples["cold_ms"].append(got["cold_ms"])
        else:
            samples["setup_s"].append(got["setup_s"])
            samples["calibration_ms"].append(0.5 * (before + after))
    return samples


def tail(latencies, percentile: float):
    xs = sorted(latencies)
    k = max(0, min(len(xs) - 1, math.ceil(percentile / 100.0 * len(xs)) - 1))
    return xs[k], len(xs) - k - 1


def check_all(workload, prepared, reqs, outcomes, done: int):
    """(failures weighted by how often each pool entry ran, kinds -> count)."""
    import check

    failed, kinds = 0, {}
    for i, out in enumerate(outcomes[: min(done, len(reqs))]):
        q = reqs[i]
        if workload == "maps":
            bad = check.check_maps(q, out)
        elif workload == "torus":
            bad = check.check_torus(q, prepared["lattices"], out)
        elif workload == "equiv":
            bad = check.check_equiv(q, out)
        elif out.crash:
            bad = ["cli.crash:" + out.crash]
        else:
            bad = check.check_cli(q, out.value, check.run_in_process(q["argv"], q["input"]))
        runs = (done - i - 1) // len(reqs) + 1
        if bad:
            failed += runs
        for k in bad:
            kinds[k] = kinds.get(k, 0) + runs
    return failed, kinds


def run_one(args) -> int:
    import inputs

    w = args.workload
    env = dict(os.environ)
    pool = inputs.pool_for(w, args.seed)
    tr = None
    if w == "cli" and not args.trace:
        # keep the parent free of numpy while children run (see procs.py)
        reqs = pool
        run_request = lambda q: procs.run_cli(q, env)  # noqa: E731
    else:
        import spans
        import workloads

        prepared = workloads.prepare(w, pool)
        reqs = workloads.requests_of(w, prepared)
        ctx = workloads.Context(w, prepared, env=env)
        workloads.setup(ctx)
        tr = ctx.tracer = spans.Tracer() if args.trace else None
        run_request = lambda q: workloads.execute(ctx, q)  # noqa: E731
    if w == "cli":
        # one untimed process first, so compiled bytecode exists before timing
        procs.run_cli(next(q for q in reqs if q["tag"] == "valid"), env)
    kind = "process" if w == "cli" else "loop"
    calibrate = (lambda: procs.calibrate_process(env)) if w == "cli" else procs.calibrate_loop
    latencies, elapsed, segment, calibration, outcomes = timed_loop(
        run_request, reqs, args.seconds, calibrate, procs.CALIBRATION_EVERY_S[kind], tr, w + ".request")
    wall = sum(elapsed)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if w == "cli" else resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024.0
    done = len(latencies)

    import numpy as np

    import check
    import cxlattices
    import spans

    if not os.path.abspath(cxlattices.__file__).startswith(SRC + os.sep):
        print(f"perfbench: cxlattices imported from {cxlattices.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    overhead = None
    if tr is not None:
        ctx.tracer = None
        overhead = wall / replay(run_request, reqs, done) - 1.0
    samples = probes(w, pool, env, cold=bool(args.trace))
    failed, kinds = check_all(w, pool if w == "cli" else prepared, reqs, outcomes, done)
    correct = not kinds

    print(f"perfbench workload={w} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine_record(np)))
    print(f"load closed loop, 1 client; pool of {len(reqs)} requests cycled; {done} requests in {wall:.3f} s")
    if w == "torus":
        first_use = {q["lat"] for q in reqs[:done]}
        print(f"lattice reuse: {(done - len(first_use)) / done:.4f} of requests reuse an earlier lattice "
              f"({len(prepared['lattices'])} lattices)")
    factors = speed_factors(calibration, procs.CALIBRATION_REF_MS[kind])
    scaled = [lat * factors[seg] for lat, seg in zip(latencies, segment)]
    scaled_wall = sum(e * factors[seg] for e, seg in zip(elapsed, segment))
    scaled_setup = [s * procs.CALIBRATION_REF_MS["process"] / c
                    for s, c in zip(samples["setup_s"], samples["calibration_ms"])]
    cal_q = statistics.quantiles(calibration, n=4) if len(calibration) > 1 else calibration * 3
    print(f"calibration: {len(calibration)} loop samples, quartiles {[round(c, 3) for c in cal_q]} ms; "
          f"set-up {[round(c, 1) for c in samples['calibration_ms']]} ms; times below are scaled to "
          f"calibration times of {procs.CALIBRATION_REF_MS[kind]:g} ms (loop) and "
          f"{procs.CALIBRATION_REF_MS['process']:g} ms (set-up)")
    print(f"failed_frac {failed / done:.6f} ({failed} of {done} attempted)")
    for k, c in sorted(kinds.items()):
        print(f"  failure {k}: {c}")

    if tr is None:
        value, beyond = tail(scaled, TAIL_PERCENTILE[w])
        raw = {
            "setup_s": statistics.median(samples["setup_s"]),
            "ops_per_s": done / wall,
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * tail(latencies, TAIL_PERCENTILE[w])[0],
        }
        metrics = {
            "setup_s": statistics.median(scaled_setup),
            "ops_per_s": done / scaled_wall,
            "latency_p50_ms": 1e3 * statistics.median(scaled),
            "latency_tail_ms": 1e3 * value,
            "peak_rss_mb": peak_rss_mb,
        }
        counts = {"setup_s": f"{len(samples['setup_s'])} fresh-process set-ups",
                  "ops_per_s": f"{done} requests", "latency_p50_ms": f"{done} requests",
                  "latency_tail_ms": f"p{TAIL_PERCENTILE[w]:g}, {done} requests, {beyond} beyond",
                  "peak_rss_mb": "1 " + ("child max" if w == "cli" else "process")}
        units = END_TO_END_UNITS
        for name, v in metrics.items():
            extra = f"; raw {raw[name]:.6g}" if name in raw else ""
            print(f"metric {name} = {v:.6g} {units[name]} ({counts[name]}{extra})")
    else:
        process_samples = {"cold_ms": samples["cold_ms"]}
        if w == "cli":
            process_samples.update(interp_start_ms=spans.durations_ms(tr, "cli.interp_start"),
                                   import_ms=spans.durations_ms(tr, "cli.import"),
                                   process_ms=spans.durations_ms(tr, "cli.process"))
        else:
            process_samples.update(interp_start_ms=samples["interp_start_ms"], import_ms=samples["import_ms"])
        metrics = spans.per_layer(tr, process_samples, overhead)
        units = {name: unit for name, unit, _, _ in spans.PER_LAYER}
        for name, v in metrics.items():
            print(f"metric {name} = {v:.6g} {units[name]} ({spans.note(w, name)})")
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        tr.write(os.path.join(ROOT, ".perfbench", f"spans-{w}-{args.seed}.jsonl"),
                 {"workload": w, "seed": args.seed, "machine": machine_record(np)})
    print(json.dumps({"correct": correct, "attempted": done, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cxlattices", "__init__.py")):
        print(f"perfbench: no cxlattices package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for w in WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status = status or subprocess.run(cmd).returncode
        return status
    # one CPU for the benchmark and its children: a process that migrates between
    # vCPUs of different speed on a shared host times neither of them steadily
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, SRC)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
