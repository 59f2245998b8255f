"""In-memory spans and counters for the traced run, and the per-layer metrics.

A span is ``[name, parent_index, t0, t1, request_id]`` on the monotonic clock
that ``time.perf_counter`` reads (shared with child processes on Linux, so a
child's own timestamps can become spans here).  Spans stay in memory and are
written out once, when the run ends.  A layer's busy time is the self time of
its spans: duration minus the part covered by their child spans.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# name, unit, better, (end-to-end metric it should move, on which workload)
PER_LAYER = (
    ("kernel.singular_values.calls", "count", "higher", "ops_per_s, latency_tail_ms on maps"),
    ("kernel.singular_values.busy_ms", "ms", "lower", "ops_per_s, latency_tail_ms on maps"),
    ("kernel.hermitian_eig.calls", "count", "higher", "ops_per_s, latency_tail_ms on maps"),
    ("kernel.hermitian_eig.busy_ms", "ms", "lower", "ops_per_s, latency_tail_ms on maps"),
    ("kernel.invertibility_margin.boundary_frac", "ratio", "lower", "correct on maps"),
    ("kernel.solve.calls", "count", "higher", "ops_per_s, latency_p50_ms on torus"),
    ("kernel.solve.busy_ms", "ms", "lower", "ops_per_s, latency_p50_ms on torus"),
    ("kernel.det.calls", "count", "higher", "ops_per_s, latency_p50_ms on torus"),
    ("kernel.det.busy_ms", "ms", "lower", "ops_per_s, latency_p50_ms on torus"),
    ("realmaps.convert.calls", "count", "higher", "ops_per_s on maps"),
    ("realmaps.convert.busy_ms", "ms", "lower", "ops_per_s on maps"),
    ("realmaps.apply.calls", "count", "higher", "ops_per_s on maps"),
    ("realmaps.apply.busy_ms", "ms", "lower", "ops_per_s on maps"),
    ("realmaps.is_invertible.calls", "count", "higher", "ops_per_s on maps"),
    ("realmaps.is_invertible.busy_ms", "ms", "lower", "ops_per_s on maps"),
    ("realmaps.majorizes.calls", "count", "higher", "ops_per_s on maps"),
    ("realmaps.majorizes.busy_ms", "ms", "lower", "ops_per_s on maps"),
    ("realmaps.normalize_post_composition.calls", "count", "higher", "ops_per_s on maps"),
    ("realmaps.normalize_post_composition.busy_ms", "ms", "lower", "ops_per_s on maps"),
    ("polar.polar.calls", "count", "higher", "latency_tail_ms on maps"),
    ("polar.polar.busy_ms", "ms", "lower", "latency_tail_ms on maps"),
    ("polar.classify.busy_ms", "ms", "lower", "latency_tail_ms on maps"),
    ("polar.sl_normalize.busy_ms", "ms", "lower", "latency_tail_ms on maps"),
    ("polar.gram.calls", "count", "higher", "latency_p50_ms on equiv"),
    ("polar.gram.busy_ms", "ms", "lower", "latency_p50_ms on equiv"),
    ("dim1.from_ab.busy_ms", "ms", "lower", "latency_p50_ms on maps (n = 1)"),
    ("dim1.is_invertible_1d.busy_ms", "ms", "lower", "latency_p50_ms on maps (n = 1)"),
    ("lattices.from_generators.busy_ms", "ms", "lower", "latency_tail_ms on torus"),
    ("lattices.covolume.busy_ms", "ms", "lower", "latency_tail_ms on torus"),
    ("lattices.normalize_to_Lstarstar.busy_ms", "ms", "lower", "latency_tail_ms on torus"),
    ("lattices.same_lattice.calls", "count", "higher", "latency_tail_ms on torus"),
    ("lattices.same_lattice.busy_ms", "ms", "lower", "latency_tail_ms on torus"),
    ("torus.reduce.calls", "count", "higher", "ops_per_s, latency_p50_ms on torus"),
    ("torus.reduce.busy_ms", "ms", "lower", "ops_per_s, latency_p50_ms on torus"),
    ("torus.torus_add.busy_ms", "ms", "lower", "ops_per_s, latency_p50_ms on torus"),
    ("torus.torus_neg.busy_ms", "ms", "lower", "ops_per_s, latency_p50_ms on torus"),
    ("torus.torus_eq.busy_ms", "ms", "lower", "ops_per_s, latency_p50_ms on torus"),
    ("gaussian.gdet.busy_ms", "ms", "lower", "latency_p50_ms on equiv (Equivalent verdicts)"),
    ("gaussian.gadjugate.busy_ms", "ms", "lower", "latency_p50_ms on equiv (Equivalent verdicts)"),
    ("equivalence.short_vectors.calls", "count", "higher", "latency_p50_ms on equiv"),
    ("equivalence.short_vectors.busy_ms", "ms", "lower", "latency_p50_ms on equiv"),
    ("equivalence.short_vectors.kept", "count", "lower", "latency_p50_ms on equiv"),
    ("equivalence.sigma_candidates.warm_ms", "ms", "lower", "latency_p50_ms, peak_rss_mb on equiv"),
    ("equivalence.sigma_candidates.count", "count", "lower", "latency_p50_ms, peak_rss_mb on equiv"),
    ("equivalence.sigma_candidates.cold_ms", "ms", "lower", "setup_s on equiv; latency_p50_ms on cli"),
    ("equivalence.sigma_orbit_equal.calls", "count", "higher", "ops_per_s, latency_tail_ms on equiv"),
    ("equivalence.sigma_orbit_equal.busy_ms", "ms", "lower", "ops_per_s, latency_tail_ms on equiv"),
    ("equivalence.sigma_orbit_equal.scanned", "count", "lower", "ops_per_s, latency_tail_ms on equiv"),
    ("equivalence.decided_frac", "ratio", "higher", "latency_tail_ms on equiv"),
    ("equivalence.refuted_covolume", "count", "higher", "latency_tail_ms on equiv"),
    ("equivalence.refuted_spectrum", "count", "higher", "latency_tail_ms on equiv"),
    ("equivalence.height_too_large", "count", "lower", "latency_tail_ms on equiv"),
    ("jsonio.loads.busy_ms", "ms", "lower", "latency_p50_ms on cli"),
    ("jsonio.dumps_canonical.busy_ms", "ms", "lower", "latency_p50_ms on cli"),
    ("jsonio.bytes_in", "bytes", "lower", "latency_p50_ms on cli"),
    ("jsonio.bytes_out", "bytes", "lower", "latency_p50_ms on cli"),
    ("cli.interp_start_ms", "ms", "lower", "ops_per_s, latency_p50_ms on cli"),
    ("cli.import_ms", "ms", "lower", "ops_per_s, latency_p50_ms on cli"),
    ("cli.run.busy_ms", "ms", "lower", "ops_per_s, latency_p50_ms on cli"),
    ("cli.process_ms", "ms", "lower", "ops_per_s, latency_p50_ms on cli"),
    ("cli.exit0", "count", "higher", "ops_per_s, correct on cli"),
    ("cli.exit1", "count", "lower", "ops_per_s, correct on cli"),
    ("cli.exit2", "count", "lower", "ops_per_s, correct on cli"),
    ("trace.overhead_frac", "ratio", "lower", "cost of the traced run over the untraced run"),
)

# metrics a workload cannot produce, and why; they are printed as 0
NOT_EXERCISED = {
    "maps": ("torus.", "lattices.", "gaussian.", "equivalence.", "jsonio.", "cli.run", "cli.process",
             "cli.exit", "kernel.det"),
    "torus": ("realmaps.", "polar.", "dim1.", "gaussian.", "equivalence.", "jsonio.", "cli.run",
              "cli.process", "cli.exit", "kernel.singular_values", "kernel.hermitian_eig",
              "kernel.invertibility_margin"),
    "equiv": ("realmaps.", "polar.polar", "polar.sl_normalize", "dim1.", "torus.", "lattices.", "jsonio.",
              "cli.run", "cli.process", "cli.exit", "kernel.singular_values", "kernel.hermitian_eig",
              "kernel.solve", "kernel.invertibility_margin"),
    "cli": ("realmaps.", "polar.", "dim1.", "torus.", "lattices.", "gaussian.", "kernel.",
            "equivalence.short_vectors", "equivalence.sigma_candidates.warm", "equivalence.sigma_candidates.count",
            "equivalence.sigma_orbit_equal", "equivalence.decided", "equivalence.refuted",
            "equivalence.height"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.samples: dict = defaultdict(list)
        self.request = 0
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def add_span(self, name: str, t0: float, t1: float, parent=None) -> None:
        """A span timed elsewhere (a child process), hung under ``parent``."""
        idx = -1 if parent is None else next(i for i in range(len(self.spans) - 1, -1, -1)
                                             if self.spans[i] is parent)
        self.spans.append([name, idx, t0, t1, self.request])

    def count(self, name: str, inc=1) -> None:
        self.counters[name] += int(inc)

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def busy(self) -> dict:
        """name -> (calls, self time in ms)."""
        covered = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict = defaultdict(lambda: [0, 0.0])
        for (name, _, t0, t1, _), cov in zip(self.spans, covered):
            out[name][0] += 1
            out[name][1] += 1e3 * (t1 - t0 - cov)
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, parent, t0, t1, req in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "t0": t0, "t1": t1, "request": req}) + "\n")


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def per_layer(tr: Tracer, process_samples: dict, overhead_frac: float) -> dict:
    """Every PER_LAYER metric from the spans, counters and fresh-process samples."""
    busy = tr.busy()
    c, s = tr.counters, tr.samples
    values = {}
    for name, _, _, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = busy[layer][0] if layer in busy else 0
        elif field == "busy_ms":
            values[name] = busy[layer][1] if layer in busy else 0.0
    margins = busy["kernel.invertibility_margin"][0] if "kernel.invertibility_margin" in busy else 0
    requests = c["equivalence.requests"]
    values.update({
        "kernel.invertibility_margin.boundary_frac": c["kernel.invertibility_margin.boundary"] / margins if margins else 0.0,
        "equivalence.short_vectors.kept": c["equivalence.short_vectors.kept"],
        "equivalence.sigma_candidates.warm_ms": _median(s["equivalence.sigma_candidates.warm_ms"]),
        "equivalence.sigma_candidates.count": _median(s["equivalence.sigma_candidates.count"]),
        "equivalence.sigma_candidates.cold_ms": _median(process_samples.get("cold_ms", [])),
        "equivalence.sigma_orbit_equal.scanned": sum(s["equivalence.sigma_orbit_equal.scanned"]),
        "equivalence.decided_frac": c["equivalence.decided"] / requests if requests else 0.0,
        "equivalence.refuted_covolume": c["equivalence.refuted_covolume"],
        "equivalence.refuted_spectrum": c["equivalence.refuted_spectrum"],
        "equivalence.height_too_large": c["equivalence.height_too_large"],
        "jsonio.bytes_in": c["jsonio.bytes_in"],
        "jsonio.bytes_out": c["jsonio.bytes_out"],
        "cli.interp_start_ms": _median(process_samples.get("interp_start_ms", [])),
        "cli.import_ms": _median(process_samples.get("import_ms", [])),
        "cli.process_ms": _median(process_samples.get("process_ms", [])),
        "cli.exit0": c["cli.exit0"],
        "cli.exit1": c["cli.exit1"],
        "cli.exit2": c["cli.exit2"],
        "trace.overhead_frac": overhead_frac,
    })
    return {name: values[name] for name, _, _, _ in PER_LAYER}


# measured in fresh processes on every workload, whatever the workload exercises
FRESH_PROCESS = ("equivalence.sigma_candidates.cold_ms", "cli.interp_start_ms", "cli.import_ms")


def note(workload: str, name: str) -> str:
    moves = next(m for n, _, _, m in PER_LAYER if n == name)
    if name in FRESH_PROCESS and workload != "cli":
        return "fresh-process probes; should move " + moves
    if name.startswith(NOT_EXERCISED[workload]):
        return "not exercised by this workload"
    return "should move " + moves


def durations_ms(tr: Tracer, name: str) -> list:
    return [1e3 * (t1 - t0) for n, _, t0, t1, _ in tr.spans if n == name]
