"""Requests of the four workloads, run through the public API.

``prepare`` turns a pool of JSON-shaped inputs into numpy arrays (input
preparation, never timed).  ``setup`` builds what a workload keeps between
requests and makes one warm-up call of each op kind; it is what ``setup_s``
times.  ``run`` executes one request and returns its result.

With a tracer, a request also runs its attribution calls: the public calls
that make up the request, applied to the same inputs, each in a child span
named ``module.function``.  The kernel primitives, for instance, are timed on
a maps request's matrix and on its realification.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time

import numpy as np

import cxlattices as cx
from cxlattices import cli, jsonio
from cxlattices.equivalence import DEFAULT_BUDGET, DEFAULT_RADIUS
from cxlattices.errors import CxlatError
from cxlattices.gaussian import gadjugate, gdet

import procs
from inputs import MATRIX_OPS
from procs import Outcome

TOL_REL = cx.DEFAULT_TOL.rel
GRAY = 10.0  # a margin within this factor of its threshold is a boundary case

_FORMS = {"block": cx.BlockForm, "split": cx.SplitForm,
          "conjugate_pair": cx.ConjugatePairForm, "normalized": cx.NormalizedForm}
_FIELDS = {"block": ("e1", "e2", "e3", "e4"), "split": ("a", "b"),
           "conjugate_pair": ("m", "n"), "normalized": ("e",)}


def arr(m) -> np.ndarray:
    a = np.array(m, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def realified(a: np.ndarray) -> np.ndarray:
    """Real 2n x 2n matrix of z -> A z on (x, y) coordinates."""
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


def map_eval(kind: str, mats, z: np.ndarray) -> np.ndarray:
    """Evaluate a real-linear map from its defining formula (independent of the library)."""
    x, y = z.real, z.imag
    if kind == "block":
        e1, e2, e3, e4 = (m.real for m in mats)
        return e1 @ x + e2 @ y + 1j * (e3 @ x + e4 @ y)
    if kind == "split":
        a, b = (m.real for m in mats)
        return x + a @ y + 1j * (b @ y)
    if kind == "conjugate_pair":
        m, n = mats
        return m @ z + np.conj(n @ z)
    (e,) = mats
    return z + np.conj(e @ z)


def map_realify(kind: str, mats) -> np.ndarray:
    n = mats[0].shape[0]
    w = map_eval(kind, mats, np.hstack([np.eye(n), 1j * np.eye(n)]))
    return np.vstack([w.real, w.imag])


def complex_part(r: np.ndarray) -> np.ndarray:
    """M of T(z) = M z + conj(N z), read off the realification."""
    n = r.shape[0] // 2
    return 0.5 * ((r[:n, :n] + r[n:, n:]) + 1j * (r[n:, :n] - r[:n, n:]))


def conjugate_part(r: np.ndarray) -> np.ndarray:
    n = r.shape[0] // 2
    return 0.5 * ((r[:n, :n] - r[n:, n:]) - 1j * (r[:n, n:] + r[n:, :n]))


# --- preparation ---------------------------------------------------------------


def prepare(workload: str, pool):
    if workload == "maps":
        out = []
        for q in pool:
            p = dict(q)
            if "matrix" in q:
                p["A"] = arr(q["matrix"])
                p["X"] = (p["A"], realified(p["A"]))
            elif "map" in q:
                kind = q["map"]["kind"]
                p["kind"] = kind
                p["mats"] = tuple(arr(q["map"][f]) for f in _FIELDS[kind])
                p["R"] = map_realify(kind, p["mats"])
                p["X"] = (complex_part(p["R"]), p["R"])
                if "z" in q:
                    p["zv"] = arr(q["z"])
            else:
                p["ac"], p["bc"] = complex(*q["a"]), complex(*q["b"])
                p["X"] = (np.array([[p["ac"].real, -p["bc"].imag], [p["ac"].imag, p["bc"].real]]),)
            out.append(p)
        return out
    if workload == "torus":
        lats = []
        for lat in pool["lattices"]:
            g, g2 = (jsonio.lattice_raw_in(lat[k]) for k in ("g", "g2"))
            lats.append({"n": lat["n"], "G": g, "G2": g2,
                         "R": np.vstack([g.real, g.imag]), "R2": np.vstack([g2.real, g2.imag])})
        out = []
        for q in pool["requests"]:
            p = dict(q)
            for k in ("z", "z1", "z2", "w"):
                if k in q:
                    p[k + "v"] = arr(q[k])
            out.append(p)
        return {"lattices": lats, "requests": out}
    if workload == "equiv":
        return [dict(q, m1=arr(q["a1"]), m2=arr(q["a2"])) for q in pool]
    return [dict(q) for q in pool]


def requests_of(workload: str, prepared) -> list:
    return prepared["requests"] if workload == "torus" else prepared


def warm_keys(workload: str, reqs) -> list:
    """Indices of the set-up's warm-up calls: the first request of each op kind.

    Only small, well-conditioned requests qualify, so every seed warms up with
    the same amount of work.
    """
    key, small = {
        "maps": (lambda q: q["op"], lambda q: q["cls"] == "well" and q["n"] == (1 if q["op"] == "dim1" else 2)),
        "torus": (lambda q: q["op"], lambda q: q["n"] == 2),
        "equiv": (lambda q: q["kind"], lambda q: q["h"] == 1),
        "cli": (lambda q: q["argv"][0], lambda q: q["tag"] == "valid" and q["n"] == 2),
    }[workload]
    seen, out = set(), []
    for i, q in enumerate(reqs):
        if small(q) and key(q) not in seen:
            seen.add(key(q))
            out.append(i)
    return out


# --- set-up --------------------------------------------------------------------


class Context:
    """What a workload keeps between requests."""

    def __init__(self, workload: str, prepared, env=None):
        self.workload = workload
        self.prepared = prepared
        self.env = env
        self.tracer = None
        self.lattices = []


def setup(ctx: Context) -> None:
    """Build the workload's long-lived state, then warm up each op kind once."""
    if ctx.workload == "torus":
        for lat in ctx.prepared["lattices"]:
            ctx.lattices.append((cx.from_generators(lat["G"]), cx.from_generators(lat["G2"])))
    if ctx.workload == "equiv":
        for h in (1, 2, 3):
            cx.sigma_candidates(2, h)
    reqs = requests_of(ctx.workload, ctx.prepared)
    for i in warm_keys(ctx.workload, reqs):
        if ctx.workload == "cli":
            q = reqs[i]
            with contextlib.redirect_stderr(io.StringIO()):
                cli.run(q["argv"], io.StringIO(q["input"]), io.StringIO())
        else:
            try:
                run(ctx, reqs[i])
            except CxlatError:
                pass


# --- requests ------------------------------------------------------------------


def _call(tr, name, fn, *args, **kw):
    if tr is None:
        return fn(*args, **kw)
    with tr.span(name):
        return fn(*args, **kw)


def _attr(tr, name, fn, *args, **kw):
    """An attribution call: domain errors are expected on singular inputs."""
    try:
        return _call(tr, name, fn, *args, **kw)
    except CxlatError:
        return None


def _kernel_attribution(tr, x: np.ndarray) -> None:
    ok_margin = _attr(tr, "kernel.invertibility_margin", cx.invertibility_margin, x)
    if ok_margin is not None:
        margin = ok_margin[1]
        tr.count("kernel.invertibility_margin.boundary", TOL_REL / GRAY <= margin <= TOL_REL * GRAY)
    _attr(tr, "kernel.singular_values", cx.singular_values, x)
    h = x.conj().T @ x
    _attr(tr, "kernel.hermitian_eig", cx.hermitian_eig, 0.5 * (h + h.conj().T))
    _attr(tr, "kernel.solve", cx.solve, x, np.ones(x.shape[0], dtype=complex))


def _maps(ctx, q):
    tr = ctx.tracer
    if tr is not None:
        for x in q["X"]:
            _kernel_attribution(tr, x)
    op = q["op"]
    if op == "dim1":
        f = _call(tr, "dim1.from_ab", cx.from_ab, q["ac"], q["bc"])
        return f, _call(tr, "dim1.is_invertible_1d", cx.is_invertible_1d, f)
    if op in MATRIX_OPS:
        return _call(tr, "polar." + op, getattr(cx, op), q["A"])
    t = _FORMS[q["kind"]](*(m.real if q["kind"] in ("block", "split") else m for m in q["mats"]))
    if op == "convert":
        return _call(tr, "realmaps.convert", cx.convert, t, q["to"])
    if op == "apply":
        return _call(tr, "realmaps.apply", cx.apply, t, q["zv"])
    if op == "is_invertible":
        return _call(tr, "realmaps.is_invertible", cx.is_invertible, t)
    if op == "majorizes":
        return _call(tr, "realmaps.majorizes", cx.majorizes, t)
    g, normal = _call(tr, "realmaps.normalize_post_composition", cx.normalize_post_composition, t)
    return g, normal, _call(tr, "realmaps.contraction_check", cx.contraction_check, normal)


def _torus(ctx, q):
    tr = ctx.tracer
    lat, lat2 = ctx.lattices[q["lat"]]
    geo = ctx.prepared["lattices"][q["lat"]]
    op = q["op"]
    if tr is not None:
        def solve_for(r, z):
            _attr(tr, "kernel.solve", cx.solve, r, np.concatenate([z.real, z.imag])[:, None])
        if op == "lattice":
            _attr(tr, "kernel.det", cx.det, geo["R"])
            _attr(tr, "kernel.solve", cx.solve, geo["R"], geo["R2"])
        else:
            for k in ("zv", "z1v", "z2v", "wv"):
                if k in q:
                    solve_for(geo["R2"] if (k == "wv" and q["cross"]) else geo["R"], q[k])
        if op == "eq" and q["cross"]:
            _attr(tr, "lattices.same_lattice", cx.same_lattice, lat, lat2)
    reduce = lambda basis, z: _call(tr, "torus.reduce", cx.reduce, basis, z)
    if op == "reduce":
        return reduce(lat, q["zv"])
    if op == "add":
        return _call(tr, "torus.torus_add", cx.torus_add, reduce(lat, q["z1v"]), reduce(lat, q["z2v"]))
    if op == "neg":
        return _call(tr, "torus.torus_neg", cx.torus_neg, reduce(lat, q["zv"]))
    if op == "eq":
        p = reduce(lat, q["zv"])
        other = reduce(lat2 if q["cross"] else lat, q["wv"])
        return _call(tr, "torus.torus_eq", cx.torus_eq, p, other)
    fresh = _call(tr, "lattices.from_generators", cx.from_generators, geo["G"])
    cov = _call(tr, "lattices.covolume", cx.covolume, fresh)
    same = _call(tr, "lattices.same_lattice", cx.same_lattice, fresh, lat2)
    permuted, perm = _call(tr, "lattices.permute_to_L1", cx.permute_to_L1, fresh)
    a, pm = _call(tr, "lattices.normalize_to_Lstarstar", cx.normalize_to_Lstarstar, permuted)
    return cov, same, perm, a, pm.z


def _equiv(ctx, q):
    tr = ctx.tracer
    budget = q["budget"] or DEFAULT_BUDGET
    try:
        verdict = _call(tr, "equivalence.lattice_equivalent", cx.lattice_equivalent, q["m1"], q["m2"],
                        mode=q["mode"], height=q["h"], budget=budget)
    except CxlatError as exc:
        if tr is not None:
            _equiv_attribution(tr, q, budget, None, exc)
        raise
    if tr is not None:
        _equiv_attribution(tr, q, budget, verdict, None)
    return verdict


def _equiv_attribution(tr, q, budget, verdict, exc) -> None:
    """Re-run the public stages the pipeline reached, on the same pair."""
    m1, m2, n = q["m1"], q["m2"], q["n"]
    tr.count("equivalence.requests")
    if isinstance(exc, cx.HeightTooLarge):
        tr.count("equivalence.height_too_large")
    refuter = verdict.refuter[0] if verdict is not None and verdict.refuter else None
    if verdict is not None and verdict.status != "UndecidedUpToBound":
        tr.count("equivalence.decided")
    if q["mode"] == "special_unitary":
        _attr(tr, "polar.classify", cx.classify, m1)
        _attr(tr, "polar.classify", cx.classify, m2)
    p1 = _attr(tr, "polar.gram", cx.gram, m1)
    p2 = _attr(tr, "polar.gram", cx.gram, m2)
    _attr(tr, "kernel.det", cx.det, m1)
    _attr(tr, "kernel.det", cx.det, m2)
    if refuter == "covolume":
        tr.count("equivalence.refuted_covolume")
        return
    if n > 3:
        return
    for m in (m1, m2):
        sv = _attr(tr, "equivalence.short_vectors", cx.short_vectors, m, DEFAULT_RADIUS, limit=budget)
        if sv is not None:
            tr.count("equivalence.short_vectors.kept", len(sv.norms))
    if refuter is not None:
        tr.count("equivalence.refuted_spectrum")
        return
    t0 = time.perf_counter()
    cands = _attr(tr, "equivalence.sigma_candidates", cx.sigma_candidates, n, q["h"], budget)
    if cands is not None:
        tr.sample("equivalence.sigma_candidates.warm_ms", 1e3 * (time.perf_counter() - t0))
        tr.sample("equivalence.sigma_candidates.count", len(cands))
    if p1 is None or p2 is None:
        return
    found = _attr(tr, "equivalence.sigma_orbit_equal", cx.sigma_orbit_equal, p1, p2, q["h"], budget=budget)
    if found is not None and cands is not None:
        hit = found.witness[1].entries if found.witness else None
        tr.sample("equivalence.sigma_orbit_equal.scanned", cands.index(hit) + 1 if hit else len(cands))
    if verdict is not None and verdict.witness is not None:
        entries = verdict.witness[1].entries
        _attr(tr, "gaussian.gdet", gdet, entries)
        _attr(tr, "gaussian.gadjugate", gadjugate, entries)


def _cli(ctx, q):
    tr = ctx.tracer
    if tr is None:
        return procs.spawn(procs.CLI + q["argv"], q["input"], ctx.env)
    with tr.span("cli.process") as rec:
        res = procs.spawn([sys.executable, procs.SHIM, *q["argv"]], q["input"], ctx.env)
    res["stderr"], stamps = procs.split_shim_stamps(res["stderr"])
    if stamps:
        # child-side phases, on the shared monotonic clock, become child spans
        tr.add_span("cli.interp_start", rec[2], stamps["start"], parent=rec)
        tr.add_span("cli.import", stamps["start"], stamps["imported"], parent=rec)
        tr.add_span("cli.run", stamps["imported"], stamps["ran"], parent=rec)
    tr.count("cli.exit%d" % res["exit"] if res["exit"] in (0, 1, 2) else "cli.exit_other")
    tr.count("jsonio.bytes_in", len(q["input"].encode()))
    tr.count("jsonio.bytes_out", len(res["stdout"].encode()))
    try:
        _call(tr, "jsonio.loads", jsonio.loads, q["input"])
    except jsonio.MalformedInput:
        pass
    try:
        obj = jsonio.loads(res["stdout"])
    except jsonio.MalformedInput:
        obj = None
    if obj is not None:
        _call(tr, "jsonio.dumps_canonical", jsonio.dumps_canonical, obj)
    return res


RUNNERS = {"maps": _maps, "torus": _torus, "equiv": _equiv, "cli": _cli}


def run(ctx: Context, q):
    return RUNNERS[ctx.workload](ctx, q)


def execute(ctx: Context, q) -> Outcome:
    try:
        return Outcome(value=run(ctx, q))
    except CxlatError as exc:
        return Outcome(error=type(exc).__name__)
    except Exception as exc:  # noqa: BLE001 - a crash is an outcome to count, not to stop on
        return Outcome(crash=type(exc).__name__)
