"""Independent checks of every outcome, run after the timed region.

The references are ``numpy.linalg`` (singular values, determinants, solves)
for margins, polar factors and lattice coordinates, and exact integer
arithmetic (``fractions.Fraction`` and Gaussian-integer pairs) for
witnesses.  None of it calls the library except ``cli.run`` for the
byte-identity check of the command line.

A check returns a list of failure kinds; an empty list is a pass.  A kind
reads ``<workload>.<op>.<what>[<input class>]``.  An expected domain error
(``SingularMatrix`` on a singular input, ``HeightTooLarge`` under a small
budget) is a pass.  Margins inside the boundary band (a factor GRAY either
side of the threshold) accept either verdict.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np

from inputs import EQUIVALENT_BY_CONSTRUCTION, EXPECTED
from procs import Outcome
from workloads import (
    GRAY,
    TOL_REL,
    _FIELDS,
    complex_part,
    conjugate_part,
    map_eval,
    realified,
)

TRACEBACK = "Traceback (most recent call last)"

def fro(a) -> float:
    return float(np.linalg.norm(a))


def margin(x) -> float:
    s = np.linalg.svd(np.asarray(x), compute_uv=False)
    return float(s[-1] / s[0]) if s[0] > 0 else 0.0


def decisive(value: float, threshold: float):
    """True / False when value is clearly above / below threshold, None in the band."""
    if value > threshold * GRAY:
        return True
    if value < threshold / GRAY:
        return False
    return None


def near(a, b, rel: float, scale: float = 1.0) -> bool:
    return fro(np.asarray(a) - np.asarray(b)) <= rel * max(scale, fro(b), 1e-300)


# --- maps ----------------------------------------------------------------------


def _form_eval(t, z):
    kind = {"BlockForm": "block", "SplitForm": "split", "ConjugatePairForm": "conjugate_pair",
            "NormalizedForm": "normalized"}[type(t).__name__]
    return map_eval(kind, tuple(np.asarray(getattr(t, f), dtype=complex) for f in _FIELDS[kind]), z)


def _error_allowed(out: Outcome, allowed: tuple, ref_ok) -> list:
    """An error passes when it is an allowed domain error and the reference is not clearly invertible."""
    if out.crash:
        return ["crash:" + out.crash]
    if out.error in allowed and ref_ok is not True:
        return []
    return ["error:" + out.error]


def check_maps(q, out: Outcome) -> list:
    return [f"maps.{q['op']}.{k}[{q['cls']}]" for k in _maps_failures(q, out)]


def _maps_failures(q, out: Outcome) -> list:
    op = q["op"]
    if op == "dim1":
        x = q["X"][0]
        ref = decisive(margin(x), TOL_REL)
        if out.error or out.crash:
            return _error_allowed(out, (), ref)
        f, inv = out.value
        a, b = q["ac"], q["bc"]
        bad = []
        if abs(f.alpha - (a + b) / 2) > 1e-15 * (abs(a) + abs(b)) or abs(f.beta - (a - b) / 2) > 1e-15 * (abs(a) + abs(b)):
            bad.append("forms")
        if ref is not None and inv != ref:
            bad.append("verdict")
        return bad
    if op in ("polar", "gram", "classify", "sl_normalize"):
        a = q["A"]
        n = a.shape[0]
        ref = decisive(margin(a), TOL_REL)
        if out.error == "NotPositiveDefinite" and op == "gram":
            # A* A squares the ratio; GramForm rejects a ratio at or below tol.rel
            return [] if decisive(margin(a) ** 2, TOL_REL) is not True else ["error:" + out.error]
        if out.error or out.crash:
            return _error_allowed(out, ("SingularMatrix",), ref)
        if op != "classify" and ref is False:
            return ["accepted_singular"]
        return _matrix_op(op, a, n, ref, out.value)
    r = q["R"]
    n = r.shape[0] // 2
    m, nn = complex_part(r), conjugate_part(r)
    basis = np.hstack([np.eye(n), 1j * np.eye(n)])
    ref_t = decisive(margin(r), TOL_REL)
    ref_m = decisive(margin(m), TOL_REL)
    if op == "is_invertible":
        if out.error or out.crash:
            return _error_allowed(out, (), None)
        return ["verdict"] if ref_t is not None and out.value != ref_t else []
    if op == "apply":
        if out.error or out.crash:
            return _error_allowed(out, (), None)
        want = map_eval(q["kind"], q["mats"], q["zv"][:, None])[:, 0]
        return [] if near(out.value, want, 1e-12, fro(r) * fro(q["zv"])) else ["value"]
    if op == "convert":
        to = q["to"]
        if out.error or out.crash:
            if out.error == "NotInSplitClass" and to == "split":
                dev = max(fro(r[:n, :n] - np.eye(n)), fro(r[n:, :n]))
                return [] if dev > TOL_REL * (1 + fro(m) + fro(nn)) / GRAY else ["error:" + out.error]
            return _error_allowed(out, ("SingularM", "SingularMatrix") if to == "normalized" else (), ref_m)
        got = _form_eval(out.value, basis)
        want = map_eval(q["kind"], q["mats"], basis)
        if to == "normalized":
            if ref_m is False:
                return ["accepted_singular"]
            got = m @ got
        return [] if near(got, want, 1e-8, fro(r)) else ["value"]
    if op == "majorizes":
        if out.error or out.crash:
            return _error_allowed(out, ("SingularMatrix",), ref_m)
        if ref_m is False:
            return ["verdict"] if out.value else []
        if ref_m is None:
            return []
        ratio = float(np.linalg.norm(np.linalg.solve(m.T, nn.T).T, 2))
        if abs(ratio - (1 - TOL_REL)) <= TOL_REL * GRAY:
            return []
        return ["verdict"] if out.value != (ratio < 1 - TOL_REL) else []
    # normalize: T = M o (z + conj(E z)), then the contraction verdict for E
    if out.error or out.crash:
        return _error_allowed(out, ("SingularM", "SingularMatrix"), ref_m)
    if ref_m is False:
        return ["accepted_singular"]
    g, normal, contraction = out.value
    bad = []
    if not near(g, m, 1e-12, fro(r)):
        bad.append("factor")
    if not near(m @ _form_eval(normal, basis), map_eval(q["kind"], q["mats"], basis), 1e-8, fro(r)):
        bad.append("value")
    norm_e = float(np.linalg.norm(np.asarray(normal.e), 2))
    if abs(norm_e - (1 - TOL_REL)) > TOL_REL * GRAY and contraction != (norm_e < 1 - TOL_REL):
        bad.append("contraction")
    return bad


def _matrix_op(op, a, n, ref, value) -> list:
    if op == "gram":
        return [] if near(value.matrix, a.conj().T @ a, 1e-12, fro(a) ** 2) else ["value"]
    if op == "polar":
        return check_polar(a, *value)
    if op == "classify":
        bad = []
        if ref is not None and value.in_gl != ref:
            bad.append("in_gl")
        d = complex(np.linalg.det(a))
        unit = decisive(fro(a.conj().T @ a - np.eye(n)), TOL_REL * n)
        sl = decisive(abs(d - 1), TOL_REL * n)
        if ref is True and unit is not None and value.in_u != (not unit):
            bad.append("in_u")
        if ref is True and sl is not None and value.in_sl != (not sl):
            bad.append("in_sl")
        if ref is True and abs(value.abs_det - abs(d)) > 1e-8 * abs(d):
            bad.append("abs_det")
        return bad
    out, delta = value
    bad = []
    if abs(np.linalg.det(out) - 1) > 1e-8 * n:
        bad.append("det")
    if not near(out * delta, a, 1e-12):
        bad.append("value")
    if not -math.pi / n - 1e-12 < np.angle(delta) <= math.pi / n + 1e-12:
        bad.append("principal_root")
    return bad


def check_polar(a, u, p) -> list:
    """A = U P with U unitary and P the positive square root of A* A (from one SVD)."""
    n = a.shape[0]
    u = np.asarray(u)
    p = np.asarray(p.matrix if hasattr(p, "matrix") else p)
    w, s, vh = np.linalg.svd(a)
    bad = []
    if fro(u.conj().T @ u - np.eye(n)) > 1e-8 * n:
        bad.append("unitary")
    if not near(p, (vh.conj().T * s) @ vh, 1e-8, fro(a)):
        bad.append("p_factor")
    if not near(u, w @ vh, 1e-6):
        bad.append("u_factor")
    if not near(u @ p, a, 1e-8, fro(a)):
        bad.append("residual")
    return bad


# --- torus ---------------------------------------------------------------------


def _in_lattice(r: np.ndarray, d: np.ndarray) -> bool:
    x = np.linalg.solve(r, np.concatenate([d.real, d.imag]))
    return bool(np.all(np.abs(x - np.rint(x)) <= 1e-8 * np.maximum(1.0, np.abs(x))))


def _point_ok(geo, r, p, z) -> bool:
    c = np.asarray(p.coords)
    return (bool(np.all((c >= 0) & (c < 1))) and near(p.rep, geo @ c, 1e-10, fro(geo) * max(1, fro(c)))
            and _in_lattice(r, np.asarray(z) - np.asarray(p.rep)))


def int_det(rows) -> int:
    """Exact determinant of an integer matrix by fraction-valued elimination."""
    m = [[Fraction(int(x)) for x in row] for row in rows]
    n, d = len(m), Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k] != 0), None)
        if p is None:
            return 0
        if p != k:
            m[k], m[p] = m[p], m[k]
            d = -d
        d *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return int(d)


def check_torus(q, lats, out: Outcome) -> list:
    fails = []
    if out.error or out.crash:
        fails = ["crash:" + out.crash] if out.crash else ["error:" + out.error]
    else:
        fails = _torus_failures(q, lats[q["lat"]], out.value)
    return [f"torus.{q['op']}.{k}[n{lats[q['lat']]['n']}]" for k in fails]


def _torus_failures(q, lat, v) -> list:
    g, r = lat["G"], lat["R"]
    op = q["op"]
    if op == "reduce":
        return [] if _point_ok(g, r, v, q["zv"]) else ["not_in_lattice"]
    if op == "add":
        return [] if _point_ok(g, r, v, q["z1v"] + q["z2v"]) else ["not_in_lattice"]
    if op == "neg":
        return [] if _point_ok(g, r, v, -q["zv"]) else ["not_in_lattice"]
    if op == "eq":
        return [] if v == q["same"] else ["verdict"]
    cov, (same, witness), perm, a, z = v
    n = lat["n"]
    bad = []
    if abs(cov - abs(np.linalg.det(r))) > 1e-9 * abs(np.linalg.det(r)):
        bad.append("covolume")
    if not same or witness is None or not near(r @ np.asarray(witness, dtype=float), lat["R2"], 1e-9) \
            or abs(int_det(np.asarray(witness).tolist())) != 1:
        bad.append("same_lattice")
    perm = list(perm)
    gp = g[:, perm]
    if sorted(perm) != list(range(2 * n)) or not near(a @ gp[:, :n], np.eye(n), 1e-9) \
            or not near(gp[:, :n] @ z, gp[:, n:], 1e-9):
        bad.append("normalize")
    return bad


# --- equiv ---------------------------------------------------------------------


def gauss_det(entries) -> tuple:
    """Exact determinant of a Gaussian-integer matrix by the Leibniz formula."""
    n = len(entries)
    re = im = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        pr, pi = 1, 0
        for i in range(n):
            er, ei = entries[i][perm[i]]
            pr, pi = pr * er - pi * ei, pr * ei + pi * er
        re += sign * pr
        im += sign * pi
    return re, im


def check_witness(a1, a2, t, entries, special: bool) -> list:
    """T unitary, B Gaussian-integer with determinant one (exactly), A2 = T A1 B."""
    n = a1.shape[0]
    bad = []
    if not all(isinstance(x, int) for row in entries for e in row for x in e):
        bad.append("witness_not_integral")
    elif gauss_det(entries) != (1, 0):
        bad.append("witness_det")
    b = np.array([[complex(*e) for e in row] for row in entries])
    t = np.asarray(t)
    if fro(t.conj().T @ t - np.eye(n)) > 1e-8 * n:
        bad.append("witness_not_unitary")
    if not near(t @ a1 @ b, a2, 1e-7):
        bad.append("witness_residual")
    if special and abs(np.linalg.det(t) - 1) > 1e-8 * n:
        bad.append("witness_det_t")
    return bad


def spectrum(a: np.ndarray, radius: float) -> list:
    """Squared norms |A lambda|^2 <= radius over nonzero Gaussian-integer lambda."""
    n = a.shape[0]
    s = np.linalg.svd(realified(a), compute_uv=False)
    k = int(np.floor(np.sqrt(radius) / s[-1]))
    grid = np.array(list(itertools.product(range(-k, k + 1), repeat=2 * n))).T
    lam = grid[:n] + 1j * grid[n:]
    sq = np.sum(np.abs(a @ lam) ** 2, axis=0)
    keep = (sq <= radius) & np.any(grid != 0, axis=0)
    return sorted(sq[keep].tolist())


def spectra_differ(a1, a2, radius: float = 4.0) -> bool:
    band = 2e-6 * max(radius, 1.0)
    c1 = [v for v in spectrum(a1, radius) if v <= radius - band]
    c2 = [v for v in spectrum(a2, radius) if v <= radius - band]
    return len(c1) != len(c2) or any(abs(x - y) > 1e-7 * max(1.0, x) for x, y in zip(c1, c2))


def equiv_token(out: Outcome) -> str:
    if out.crash:
        return "crash:" + out.crash
    if out.error:
        return out.error
    if out.value.refuter:
        name = out.value.refuter[0]
        return "covolume" if name == "covolume" else "short_vector"
    return out.value.status


def check_equiv(q, out: Outcome) -> list:
    return [f"equiv.{q['kind']}.{k}[h{q['h']}]" for k in _equiv_failures(q, out)]


def _equiv_failures(q, out: Outcome) -> list:
    token = equiv_token(out)
    if token not in EXPECTED[q["kind"]]:
        if token in ("covolume", "short_vector") and q["kind"] in EQUIVALENT_BY_CONSTRUCTION:
            return ["unsound_refutation"]
        return ["unexpected:" + token]
    a1, a2 = q["m1"], q["m2"]
    if token == "Equivalent":
        t, b = out.value.witness
        return check_witness(a1, a2, t, b.entries, q["mode"] == "special_unitary")
    if token == "covolume":
        c1, c2 = abs(np.linalg.det(a1)) ** 2, abs(np.linalg.det(a2)) ** 2
        return [] if abs(c1 - c2) > GRAY * TOL_REL * max(c1, c2) else ["covolume_refuter"]
    if token == "short_vector":
        return [] if spectra_differ(a1, a2) else ["spectrum_refuter"]
    return []


# --- cli -----------------------------------------------------------------------


def run_in_process(argv, text: str):
    """(exit code, stdout) of ``cli.run`` in this process; an exception exits 1, as Python does."""
    from cxlattices import cli

    buf = io.StringIO()
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.run(argv, io.StringIO(text), buf)
        except Exception:  # noqa: BLE001 - an uncaught exception is the behaviour under test
            code = 1
    return code, buf.getvalue()


def check_cli(q, res: dict, inproc) -> list:
    """One JSON line, no traceback, the expected exit and status, the expected verdict,
    and bytes identical to an in-process ``cli.run`` of the same argv and input."""
    bad = []
    if res["timed_out"]:
        bad.append("timeout")
    out = res["stdout"]
    obj = None
    if out.endswith("\n") and out.count("\n") == 1:
        try:
            obj = json.loads(out)
        except json.JSONDecodeError:
            obj = None
    if not isinstance(obj, dict) or "status" not in obj:
        bad.append("json_line")
        obj = None
    if TRACEBACK in res["stderr"]:
        bad.append("traceback")
    code = res["exit"]
    expect = q["expect"]
    if code not in expect["exit"]:
        bad.append("exit")
    elif obj is not None:
        name = obj.get("error", {}).get("name") if obj["status"] == "error" else None
        want = 0 if obj["status"] == "ok" else 2 if name == "MalformedInput" else 1
        if code != want:
            bad.append("status")
    if expect["verdict"] and obj is not None and obj["status"] == "ok":
        key, value = expect["verdict"]
        flagged = obj.get("diagnostics", {}).get("boundary") is True
        if obj["payload"].get(key) != value and not flagged:
            bad.append("verdict")
    elif expect["verdict"] and obj is not None:
        bad.append("verdict")
    if inproc != (code, out):
        bad.append("bytes")
    return [f"cli.{q['argv'][0]}.{k}[{q['tag']}]" for k in bad]
