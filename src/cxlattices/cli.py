"""Batch command line over the JSON matrix/lattice format.

One subcommand per public operation; input JSON arrives via --in FILE or
standard input, the result leaves as a single CommandResult line on
standard output:

    {"status": "ok", "payload": {...}, "diagnostics": {...}}
    {"status": "error", "error": {"name": ..., "message": ...}, "diagnostics": {...}}

Exit codes: 0 for an ok status, 1 for a domain error (the error name is
the exception class from the package taxonomy), 2 for malformed input.
Output is deterministic: canonical float formatting, fixed key order, no
timestamps, so identical invocations are byte-identical.

A process builds, compiles and runs only what its subcommand uses.  Importing
this module loads errors, kernel and polar (which the package itself loads;
every other public name of the package loads its module on first use) and
jsonio, and the matrix subcommands (polar, gram, unitary-equiv,
sl-normalize) need nothing more.  The other handlers import what they call:
the map subcommands add realmaps, the lattice subcommands and sigma-check
add lattices and gaussian, torus-reduce and torus-add add torus as well,
lattice-equiv adds equivalence as well (once its input has parsed, so a
malformed input loads nothing more), dim1-forms adds dim1 and realmaps.
When the first word is a known subcommand, run() builds that subparser
alone; anything else gets the full parser, so every argparse error and help
text keeps its bytes.  The lattice-equiv defaults and modes live in kernel,
and map-convert's --to choices are read from realmaps only where that
subparser is built.

main() is the cxlat process.  It turns the cyclic garbage collector off for
its one run and freezes what is alive at the end, so the collection at
interpreter shutdown has nothing to walk; run() leaves the caller's
collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys

import numpy as np

from . import jsonio
from .errors import CxlatError
from .jsonio import MalformedInput
from .kernel import (
    DEFAULT_BUDGET,
    DEFAULT_HEIGHT,
    DEFAULT_RADIUS,
    DEFAULT_TOL,
    MODE_SPECIAL_UNITARY,
    MODE_UNITARY,
    Tolerance,
    fro,
    in_gray_zone,
)
from .polar import gram, polar, sl_normalize, unitarily_equivalent


def _is_obj(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise MalformedInput(f"{what} input must be a JSON object")
    return data

def _fields(data, *names: str) -> list:
    _is_obj(data, "command")
    extra = set(data) - set(names)
    if extra:
        raise MalformedInput(f"unexpected input fields {sorted(extra)}")
    out = []
    for name in names:
        if name not in data:
            raise MalformedInput(f"missing input field {name!r}")
        out.append(data[name])
    return out


# each handler: (data, args, tol) -> (payload, extra_diagnostics)

def _cmd_map_apply(data, args, tol):
    from .realmaps import apply

    m, z = _fields(data, "map", "z")
    t = jsonio.map_in(m)
    w = apply(t, jsonio.vector_in(z, "z"))
    return {"w": jsonio.vector_out(w)}, {}


def _cmd_map_convert(data, args, tol):
    from .realmaps import convert

    (m,) = _fields(data, "map")
    t = convert(jsonio.map_in(m), args.to, tol)
    return {"map": jsonio.map_out(t)}, {}


def _cmd_map_invertible(data, args, tol):
    from .realmaps import invertibility

    (m,) = _fields(data, "map")
    verdict, margin = invertibility(jsonio.map_in(m), tol)
    return {"invertible": verdict}, {
        "margin": float(margin),
        "threshold": tol.rel,
        "boundary": in_gray_zone(margin, tol.rel),
    }


def _cmd_map_majorizes(data, args, tol):
    from .realmaps import dominates, domination_ratio

    (m,) = _fields(data, "map")
    ratio = domination_ratio(jsonio.map_in(m), tol)
    # no margin when M is singular, nor when N M^-1 overflowed (a tiny M): its ratio is inf
    margin = None if ratio is None or ratio == math.inf else 1.0 - ratio
    return {"majorizes": dominates(ratio, tol)}, {
        "margin": margin,
        "threshold": tol.rel,
        "boundary": False if margin is None else in_gray_zone(margin, tol.rel),
    }


def _cmd_map_normalize(data, args, tol):
    from .realmaps import contraction_check, normalize_post_composition

    (m,) = _fields(data, "map")
    g, norm = normalize_post_composition(jsonio.map_in(m), tol)
    return {
        "g": jsonio.matrix_out(g),
        "normalized": jsonio.map_out(norm),
        "contraction": contraction_check(norm, tol),
    }, {}


def _cmd_polar(data, args, tol):
    (m,) = _fields(data, "matrix")
    a = jsonio.matrix_in(m)
    u, p = polar(a, tol)
    residual = float(fro(a - u @ p.matrix) / max(fro(a), 1.0))
    defect = float(fro(u.conj().T @ u - np.eye(u.shape[0])))
    return {"u": jsonio.matrix_out(u), "p": jsonio.matrix_out(p.matrix)}, {
        "residual": residual,
        "unitary_defect": defect,
    }


def _cmd_gram(data, args, tol):
    (m,) = _fields(data, "matrix")
    p = gram(jsonio.matrix_in(m), tol)
    return {"gram": jsonio.matrix_out(p.matrix)}, {}


def _cmd_unitary_equiv(data, args, tol):
    m1, m2 = _fields(data, "first", "second")
    equivalent, witness = unitarily_equivalent(
        jsonio.matrix_in(m1, "first"), jsonio.matrix_in(m2, "second"), tol
    )
    return {
        "equivalent": equivalent,
        "witness": None if witness is None else jsonio.matrix_out(witness),
    }, {}


def _cmd_sl_normalize(data, args, tol):
    (m,) = _fields(data, "matrix")
    out, delta = sl_normalize(jsonio.matrix_in(m), tol)
    return {"normalized": jsonio.matrix_out(out), "delta": jsonio.complex_out(delta)}, {}


def _cmd_lattice_validate(data, args, tol):
    from .lattices import LatticeBasis, covolume, is_full_rank

    (lat_obj,) = _fields(data, "lattice")
    # one SVD: the basis carries sigma_min (the rank margin) and sigma_min / sigma_max
    lat = LatticeBasis(jsonio.lattice_raw_in(lat_obj))
    if is_full_rank(lat, tol):
        payload = {"valid": True, "n": int(lat.n), "covolume": covolume(lat)}
    else:
        payload = {"valid": False, "reason": "RankDeficient"}
    # the verdict compares sigma_min / sigma_max with tol.rel, and so does the flag
    return payload, {
        "rank_margin": lat.sigma_min,
        "threshold": tol.rel,
        "boundary": in_gray_zone(lat.margin, tol.rel),
    }


def _cmd_lattice_covolume(data, args, tol):
    from .lattices import covolume, from_generators

    (lat_obj,) = _fields(data, "lattice")
    lat = from_generators(jsonio.lattice_raw_in(lat_obj), tol)
    return {"covolume": covolume(lat)}, {}


def _cmd_lattice_normalize(data, args, tol):
    from .lattices import from_generators, normalize_to_Lstarstar, permute_to_L1

    (lat_obj,) = _fields(data, "lattice")
    lat = from_generators(jsonio.lattice_raw_in(lat_obj), tol)
    permuted, perm = permute_to_L1(lat, tol)
    a, pm = normalize_to_Lstarstar(permuted, tol)
    return {
        "permutation": [int(k) for k in perm],
        "a": jsonio.matrix_out(a),
        "z": jsonio.matrix_out(pm.z),
    }, {}


def _cmd_lattice_same(data, args, tol):
    from .lattices import from_generators, same_lattice

    l1, l2 = _fields(data, "first", "second")
    lat1 = from_generators(jsonio.lattice_raw_in(l1), tol)
    lat2 = from_generators(jsonio.lattice_raw_in(l2), tol)
    same, witness = same_lattice(lat1, lat2, tol)
    return {
        "same": same,
        "witness": None if witness is None else jsonio.int_matrix_out(witness),
    }, {}


def _cmd_lattice_equiv(data, args, tol):
    m1, m2 = _fields(data, "first", "second")
    a1, a2 = jsonio.matrix_in(m1, "first"), jsonio.matrix_in(m2, "second")
    # imported once the input has parsed: a malformed input never loads the search
    from .equivalence import lattice_equivalent

    verdict = lattice_equivalent(
        a1,
        a2,
        mode=args.mode,
        height=args.height,
        tol=tol,
        radius=args.radius,
        budget=args.budget,
    )
    witness = None
    if verdict.witness is not None:
        t, b = verdict.witness
        witness = {"t": jsonio.matrix_out(t), "b": jsonio.gauss_matrix_out(b.entries)}
    refuter = None
    if verdict.refuter is not None:
        name, v1, v2 = verdict.refuter
        refuter = {"name": name, "first": float(v1), "second": float(v2)}
    payload = {
        "verdict": verdict.status,
        "witness": witness,
        "refuter": refuter,
        "height": int(verdict.bound),
    }
    return payload, {"mode": args.mode, "radius": float(args.radius), "budget": int(args.budget)}


def _cmd_sigma_check(data, args, tol):
    from .lattices import sigma_membership

    (m,) = _fields(data, "matrix")
    b = sigma_membership(jsonio.matrix_in(m), tol)
    return {"member": True, "entries": jsonio.gauss_matrix_out(b.entries)}, {}


def _cmd_torus_reduce(data, args, tol):
    from .lattices import from_generators
    from .torus import reduce as torus_reduce

    lat_obj, z = _fields(data, "lattice", "z")
    lat = from_generators(jsonio.lattice_raw_in(lat_obj), tol)
    p = torus_reduce(lat, jsonio.vector_in(z, "z"), tol)
    return {"coords": jsonio.real_vector_out(p.coords), "rep": jsonio.vector_out(p.rep)}, {}


def _cmd_torus_add(data, args, tol):
    from .lattices import from_generators
    from .torus import reduce as torus_reduce
    from .torus import torus_add

    lat_obj, z1, z2 = _fields(data, "lattice", "first", "second")
    lat = from_generators(jsonio.lattice_raw_in(lat_obj), tol)
    p = torus_reduce(lat, jsonio.vector_in(z1, "first"), tol)
    q = torus_reduce(lat, jsonio.vector_in(z2, "second"), tol)
    s = torus_add(p, q, tol)
    return {"coords": jsonio.real_vector_out(s.coords), "rep": jsonio.vector_out(s.rep)}, {}


def _cmd_dim1_forms(data, args, tol):
    from .dim1 import from_ab, is_invertible_1d

    a_in, b_in = _fields(data, "a", "b")
    f = from_ab(jsonio.complex_in(a_in, "a"), jsonio.complex_in(b_in, "b"), tol)

    def opt(z):
        return None if z is None else jsonio.complex_out(z)

    return {
        "a": jsonio.complex_out(f.a),
        "b": jsonio.complex_out(f.b),
        "alpha": jsonio.complex_out(f.alpha),
        "beta": jsonio.complex_out(f.beta),
        "c": opt(f.c),
        "theta": opt(f.theta),
        "mu": opt(f.mu),
        "invertible": is_invertible_1d(f, tol),
    }, {}


_HANDLERS = {
    "map-apply": _cmd_map_apply,
    "map-convert": _cmd_map_convert,
    "map-invertible": _cmd_map_invertible,
    "map-majorizes": _cmd_map_majorizes,
    "map-normalize": _cmd_map_normalize,
    "polar": _cmd_polar,
    "gram": _cmd_gram,
    "unitary-equiv": _cmd_unitary_equiv,
    "sl-normalize": _cmd_sl_normalize,
    "lattice-validate": _cmd_lattice_validate,
    "lattice-covolume": _cmd_lattice_covolume,
    "lattice-normalize": _cmd_lattice_normalize,
    "lattice-same": _cmd_lattice_same,
    "lattice-equiv": _cmd_lattice_equiv,
    "sigma-check": _cmd_sigma_check,
    "torus-reduce": _cmd_torus_reduce,
    "torus-add": _cmd_torus_add,
    "dim1-forms": _cmd_dim1_forms,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are malformed input, not a usage text and exit."""

    def error(self, message):
        raise MalformedInput(f"command line: {message}")


def _build_parser(names) -> argparse.ArgumentParser:
    """The cxlat parser with one subparser for each subcommand in names."""
    parser = _Parser(
        prog="cxlat",
        description="real-linear maps, Gaussian lattices, and complex tori over JSON",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for name in names:
        p = sub.add_parser(name)
        p.add_argument("--in", dest="infile", default=None, help="read input JSON from FILE")
        p.add_argument("--tol-rel", type=float, default=DEFAULT_TOL.rel)
        p.add_argument("--tol-abs", type=float, default=DEFAULT_TOL.abs)
        if name == "map-convert":
            from .realmaps import KINDS

            p.add_argument("--to", required=True, choices=KINDS)
        if name == "lattice-equiv":
            p.add_argument("--height", type=int, default=DEFAULT_HEIGHT)
            p.add_argument("--radius", type=float, default=DEFAULT_RADIUS)
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
            p.add_argument(
                "--mode",
                default=MODE_UNITARY,
                choices=(MODE_UNITARY, MODE_SPECIAL_UNITARY),
            )
    return parser


def _render(status: str, body: dict, diagnostics: dict) -> str:
    return jsonio.dumps_canonical({"status": status, **body, "diagnostics": diagnostics})


def _error_line(name: str, exc: Exception, diagnostics: dict) -> str:
    return _render("error", {"error": {"name": name, "message": str(exc)}}, diagnostics)


def run(argv, stdin=None, stdout=None) -> int:
    stdin = sys.stdin if stdin is None else stdin
    stdout = sys.stdout if stdout is None else stdout
    argv = list(argv)
    # a known subcommand parses the same with its own subparser alone; no subcommand, an
    # unknown one or a bare -h needs the full parser, whose error and help texts list them all
    names = argv[:1] if argv and argv[0] in _HANDLERS else _HANDLERS
    try:
        args = _build_parser(names).parse_args(argv)
    except SystemExit as exc:  # --help: argparse printed the usage text
        return exc.code
    except MalformedInput as exc:
        stdout.write(_error_line("MalformedInput", exc, {}))
        return 2

    finite = math.isfinite(args.tol_rel) and math.isfinite(args.tol_abs)
    # a non-finite tolerance is not echoed: rendering it would raise NumericOverflow
    base_diag = {"tol_rel": float(args.tol_rel), "tol_abs": float(args.tol_abs)} if finite else {}
    try:
        if not (finite and args.tol_rel > 0.0 and args.tol_abs > 0.0):
            raise MalformedInput("tolerances must be finite and positive")
        tol = Tolerance(rel=args.tol_rel, abs=args.tol_abs)
        if args.infile is not None:
            try:
                with open(args.infile, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise MalformedInput(f"cannot read --in file: {exc}") from exc
        else:
            text = stdin.read()
        data = jsonio.loads(text)
        # an overflow leaves as one NumericOverflow line, never as a warning on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            payload, extra = _HANDLERS[args.command](data, args, tol)
        # rendered inside the try: a result that overflowed raises NumericOverflow here
        line, code = _render("ok", {"payload": payload}, {**base_diag, **extra}), 0
    except ValueError as exc:  # MalformedInput is one
        line, code = _error_line("MalformedInput", exc, base_diag), 2
    except CxlatError as exc:
        line, code = _error_line(type(exc).__name__, exc, base_diag), 1
    stdout.write(line)
    return code


def main() -> None:
    """The cxlat process: one run, then exit with its code.

    The process ends right after its run, so no cyclic collection runs during
    it, and freezing what is alive spares the shutdown collection a walk over
    every numpy and argparse object.  run() stays policy-free: tests, the
    benchmark and library callers call it in processes that go on.
    """
    gc.disable()
    code = run(sys.argv[1:])
    sys.stdout.flush()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
