"""JSON encoding for the command-line interface.

Complex numbers travel as two-element [re, im] arrays, matrices as nested
row-major arrays of those pairs, lattices as {"n": ..., "generators": [...]}
where row k is the image of the k-th standard basis vector of R^2n (the
k-th column of the generator matrix).

Serialization is canonical: floats are written with 17 significant digits
(with a forced decimal point so float fields stay visibly distinct from
int fields), dict keys keep construction order, and there is no
whitespace variation, so equal inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericOverflow

if TYPE_CHECKING:
    from .realmaps import RealLinearMap


class MalformedInput(ValueError):
    """Input text is not valid JSON or does not match the expected schema."""


def loads(text: str):
    def reject_constant(name):
        raise MalformedInput(f"non-finite JSON constant {name!r} is not allowed")

    try:
        return json.loads(text, parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"invalid JSON: {exc}") from exc


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        # inputs are checked finite on the way in, so this is an overflow in between
        raise NumericOverflow(f"result holds a non-finite number ({x}): the computation overflowed")
    s = "%.17g" % x
    if "e" not in s and "E" not in s and "." not in s:
        s += ".0"
    return s


def dumps_canonical(obj) -> str:
    """One-line canonical JSON with a trailing newline."""
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts) + "\n"


def _emit(obj, parts: list[str]) -> None:
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_fmt_float(float(obj)))
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                parts.append(",")
            if not isinstance(k, str):
                raise TypeError("JSON object keys must be strings")
            parts.append(json.dumps(k, ensure_ascii=True))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, v in enumerate(obj):
            if i:
                parts.append(",")
            _emit(v, parts)
        parts.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _number(v, what: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise MalformedInput(f"{what} must be a number, got {type(v).__name__}")
    if not math.isfinite(v):
        raise MalformedInput(f"{what} must be finite")
    return float(v)


def complex_in(v, what: str = "complex number") -> complex:
    if not isinstance(v, list) or len(v) != 2:
        raise MalformedInput(f"{what} must be a two-element [re, im] array")
    return complex(_number(v[0], f"{what} real part"), _number(v[1], f"{what} imaginary part"))


def complex_out(z: complex) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def vector_in(v, what: str = "vector") -> np.ndarray:
    if not isinstance(v, list) or not v:
        raise MalformedInput(f"{what} must be a non-empty array of [re, im] pairs")
    return np.array([complex_in(e, what) for e in v], dtype=np.complex128)


def vector_out(w) -> list:
    return [complex_out(z) for z in np.asarray(w).reshape(-1)]


def matrix_in(v, what: str = "matrix") -> np.ndarray:
    if not isinstance(v, list) or not v:
        raise MalformedInput(f"{what} must be a non-empty array of rows")
    rows = []
    width = None
    for r in v:
        if not isinstance(r, list) or not r:
            raise MalformedInput(f"{what} rows must be non-empty arrays")
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise MalformedInput(f"{what} rows have inconsistent lengths")
        rows.append([complex_in(e, f"{what} entry") for e in r])
    return np.array(rows, dtype=np.complex128)


def matrix_out(m) -> list:
    a = np.asarray(m, dtype=np.complex128)
    return [[complex_out(z) for z in row] for row in a]


def int_matrix_out(m) -> list:
    a = np.asarray(m)
    return [[int(x) for x in row] for row in a]


def gauss_matrix_out(entries) -> list:
    return [[[int(e[0]), int(e[1])] for e in row] for row in entries]


def real_vector_out(v) -> list:
    return [float(x) for x in np.asarray(v, dtype=np.float64).reshape(-1)]


def map_in(obj) -> RealLinearMap:
    from .realmaps import FORMS  # only the map subcommands load realmaps

    if not isinstance(obj, dict):
        raise MalformedInput("map must be an object with a 'kind' field")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in FORMS:  # a list or object kind is unhashable
        raise MalformedInput(f"map kind must be one of {sorted(FORMS)}, got {kind!r}")
    names = [f.name for f in fields(FORMS[kind])]
    extra = set(obj) - {"kind", *names}
    if extra:
        raise MalformedInput(f"unexpected map fields {sorted(extra)}")
    mats = []
    for f in names:
        if f not in obj:
            raise MalformedInput(f"map of kind {kind!r} needs field {f!r}")
        mats.append(matrix_in(obj[f], f"map field {f!r}"))
    try:
        return FORMS[kind](*mats)
    except ValueError as exc:
        # real blocks with stray imaginary parts, non-finite entries
        raise MalformedInput(str(exc)) from exc


def map_out(t: RealLinearMap) -> dict:
    from .realmaps import kind_of

    out: dict = {"kind": kind_of(t)}
    for f in fields(t):
        out[f.name] = matrix_out(getattr(t, f.name))
    return out


def lattice_raw_in(obj) -> np.ndarray:
    """Schema check only; returns the n-by-2n generator matrix unvalidated."""
    if not isinstance(obj, dict):
        raise MalformedInput("lattice must be an object with 'n' and 'generators'")
    extra = set(obj) - {"n", "generators"}
    if extra:
        raise MalformedInput(f"unexpected lattice fields {sorted(extra)}")
    n = obj.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise MalformedInput("lattice field 'n' must be a positive integer")
    gens = obj.get("generators")
    if not isinstance(gens, list) or len(gens) != 2 * n:
        raise MalformedInput(f"lattice needs exactly {2 * n} generator rows")
    cols = []
    for k, row in enumerate(gens):
        if not isinstance(row, list) or len(row) != n:
            raise MalformedInput(f"generator row {k} must have {n} [re, im] entries")
        cols.append([complex_in(e, f"generator row {k}") for e in row])
    return np.array(cols, dtype=np.complex128).T  # row k of JSON = column k of G

