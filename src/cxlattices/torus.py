"""The quotient C^n / L as an additive group.

Points are reduced to the half-open fundamental parallelepiped [0,1)^2n
in generator coordinates: solve the realified system, keep fractional
parts, map back.  Addition reduces the sum of representatives, and
equality compares coordinate differences to integers so wraparound at
the 0/1 boundary is handled without a special case.

Every solve goes through the basis (LatticeBasis.coordinates, on a vector
that reduce has validated or that is known finite): it reads the margin the
basis keeps from its one SVD and the norm it keeps, so a reduction runs no
SVD, yet still applies solve's gate against the caller's tol.rel, its LU
and its residual check, bit for bit as kernel.solve would.

A point is proved once.  reduce builds it from coordinates it has just put
in [0, 1) and the representative it has just computed from them, so it
checks only what can still fail there: the representative must be finite,
else NumericOverflow.  A TorusPoint built by hand is validated in full.
torus_add and torus_eq form the sum or difference of two representatives in
Python complex arithmetic, which never warns, and refuse one that
overflowed (NumericOverflow); torus_add and torus_neg then reduce a vector
known to be finite without validating it again.
Bases are immutable, so whether the bases of two points present the same
lattice is decided once per (basis, basis, tolerance) and remembered on
the first basis, weakly, so the memo keeps no basis alive; an error such
as AmbiguousIntegrality is raised again on every call, never remembered.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InternalCheckError, LatticeMismatch, NumericOverflow
from .kernel import DEFAULT_TOL, Tolerance, _built, as_vector, frozen, real_columns
from .lattices import LatticeBasis, same_lattice


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """A point of C^n / L: representative plus its generator coordinates.

    Build through reduce(), which guarantees coords in [0, 1), rep =
    G @ coords bit for bit, a finite rep, and read-only arrays, all by
    construction: it runs no validation below.  Direct construction copies
    both arrays and re-validates the invariants: the shapes, coords in
    [0, 1), and rep within tolerance of G @ coords.
    """

    lattice: LatticeBasis
    rep: np.ndarray
    coords: np.ndarray

    def __post_init__(self) -> None:
        rep = np.array(self.rep, dtype=np.complex128, copy=True).reshape(-1)
        coords = np.array(self.coords, dtype=np.float64, copy=True).reshape(-1)
        n = self.lattice.n
        if rep.shape[0] != n or coords.shape[0] != 2 * n:
            raise DimensionMismatch(
                f"expected rep of length {n} and coords of length {2 * n}"
            )
        if np.any(coords < 0.0) or np.any(coords >= 1.0):
            raise InternalCheckError("coordinates must lie in [0, 1)")
        drift = np.linalg.norm(rep - self.lattice.g @ coords)
        scale = max(float(np.linalg.norm(rep)), 1.0)
        if drift > DEFAULT_TOL.rel * scale + DEFAULT_TOL.abs:
            raise InternalCheckError(f"rep drifted {drift:.3e} from its coordinates")
        object.__setattr__(self, "rep", frozen(rep))
        object.__setattr__(self, "coords", frozen(coords))

    @property
    def n(self) -> int:
        return self.lattice.n


def _coords_of(lat: LatticeBasis, zv: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Generator coordinates of a finite vector zv, which the basis solves for without validating it."""
    return lat._coordinates(real_columns(zv[:, None]).astype(np.complex128), tol)[:, 0].real


def reduce(lat: LatticeBasis, z, tol: Tolerance = DEFAULT_TOL) -> TorusPoint:
    """Reduce z modulo the lattice into the fundamental parallelepiped.

    Coordinates within tol.abs below 1 wrap to 0, keeping the half-open
    invariant exact; z minus the representative is then a lattice point by
    construction (the dropped coordinate parts are integers).  A coordinate
    of 2^52 or more in magnitude has no fractional bit, and a representative
    G @ coords can overflow although its coordinates lie in [0, 1): both
    are NumericOverflow.
    """
    return _reduce(lat, as_vector(np.ravel(z), lat.n), tol)


def _reduce(lat: LatticeBasis, zv: np.ndarray, tol: Tolerance) -> TorusPoint:
    """reduce on a finite complex vector of length lat.n, which needs no validation."""
    c = _coords_of(lat, zv, tol)
    big = np.abs(c).max()
    if not big < 2.0**52:
        raise NumericOverflow(f"coordinate of magnitude {big:.3e} keeps no fractional bit (limit 2^52)")
    frac = c - np.floor(c)
    frac[1.0 - frac <= tol.abs] = 0.0
    shift = c - frac
    if np.any(np.abs(shift - np.rint(shift)) > 10.0 * tol.abs + 1e-12 * np.abs(c)):
        raise InternalCheckError("dropped coordinate parts drifted off the integers")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below, not warned
        rep = lat.g @ frac
    if not np.isfinite(rep).all():
        raise NumericOverflow("representative G @ coords overflowed: the lattice's generators are too large")
    # the invariants TorusPoint's constructor checks hold by construction here
    return _built(TorusPoint, lattice=lat, rep=rep, coords=frac)


def _require_same_lattice(p: TorusPoint, q: TorusPoint, tol: Tolerance) -> None:
    lat1, lat2 = p.lattice, q.lattice
    if lat1 is lat2:
        return
    if lat1.n != lat2.n:
        raise LatticeMismatch(f"dimensions differ: {lat1.n} vs {lat2.n}")
    known = lat1._verdicts.setdefault(lat2, {})
    same = known.get(tol)
    if same is None:  # same_lattice raising leaves nothing behind
        same = known[tol] = same_lattice(lat1, lat2, tol)[0]
    if not same:
        raise LatticeMismatch("points live on different lattices")


def _finite(values: list) -> np.ndarray:
    """A sum or difference of two representatives, formed in Python complex arithmetic
    (the same IEEE operations as numpy's, but they never warn), as a finite vector;
    NumericOverflow when it overflowed."""
    if not all(map(cmath.isfinite, values)):
        raise NumericOverflow("sum of representatives overflowed: the lattice's generators are too large")
    return np.array(values)


def torus_add(p: TorusPoint, q: TorusPoint, tol: Tolerance = DEFAULT_TOL) -> TorusPoint:
    """Group addition: reduce the sum of representatives in p's basis.

    Raises NumericOverflow when the sum of the two finite representatives
    overflows.
    """
    _require_same_lattice(p, q, tol)
    total = _finite([x + y for x, y in zip(p.rep.tolist(), q.rep.tolist())])
    return _reduce(p.lattice, total, tol)


def torus_neg(p: TorusPoint, tol: Tolerance = DEFAULT_TOL) -> TorusPoint:
    """Additive inverse."""
    return _reduce(p.lattice, -p.rep, tol)


def torus_eq(p: TorusPoint, q: TorusPoint, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Equality on the torus: representative difference lies in the lattice.

    Works across different bases of the same lattice, and tolerates the
    0/1 boundary because only distance-to-nearest-integer matters.  Raises
    NumericOverflow when the difference of the representatives overflows.
    """
    _require_same_lattice(p, q, tol)
    diff = _finite([x - y for x, y in zip(p.rep.tolist(), q.rep.tolist())])
    d = _coords_of(p.lattice, diff, tol)
    return bool(np.all(np.abs(d - np.rint(d)) <= tol.abs + tol.rel * np.abs(d)))
