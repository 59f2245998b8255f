"""The quotient C^n / L as an additive group.

Points are reduced to the half-open fundamental parallelepiped [0,1)^2n
in generator coordinates: solve the realified system, keep fractional
parts, map back.  Addition reduces the sum of representatives, and
equality compares coordinate differences to integers so wraparound at
the 0/1 boundary is handled without a special case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InternalCheckError, LatticeMismatch, NumericOverflow
from .kernel import DEFAULT_TOL, Tolerance, as_vector, frozen, real_columns, solve
from .lattices import LatticeBasis, same_lattice


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """A point of C^n / L: representative plus its generator coordinates.

    Build through reduce(); direct construction re-validates the invariants
    rep = G @ coords and coords in [0, 1).
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
    return solve(lat.realified, real_columns(zv), tol).real


def reduce(lat: LatticeBasis, z, tol: Tolerance = DEFAULT_TOL) -> TorusPoint:
    """Reduce z modulo the lattice into the fundamental parallelepiped.

    Coordinates within tol.abs below 1 wrap to 0, keeping the half-open
    invariant exact; z minus the representative is then a lattice point by
    construction (the dropped coordinate parts are integers).  A coordinate
    of 2^52 or more in magnitude has no fractional bit: NumericOverflow.
    """
    zv = as_vector(np.ravel(z), lat.n)
    c = _coords_of(lat, zv, tol)
    big = np.abs(c).max()
    if not big < 2.0**52:
        raise NumericOverflow(f"coordinate of magnitude {big:.3e} keeps no fractional bit (limit 2^52)")
    frac = c - np.floor(c)
    frac[1.0 - frac <= tol.abs] = 0.0
    shift = c - frac
    if np.any(np.abs(shift - np.rint(shift)) > 10.0 * tol.abs + 1e-12 * np.abs(c)):
        raise InternalCheckError("dropped coordinate parts drifted off the integers")
    rep = lat.g @ frac
    return TorusPoint(lat, rep, frac)


def _require_same_lattice(p: TorusPoint, q: TorusPoint, tol: Tolerance) -> None:
    if p.lattice is q.lattice:
        return
    if p.lattice.n != q.lattice.n:
        raise LatticeMismatch(f"dimensions differ: {p.lattice.n} vs {q.lattice.n}")
    if not same_lattice(p.lattice, q.lattice, tol)[0]:
        raise LatticeMismatch("points live on different lattices")


def torus_add(p: TorusPoint, q: TorusPoint, tol: Tolerance = DEFAULT_TOL) -> TorusPoint:
    """Group addition: reduce the sum of representatives in p's basis."""
    _require_same_lattice(p, q, tol)
    return reduce(p.lattice, p.rep + q.rep, tol)


def torus_neg(p: TorusPoint, tol: Tolerance = DEFAULT_TOL) -> TorusPoint:
    """Additive inverse."""
    return reduce(p.lattice, -p.rep, tol)


def torus_eq(p: TorusPoint, q: TorusPoint, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Equality on the torus: representative difference lies in the lattice.

    Works across different bases of the same lattice, and tolerates the
    0/1 boundary because only distance-to-nearest-integer matters.
    """
    _require_same_lattice(p, q, tol)
    d = _coords_of(p.lattice, p.rep - q.rep, tol)
    return bool(np.all(np.abs(d - np.rint(d)) <= tol.abs + tol.rel * np.abs(d)))
