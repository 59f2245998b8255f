"""The quotient C^n / L as an additive group.

For L = G(Z^2n), generator coordinates identify C^n / L with R^2n / Z^2n,
and a TorusPoint carries both: its coordinates in [0, 1)^2n and the
representative G @ coords.  reduce finds the coordinates of z by solving
the realified system, keeps their fractional parts and maps them back.  The
group law then works on coordinates alone: torus_add wraps the sum of two
points' coordinates into [0, 1), torus_neg wraps their negation, and
torus_eq compares the difference to the integers, so wraparound at the 0/1
boundary needs no special case.  On one basis none of them solves.  A point
of another basis of the same lattice is first given coordinates in the
first point's basis by one solve of its representative.

Every solve goes through the basis (LatticeBasis.coordinates, on a vector
that reduce has validated or that is known finite): it reads the margin the
basis keeps from its one SVD and the norm it keeps, so a reduction runs no
SVD, yet still applies solve's gate against the caller's tol.rel, its LU
and its residual check, bit for bit as kernel.solve would.  An operation
that needs no solve applies the same gate to the carried margin, so a
caller's larger tol.rel is SingularMatrix either way.

A point is proved once.  reduce and the group operations build it from
coordinates they have just put in [0, 1) and the representative just
computed from them, so they check only what can still fail there: the
representative must be finite, else NumericOverflow.  The basis proves that
once too, for every coordinate vector in [0, 1]^2n, when its entries are
small enough (LatticeBasis._reps_finite); its points then skip the check,
and only a basis without that proof pays it.  A TorusPoint built by hand is
validated in full.  One reduce thus costs one LU, one residual norm (the
norm of the solution is taken only for a residual past tol.abs), and a
fixed handful of vector passes: the 2^52 test and the drift bound read one
|c|.
Bases are immutable, so whether the bases of two points present the same
lattice is decided once per (basis, basis, tolerance) and remembered on
the first basis, weakly, so the memo keeps no basis alive; an error such
as AmbiguousIntegrality is raised again on every call, never remembered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalCheckError,
    LatticeMismatch,
    NumericOverflow,
    SingularMatrix,
)
from .kernel import (
    _EPS,
    DEFAULT_TOL,
    Tolerance,
    _built,
    _require_finite,
    as_vector,
    fro,
    frozen,
    real_columns,
)
from .lattices import LatticeBasis, same_lattice


@dataclass(frozen=True, eq=False)
class TorusPoint:
    """A point of C^n / L: representative plus its generator coordinates.

    Build through reduce() or the group operations, which guarantee coords
    in [0, 1), rep = G @ coords bit for bit, a finite rep, and read-only
    arrays, all by construction: they run no validation below.  Direct
    construction copies both arrays and re-validates the invariants: the
    shapes, finite entries (ValueError otherwise), coords in [0, 1), and rep
    within tolerance of G @ coords.
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
        _require_finite(rep, "vector")
        _require_finite(coords, "vector")
        if np.any(coords < 0.0) or np.any(coords >= 1.0):
            raise InternalCheckError("coordinates must lie in [0, 1)")
        drift = fro(rep - self.lattice.g @ coords)
        scale = max(fro(rep), 1.0)
        if drift > DEFAULT_TOL.rel * scale + DEFAULT_TOL.abs:
            raise InternalCheckError(f"rep drifted {drift:.3e} from its coordinates")
        object.__setattr__(self, "rep", frozen(rep))
        object.__setattr__(self, "coords", frozen(coords))

    @property
    def n(self) -> int:
        return self.lattice.n


def _solved(lat: LatticeBasis, zv: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Generator coordinates c of a finite vector zv, which the basis solves for without
    validating it, and |c|; NumericOverflow for a coordinate of 2^52 or more in
    magnitude, which has no fractional bit."""
    # real_columns gives float64 columns: the LU and the residual cast them to complex exactly
    c = lat._coordinates(real_columns(zv[:, None]), tol)[:, 0].real
    size = np.abs(c)
    big = size.max()
    if not big < 2.0**52:
        raise NumericOverflow(f"coordinate of magnitude {big:.3e} keeps no fractional bit (limit 2^52)")
    return c, size


def _point(lat: LatticeBasis, c: np.ndarray, tol: Tolerance) -> TorusPoint:
    """The point of generator coordinates c (finite, below 2^52 in magnitude), wrapped into [0, 1).

    A coordinate within tol.abs below 1 wraps to 0, keeping the half-open
    invariant exact.  The representative needs no finiteness pass on a basis
    that proves every G @ frac finite; on any other it is checked.
    """
    frac = c - np.floor(c)
    frac[1.0 - frac <= tol.abs] = 0.0
    if lat._reps_finite:
        rep = lat.g @ frac
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below, not warned
            rep = lat.g @ frac
        if not np.isfinite(rep).all():
            raise NumericOverflow("representative G @ coords overflowed: the lattice's generators are too large")
    # the invariants TorusPoint's constructor checks hold by construction here
    return _built(TorusPoint, lattice=lat, rep=rep, coords=frac)


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
    c, size = _solved(lat, zv, tol)
    p = _point(lat, c, tol)
    shift = c - p.coords
    # floor(c) and shift - rint(shift) are exact.  c - floor(c), in [0, 1], rounds by at
    # most eps / 2, a wrap to 0 moves it by at most tol.abs, and c - frac rounds by at
    # most eps / 2 (|c| + 1), so shift lies within tol.abs + eps (1 + |c| / 2) of the
    # integers; the terms 2 eps + eps |c|, about eps max(1, |c|), allow that rounding
    bound = 10.0 * tol.abs + 2.0 * _EPS + (1e-12 + _EPS) * size
    if (np.abs(shift - np.rint(shift)) > bound).any():
        raise InternalCheckError("dropped coordinate parts drifted off the integers")
    return p


def _gate(lat: LatticeBasis, tol: Tolerance) -> None:
    """solve's gate on the basis's carried margin, for an operation that runs no solve."""
    if not lat.margin > tol.rel:
        raise SingularMatrix(f"the basis is singular at tol.rel (margin {lat.margin:.3e})")


def _require_same_lattice(lat1: LatticeBasis, lat2: LatticeBasis, tol: Tolerance) -> None:
    if lat1.n != lat2.n:
        raise LatticeMismatch(f"dimensions differ: {lat1.n} vs {lat2.n}")
    known = lat1._verdicts.setdefault(lat2, {})
    same = known.get(tol)
    if same is None:  # same_lattice raising leaves nothing behind
        same = known[tol] = same_lattice(lat1, lat2, tol)[0]
    if not same:
        raise LatticeMismatch("points live on different lattices")


def _coords_in(p: TorusPoint, q: TorusPoint, tol: Tolerance) -> np.ndarray:
    """q's generator coordinates in p's basis: q.coords when the two share it, else one
    solve of q.rep (NumericOverflow from 2^52 on, as in reduce), once the two bases are
    known to present the same lattice."""
    lat = p.lattice
    if q.lattice is lat:
        _gate(lat, tol)
        return q.coords
    _require_same_lattice(lat, q.lattice, tol)
    return _solved(lat, q.rep, tol)[0]


def torus_add(p: TorusPoint, q: TorusPoint, tol: Tolerance = DEFAULT_TOL) -> TorusPoint:
    """Group addition in p's basis: the sum of the two points' coordinates, wrapped into [0, 1).

    The sum of two finite points is finite unless its representative
    G @ coords overflows (NumericOverflow), as reduce's can.
    """
    return _point(p.lattice, p.coords + _coords_in(p, q, tol), tol)


def torus_neg(p: TorusPoint, tol: Tolerance = DEFAULT_TOL) -> TorusPoint:
    """Additive inverse: the negated coordinates, wrapped into [0, 1)."""
    _gate(p.lattice, tol)
    return _point(p.lattice, -p.coords, tol)


def torus_eq(p: TorusPoint, q: TorusPoint, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Equality on the torus: the coordinates of p and q in p's basis differ by integers.

    Works across different bases of the same lattice, and tolerates the
    0/1 boundary because only distance-to-nearest-integer matters.
    """
    d = p.coords - _coords_in(p, q, tol)
    return bool((np.abs(d - np.rint(d)) <= tol.abs + tol.rel * np.abs(d)).all())
