"""Canonical forms for invertible matrices modulo unitaries.

Two invertible A1, A2 lie in the same left unitary coset exactly when
A1* A1 = A2* A2, so the Gram form A* A is a complete invariant for the
quotient of invertible matrices by left multiplication with unitaries.
The polar decomposition A = U P realizes the correspondence concretely:
P is the unique self-adjoint positive-definite square root of the Gram
form and U the unitary direction.  The determinant-one variants reduce
to the same machinery after scaling by a principal root.

Positivity follows one rule: a self-adjoint P counts as positive definite
at tolerance exactly when sqrt(lambda_min / lambda_max) > tol.rel, that is,
when a root R with P = R* R passes invertibility_margin (the singular
values of R are the square roots of the eigenvalues of P).  So gram(A)
succeeds exactly when the invertibility gate accepts A.  A Gram form is
certified by a root margin in hand, never by an eigensolve: gram and
lattice_equivalent build A* A from an A that has passed the gate, and polar
builds V S V* from singular values S that have passed it (its root
S^(1/2) V* has the larger margin sqrt(s_min / s_max)); a directly built
GramForm(p) is certified by the margin of its Cholesky factor, which must
also clear the rounding level of p's entries (see GramForm); as_gram_form
applies the same rule at a caller's tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NotInSL,
    NotPositiveDefinite,
    NumericOverflow,
    SingularMatrix,
)
from .kernel import (
    _EPS,
    _FLOAT_TINY,
    DEFAULT_TOL,
    GRAY_ZONE,
    Tolerance,
    _adjoint,
    _built,
    _complex_abs,
    _hermitian_part,
    _invertibility_gate,
    _ldexp,
    _overflow_checked,
    _scaled,
    _self_adjoint_part,
    _sigma_exponent,
    _unit_det,
    as_matrix,
    fro,
    frozen,
    gated_solve,
    sigma_ratio,
)

def _root_certified(p, tol: Tolerance) -> tuple:
    """The Hermitian part of p and the root R = L* of its Cholesky factor L (p = R* R),
    both read-only, once p passes GramForm's rule at tol.

    p must be finite and self-adjoint to within tol (the kernel's one test),
    and its Cholesky factor must exist and pass invertibility_margin at tol
    with a squared margin above GRAY_ZONE * n * eps.
    """
    p = as_matrix(p, square=True)
    p = _self_adjoint_part(p, tol)
    try:
        root = np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("no Cholesky factor: not positive definite") from None
    ok, margin = _invertibility_gate(root, tol)[:2]
    # rounding in the entries of p and in the factorization blurs its eigenvalues
    # by about n eps of the largest: a squared margin within GRAY_ZONE of that
    # cannot tell p from a semidefinite form
    if not ok or margin**2 <= GRAY_ZONE * p.shape[0] * _EPS:
        raise NotPositiveDefinite(f"root margin {margin:.3e} too small to certify positivity")
    return frozen(p), frozen(root.conj().T)


@dataclass(frozen=True, eq=False)
class GramForm:
    """A self-adjoint positive-definite matrix, the invariant of a unitary coset.

    GramForm(p) checks that p is finite and self-adjoint (hermitian_eig's
    test, ||p - p*|| <= tol.rel ||p|| + tol.abs), and certifies
    positivity through a root: the Cholesky factor R of p (p = R* R) must
    exist and pass invertibility_margin at the default tolerance, which is
    the module's rule sqrt(lambda_min / lambda_max) > tol.rel.  Taken from
    the entries of p, lambda_min / lambda_max is resolved only to about
    n eps, so the factor's squared margin must also exceed GRAY_ZONE * n * eps;
    a numerically semidefinite p (say B* B of a rank-deficient B, formed in
    floating point) is refused.  The stored matrix is the Hermitian part of p.

    Every Gram form keeps the root R (P = R* R) that certified it, outside its
    fields: A for gram, S^(1/2) V* for polar and spd_sqrt, and the adjoint of
    the Cholesky factor for GramForm(p) and as_gram_form.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix, root = _root_certified(self.matrix, DEFAULT_TOL)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_root", root)

    @classmethod
    def _certified(cls, p: np.ndarray, root: np.ndarray) -> GramForm:
        """The Gram form of p, a finite square complex128 matrix whose positivity the caller
        has certified by the margin of root, with p = root* root."""
        return _built(cls, matrix=_hermitian_part(p), _root=root)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def as_gram_form(p, tol: Tolerance = DEFAULT_TOL) -> GramForm:
    """p itself when it is a GramForm, else p certified by GramForm's rule at tol.

    GramForm(p) always certifies at the default tolerance; a caller that
    threads its own tol certifies a raw matrix through this instead.
    """
    if isinstance(p, GramForm):
        return p
    # _root_certified's matrix is already the Hermitian part: taking it again could overflow
    matrix, root = _root_certified(p, tol)
    return _built(GramForm, matrix=matrix, _root=root)


@dataclass(frozen=True)
class GroupMembership:
    """Membership flags with the witness quantities behind them."""

    in_gl: bool
    in_sl: bool
    in_u: bool
    in_su: bool
    abs_det: float
    unitarity_defect: float
    det_distance: float


def classify(a, tol: Tolerance = DEFAULT_TOL) -> GroupMembership:
    """Membership in GL, SL, U, SU at the working tolerance.

    in_gl: sigma_min > tol.rel * sigma_max; in_u additionally
    ||A* A - I|| <= tol.rel * n; in_sl additionally |det - 1| <= tol.rel * n;
    in_su = in_u and in_sl.  The implication chain su => u, sl => gl holds
    by construction.  The determinant follows the kernel's scale rule
    (kernel._unit_det), so abs_det and det_distance are numbers at any scale:
    a determinant past the largest double reads inf, and one below the
    smallest normal double is rounded from the determinant at unit scale.
    The unitarity defect is taken on A itself below sigma_max = 2^511, where
    A* A cannot overflow; from there on it is 4^e |B* B - 4^-e I| for
    B = A 2^-e, e putting sigma_max 2^-e in [1, 2), so a defect past the
    largest double reads inf, never NaN, and nothing warns.
    """
    return _classify(as_matrix(a, square=True), tol)


def _classify(am: np.ndarray, tol: Tolerance) -> GroupMembership:
    n = am.shape[0]
    in_gl, _, s, k = _invertibility_gate(am, tol)
    f = _sigma_exponent(s, k)
    d, e = _unit_det(am, f)
    # below sigma_max = 2^511 no entry of A* A, nor any partial sum of one, reaches 2^1022,
    # so it is formed unscaled; from there on the defect is taken on A at unit scale
    if f < 511:
        defect = fro(_adjoint(am) @ am - np.eye(n))
    else:  # |A* A - I|_F = 4^f |B* B - 4^-f I|_F for B = A 2^-f, sigma_max 2^-f in [1, 2)
        unit = _scaled(am, -f)
        defect = _ldexp(fro(_adjoint(unit) @ unit - math.ldexp(1.0, -2 * f) * np.eye(n)), 2 * f)
    det_distance = _complex_abs(_ldexp(d, n * e) - 1.0)
    in_u = in_gl and defect <= tol.rel * n
    in_sl = in_gl and det_distance <= tol.rel * n
    return GroupMembership(
        in_gl=in_gl,
        in_sl=in_sl,
        in_u=in_u,
        in_su=in_u and in_sl,
        abs_det=_ldexp(_complex_abs(d), n * e),
        unitarity_defect=defect,
        det_distance=det_distance,
    )


def gram(a, tol: Tolerance = DEFAULT_TOL) -> GramForm:
    """A* A of an invertible matrix, as a GramForm (NumericOverflow if it over- or underflows).

    Raises SingularMatrix exactly when invertibility_margin calls A singular
    at tol; A's margin is the root margin of A* A, so no other positivity
    check runs, and the form is positive definite at the caller's tolerance.
    """
    return _gram(as_matrix(a, square=True), tol)


def _gated_margin(am: np.ndarray, tol: Tolerance, what: str) -> tuple:
    """(margin, e) of A once the gate accepts A, e putting sigma_max 2^-e in [1, 2);
    SingularMatrix, naming what needed it, otherwise."""
    ok, margin, s, f = _invertibility_gate(am, tol)
    if not ok:
        raise SingularMatrix(f"{what} needs an invertible matrix (margin {margin:.3e})")
    return margin, _sigma_exponent(s, f)


def _gram(am: np.ndarray, tol: Tolerance) -> GramForm:
    """A* A as a GramForm, for a validated A that the gate must accept.

    A is a root of A* A and its margin has passed the gate, which certifies
    positivity.  Raises NumericOverflow when A* A is not finite (the entries
    of A are) and when a diagonal entry, the squared length of a column of
    A, is below the smallest normal double: the products underflowed, and
    the form's eigenvalues are lost in rounding or are zero.
    """
    _gated_margin(am, tol, "gram")
    return GramForm._certified(_gram_matrix(am), am)


def _gram_matrix(am: np.ndarray) -> np.ndarray:
    """A* A, made exactly Hermitian, of a validated matrix or of each matrix in a stack (k, n, n).

    Raises NumericOverflow when an entry is not finite, and when a diagonal entry,
    the squared length of a column of A, is below the smallest normal double.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        p = _hermitian_part(am.conj().swapaxes(-1, -2).copy() @ am)
    if not np.isfinite(p).all():
        raise NumericOverflow("gram form A* A overflowed: the entries of A are too large")
    if not p.diagonal(0, -2, -1).real.min() >= _FLOAT_TINY:
        raise NumericOverflow("gram form A* A underflowed: the entries of A are too small")
    return p


def unitarily_equivalent(a1, a2, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, np.ndarray | None]:
    """Whether A2 = T A1 for some unitary T; returns (verdict, T or None).

    Both inputs must pass the invertibility gate (SingularMatrix otherwise).
    Scale follows equivalence's rule: A2 = T A1 exactly when s A2 = T s A1,
    so both are first multiplied by the one power of two 2^-e that puts the
    larger sigma_max in [1, 2), exact short of underflow, and tol.abs applies
    at that unit scale.  The Gram rule alone decides: with P = A* A of the
    scaled pair, ||P1 - P2|| <= tol.rel (||P1|| + ||P2||) + tol.abs, the scan
    bound of lattice_equivalent at B = I.  The witness T = A2 A1^-1, the same
    at every scale, comes from the gated solve and is not tested again: T* T -
    I = A1^-* (P2 - P1) A1^-1, so ||T* T - I|| <= ||P1 - P2|| / sigma_min(A1)^2
    plus the solve's rounding, about n eps cond(A1).
    """
    m1 = as_matrix(a1, square=True)
    m2 = as_matrix(a2, square=True)
    if m1.shape != m2.shape:
        raise DimensionMismatch(f"shapes differ: {m1.shape} vs {m2.shape}")
    # A1* has A1's singular values, so the gate's margin on A1 also gates the solve
    (margin, e1), (_, e2) = (_gated_margin(m, tol, "gram") for m in (m1, m2))
    e = max(e1, e2)
    m1, m2 = _scaled(m1, -e), _scaled(m2, -e)
    p1, p2 = _gram_matrix(m1), _gram_matrix(m2)
    if fro(p1 - p2) > tol.rel * (fro(p1) + fro(p2)) + tol.abs:
        return False, None
    witness = _adjoint(gated_solve(_adjoint(m1), margin, fro(m1), _adjoint(m2), tol))
    return True, frozen(witness)


def spd_sqrt(p: GramForm, tol: Tolerance = DEFAULT_TOL) -> GramForm:
    """The unique self-adjoint positive-definite square root.

    A raw matrix is certified as a Gram form at tol first (as_gram_form).
    The root R that certified P (P = R* R) takes one SVD, R = W S V*, so
    P = V S^2 V*: S must pass the module's rule, s_min / s_max > tol.rel, read
    from R and not from the entries of P, whose rounding blurs an eigenvalue
    below ~eps of the largest.  The square root is V S V*, with the root
    S^(1/2) V*, whose margin sqrt(s_min / s_max) is larger still, so it is a
    Gram form without a further check.
    """
    p = as_gram_form(p, tol)
    _, s, vh = np.linalg.svd(p._root)
    margin = sigma_ratio(float(s[0]), float(s[-1]))
    if not margin > tol.rel:
        raise NotPositiveDefinite(f"root margin {margin:.3e} not above tolerance")
    q = _hermitian_part((vh.conj().T * s) @ vh)
    return GramForm._certified(q, np.sqrt(s)[:, None] * vh)


def polar(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, GramForm]:
    """Polar decomposition A = U P with U unitary and P the canonical Gram root.

    Both factors come from one SVD A = W S V*: U = W V* and P = V S V*, the
    self-adjoint positive-definite square root of A* A.  The SVD works on A
    itself, so the condition number is never squared and an ill-conditioned
    but invertible A takes the same route as any other.  LAPACK's SVD is
    backward stable, so A - U P and U* U - I are rounding and are not tested
    again (cxlat polar reports both).  P has the root S^(1/2) V*, whose margin
    sqrt(s_min / s_max) exceeds A's margin, which passed the invertibility
    gate, so P needs no further positivity check.  A P that is not finite
    (sigma_max past the largest double) is NumericOverflow.
    """
    am = as_matrix(a, square=True)
    _gated_margin(am, tol, "polar")
    w, s, vh = np.linalg.svd(am)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below, not warned
        pm = (vh.conj().T * s) @ vh
    p = GramForm._certified(_overflow_checked(pm, "polar factor P"), np.sqrt(s)[:, None] * vh)
    return frozen(w @ vh), p


def sl_normalize(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, complex]:
    """Scale an invertible matrix to determinant one by its principal root.

    Returns (A / delta, delta) where delta is the principal n-th root of
    det(A), the one with argument in (-pi/n, pi/n].

    The determinant follows the kernel's scale rule (kernel._unit_det): one
    that is not a finite normal double is taken again on A 2^-e, e putting
    sigma_max in [1, 2), exact short of underflow, and det(A) is that
    determinant times 2^(n e), so delta is its root times 2^e.  The one
    division is A 2^-f over delta 2^-f, f putting sigma_max in [1, 2) (f = e
    wherever e != 0): short of underflow it has the bits of A / delta, and
    numpy's complex division (Smith's method), which can overflow in between
    on entries past ~9e307, stays finite.  NumericOverflow only where the
    quotient is not finite (a determinant that still under- or overflows).
    det(A / delta) is one in exact arithmetic, and its floating-point value
    misses one by rounding that grows with cond(A), so it is not tested again.
    """
    am = as_matrix(a, square=True)
    f = _gated_margin(am, tol, "sl_normalize")[1]
    n = am.shape[0]
    d, e = _unit_det(am, f)
    # a det that still under- or overflows (delta 0 or not finite) leaves out not finite:
    # NumericOverflow, never warned
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = complex(_complex_abs(d) ** (1.0 / n) * np.exp(1j * np.angle(d) / n))
        out = _overflow_checked(_scaled(am, -f) / _ldexp(root, e - f), "A / det(A)^(1/n)")
    return frozen(out), _ldexp(root, e)


def su_sl_canonical(b, tol: Tolerance = DEFAULT_TOL) -> GramForm:
    """Gram form of a determinant-one matrix; the invariant of its SU coset.

    NotInSL unless classify puts B in SL at tol, the one test: det(B* B) =
    |det B|^2 is then one to within about 2 tol.rel n.
    """
    bm = as_matrix(b, square=True)
    membership = _classify(bm, tol)
    if not membership.in_sl:
        raise NotInSL(f"determinant distance from one is {membership.det_distance:.3e}")
    # in_sl implies in_gl: _classify's gate has certified B, the root of B* B
    return GramForm._certified(_gram_matrix(bm), bm)
