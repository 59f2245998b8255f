"""Closed forms for real-linear maps in complex dimension one.

Every real-linear T on C is T(x + iy) = a x + i b y for two complex
numbers a, b, equivalently T(z) = alpha z + beta conj(z) with
alpha = (a + b)/2, beta = (a - b)/2.  When a is nonzero the same map is
a (x + i c y) with c = b / a, and when |alpha| > |beta| it rewrites as
theta (z + mu conj(z)) with theta = alpha, mu = beta / alpha, |mu| < 1.

Invertibility is |alpha| != |beta|.  In the c form the criterion is
Re(c) != 0: the realified determinant is |alpha|^2 - |beta|^2
= Re(conj(a) b) = |a|^2 Re(c).  Everything here is plain complex
arithmetic; the matrix modules enter only as cross-checks, which makes
this module an independent oracle for the general-dimension code.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalCheckError, MajorizationFails, NumericOverflow
from .kernel import DEFAULT_TOL, Tolerance, _built, _complex_abs, in_gray_zone
from .realmaps import BlockForm, invertibility


def _finite(z: complex, label: str) -> complex:
    z = complex(z)
    if not (cmath.isfinite(z)):
        raise ValueError(f"{label} must be finite (no NaN/Inf)")
    return z


def _finite_moduli(a: complex, b: complex, alpha: complex, beta: complex) -> None:
    """Raise NumericOverflow unless |a|, |b|, |alpha| and |beta| are finite: the forms and
    their checks read each, and a finite complex number may still have a modulus past the
    largest double."""
    for label, z in (("a", a), ("b", b), ("alpha", alpha), ("beta", beta)):
        if not math.isfinite(_complex_abs(z)):
            raise NumericOverflow(f"|{label}| overflows; rescale the map first")


@dataclass(frozen=True)
class ScalarForms:
    """The four presentations of one scalar real-linear map.

    c is present exactly when a != 0; theta and mu exactly when
    |alpha| > |beta| with margin (Eq. of the holomorphic-dominant case).
    Construction re-validates that all present forms agree on z = 1, i.
    """

    a: complex
    b: complex
    alpha: complex
    beta: complex
    c: complex | None
    theta: complex | None
    mu: complex | None

    def __post_init__(self) -> None:
        _finite_moduli(self.a, self.b, self.alpha, self.beta)
        bound = DEFAULT_TOL.rel * (abs(self.a) + abs(self.b) + 1.0)
        # a drift passes only when its modulus is <= bound: one that overflows to inf, or
        # a NaN, fails.  The alpha/beta form must reproduce a and b (values at z = 1, i)
        if not _complex_abs(self.alpha + self.beta - self.a) <= bound:
            raise InternalCheckError("alpha + beta drifted from a")
        if not _complex_abs(self.alpha - self.beta - self.b) <= bound:
            raise InternalCheckError("alpha - beta drifted from b")
        if self.c is not None:
            if self.a == 0:
                raise InternalCheckError("c form requires a != 0")
            if not _complex_abs(self.a * self.c - self.b) <= bound:
                raise InternalCheckError("a * c drifted from b")
        if (self.theta is None) != (self.mu is None):
            raise InternalCheckError("theta and mu are present only together")
        if self.theta is not None:
            if self.theta == 0 or not _complex_abs(self.mu) < 1.0:
                raise InternalCheckError("theta form requires theta != 0 and |mu| < 1")
            if not _complex_abs(self.theta * (1 + self.mu) - (self.alpha + self.beta)) <= bound:
                raise InternalCheckError("theta form drifted at z = 1")
            if not _complex_abs(self.theta * (1 - self.mu) - (self.alpha - self.beta)) <= bound:
                raise InternalCheckError("theta form drifted at z = i")


def evaluate(f: ScalarForms, z: complex) -> complex:
    """Apply the map: alpha z + beta conj(z)."""
    return f.alpha * z + f.beta * z.conjugate()


def _gap_scale(alpha: complex, beta: complex) -> tuple[float, float]:
    return abs(abs(alpha) - abs(beta)), abs(alpha) + abs(beta)


def from_ab(a: complex, b: complex, tol: Tolerance = DEFAULT_TOL) -> ScalarForms:
    """Build all available scalar forms from T(x + iy) = a x + i b y."""
    a = _finite(a, "a")
    b = _finite(b, "b")
    alpha = (a + b) / 2.0
    beta = (a - b) / 2.0
    c = None
    if a != 0:
        c = b / a
        if not cmath.isfinite(c):
            raise ValueError("quotient b / a overflows; rescale the map first")
    _finite_moduli(a, b, alpha, beta)  # a +- b may overflow too
    theta = mu = None
    gap, scale = _gap_scale(alpha, beta)
    if abs(alpha) > abs(beta) and gap > tol.rel * scale:
        theta = alpha
        mu = beta / alpha
    return ScalarForms(a=a, b=b, alpha=alpha, beta=beta, c=c, theta=theta, mu=mu)


def _as_block(f: ScalarForms) -> BlockForm:
    # T(x + iy) = a x + i b y realifies to [[Re a, -Im b], [Im a, Re b]]
    e1, e2, e3, e4 = (np.array([[x]]) for x in (f.a.real, -f.b.imag, f.a.imag, f.b.real))
    return _built(BlockForm, e1=e1, e2=e2, e3=e3, e4=e4)


def is_invertible_1d(f: ScalarForms, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Invertibility by the scalar criterion |alpha| != |beta|, margin-aware.

    Cross-checked against the realified-matrix route; the two thresholds
    coincide algebraically (the realification has singular values
    |alpha| +- |beta|), so a decisive disagreement is an internal error.
    """
    gap, scale = _gap_scale(f.alpha, f.beta)
    if scale == 0.0:
        return False
    threshold = tol.rel * scale
    verdict = gap > threshold
    realified, ratio = invertibility(_as_block(f), tol)
    if verdict != realified:
        if not (in_gray_zone(gap, threshold) or in_gray_zone(ratio, tol.rel)):
            raise InternalCheckError(
                "scalar and realified invertibility checks decisively disagree"
            )
    return verdict


def to_thetamu(f: ScalarForms, tol: Tolerance = DEFAULT_TOL) -> tuple[complex, complex]:
    """The normalized scalar form theta (z + mu conj(z)).

    Requires |alpha| > |beta| with margin; the invertible but
    conjugation-dominant case |beta| > |alpha| is excluded too.
    """
    gap, scale = _gap_scale(f.alpha, f.beta)
    if abs(f.alpha) <= abs(f.beta) or gap <= tol.rel * scale:
        raise MajorizationFails(
            f"|alpha| = {abs(f.alpha):.6g} does not dominate |beta| = {abs(f.beta):.6g}"
        )
    theta = f.alpha
    mu = f.beta / f.alpha
    for z in (1.0 + 0.0j, 1.0j):
        lhs = theta * (z + mu * z.conjugate())
        rhs = evaluate(f, z)
        if abs(lhs - rhs) > tol.rel * (abs(rhs) + scale):
            raise InternalCheckError("theta form fails evaluation equality")
    return theta, mu
