"""Closed forms for real-linear maps in complex dimension one.

Every real-linear T on C is T(x + iy) = a x + i b y for two complex
numbers a, b, equivalently T(z) = alpha z + beta conj(z) with
alpha = (a + b)/2, beta = (a - b)/2.  When a is nonzero the same map is
a (x + i c y) with c = b / a, and when |alpha| > |beta| it rewrites as
theta (z + mu conj(z)) with theta = alpha, mu = beta / alpha, |mu| < 1.

Invertibility is |alpha| != |beta|.  In the c form the criterion is
Re(c) != 0: the realified determinant is |alpha|^2 - |beta|^2
= Re(conj(a) b) = |a|^2 Re(c).  Every verdict here reads one closed form,
_margin, and everything is plain complex arithmetic: no matrix module is
imported, which makes this module an independent oracle for the
general-dimension code.  Its cross-checks against that code live in the
tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import InternalCheckError, MajorizationFails, NumericOverflow
from .kernel import DEFAULT_TOL, Tolerance, _built, _complex_abs, _exponent, _ldexp


_DRIFT_FLOOR = 4 * math.ulp(0.0)


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
    |alpha| > |beta| with margin (Eq. of the holomorphic-dominant case) and
    the computed |mu| < 1.  A form built by hand is validated: all present
    forms must agree on z = 1, i.  from_ab builds its forms without that
    re-test of its own identities.
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
        # relative to the map's own size, plus a few units of the smallest subnormal for
        # the rounding of alpha and beta there; b / a, taken through a denominator rounded
        # to that grid when a is subnormal, may miss by those units times |c|
        bound = DEFAULT_TOL.rel * (abs(self.a) + abs(self.b)) + _DRIFT_FLOOR
        # a drift passes only when its modulus is <= bound: one that overflows to inf, or
        # a NaN, fails.  The alpha/beta form must reproduce a and b (values at z = 1, i)
        if not _complex_abs(self.alpha + self.beta - self.a) <= bound:
            raise InternalCheckError("alpha + beta drifted from a")
        if not _complex_abs(self.alpha - self.beta - self.b) <= bound:
            raise InternalCheckError("alpha - beta drifted from b")
        if self.c is not None:
            if self.a == 0:
                raise InternalCheckError("c form requires a != 0")
            slack = bound + _DRIFT_FLOOR * _complex_abs(self.c)
            if not _complex_abs(self.a * self.c - self.b) <= slack:
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


def _margin(a: complex, b: complex) -> float:
    """The signed margin (|alpha|^2 - |beta|^2) / (|alpha| + |beta|)^2 of T(x + iy) = a x + i b y.

    It is Re(a conj(b)) / (|alpha| + |beta|)^2, taken on a and b at their unit scale
    (their largest part in [1, 2)), so it neither cancels, overflows nor divides by an
    underflow; 0 for the zero map.  Its modulus is sigma_min / sigma_max of the
    realification, whose singular values are |alpha| +- |beta|.
    """
    top = max(abs(a.real), abs(a.imag), abs(b.real), abs(b.imag))
    if not top:
        return 0.0
    e = _exponent(top)
    a, b = _ldexp(a, -e), _ldexp(b, -e)
    s = abs(a + b) / 2 + abs(a - b) / 2  # |alpha| + |beta| at this scale, at least 1
    return (a.real * b.real + a.imag * b.imag) / s / s


def _thetamu(a: complex, b: complex, alpha: complex, beta: complex, tol: Tolerance):
    """(theta, mu) = (alpha, beta / alpha) where |alpha| > |beta| with margin at tol and the
    computed |mu| < 1, else None: below a margin of about eps / 4, |mu| can round to 1."""
    if alpha and _margin(a, b) > tol.rel:
        mu = beta / alpha
        if _complex_abs(mu) < 1.0:
            return alpha, mu
    return None


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
    theta, mu = _thetamu(a, b, alpha, beta, tol) or (None, None)
    return _built(ScalarForms, a=a, b=b, alpha=alpha, beta=beta, c=c, theta=theta, mu=mu)


def is_invertible_1d(f: ScalarForms, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Invertibility by the scalar criterion |alpha| != |beta|, margin-aware.

    |_margin| > tol.rel: the realified gate's own rule sigma_min / sigma_max > tol.rel,
    since the realification has singular values |alpha| +- |beta|.
    """
    return abs(_margin(f.a, f.b)) > tol.rel


def to_thetamu(f: ScalarForms, tol: Tolerance = DEFAULT_TOL) -> tuple[complex, complex]:
    """The normalized scalar form theta (z + mu conj(z)): theta = alpha, mu = beta / alpha.

    Requires |alpha| > |beta| with margin at tol and a computed |mu| < 1, from_ab's
    gate; the invertible but conjugation-dominant case |beta| > |alpha| is excluded
    too.  The form agrees with f at z = 1, i by theta (1 +- mu) = alpha +- beta, so
    it is not evaluated again.
    """
    form = _thetamu(f.a, f.b, f.alpha, f.beta, tol)
    if form is None:
        raise MajorizationFails(
            f"|alpha| = {abs(f.alpha):.6g} does not dominate |beta| = {abs(f.beta):.6g}"
        )
    return form
