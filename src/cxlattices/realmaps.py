"""Real-linear maps on C^n in four interchangeable matrix representations.

A map T that is additive and commutes with real (not complex) scalars is
determined by how it mixes real and imaginary parts.  Four descriptions of
the same object show up, each convenient for a different question:

* ``BlockForm``      -- T(x + iy) = E1 x + E2 y + i (E3 x + E4 y) with four
  real n-by-n coefficient blocks; the fully general description.
* ``SplitForm``      -- T(x + iy) = x + A y + i B y; the shape a lattice
  basis takes after column normalization.  T is invertible exactly when B is
  (but margin(realify(T)) <= margin(B): see is_invertible).
* ``ConjugatePairForm`` -- T(z) = M z + conj(N z) with complex M, N; the
  algebraically pleasant description, where strict domination of the
  conjugate part (``majorizes``) certifies invertibility.
* ``NormalizedForm`` -- T(z) = z + conj(E z); what remains of a dominated
  map after dividing out its complex-linear part.

Conversions route through the conjugate-pair form and are validated at
construction by evaluating both sides on the 2n standard basis vectors of
C^n over R; a mismatch raises InternalCheckError rather than returning
silently wrong coefficients.  The normalized target is the E of the
factorization T = M o (z + conj(E z)) that normalize_post_composition
computes; majorizes reads its verdict off domination_ratio.  Both routes
let solve's gate decide whether M is singular, and each rule takes one
route: invertibility reads one SVD of the realified map for every form.

A form's constructor validates the caller's coefficients once.  The real
blocks of a block or split form are validated in float64: a real, integer or
boolean block is copied once, to float64, and a complex one must have
imaginary parts exactly zero before its real part is copied; the blocks are
read-only and C-ordered either way.  The per-dimension constant [I | iI]
that realify and the conversion checks read is built once per process and
is read-only.  The forms
this module computes from validated ones (the conjugate pair behind a
conversion, convert's outputs, the normalized factor) are built by the
kernel's _built.  Only a sum of finite coefficients can overflow there, and
it is NumericOverflow (_overflow_checked), not the constructor's ValueError:
the caller's coefficients were well formed.  No operation on a form
validates its coefficients again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalCheckError,
    NotInSplitClass,
    NumericOverflow,
    SingularM,
    SingularMatrix,
)
from .kernel import (
    _EPS,
    DEFAULT_TOL,
    Tolerance,
    _adjoint,
    _exponent,
    _hermitian_eig,
    _hermitian_part,
    _built,
    _invertibility_gate,
    _operator_norm,
    _overflow_checked,
    _scaled,
    _solve,
    as_columns,
    as_matrix,
    fro,
    frozen,
    real_columns,
)

BLOCK = "block"
SPLIT = "split"
CONJUGATE_PAIR = "conjugate_pair"
NORMALIZED = "normalized"


def _square_block(x, n: int | None = None, dtype: type = np.complex128) -> np.ndarray:
    c = as_matrix(x, square=True, dtype=dtype)
    if n is not None and c.shape[0] != n:
        raise DimensionMismatch(f"coefficient blocks disagree: {c.shape[0]} vs {n}")
    return c


def _real_square(x, n: int | None = None) -> np.ndarray:
    """A real coefficient block, validated once into a read-only C-ordered float64 copy.

    A real, integer or boolean input is copied once, to float64.  Any other
    (complex) input is read as complex128, as the other forms read theirs, and
    must have imaginary parts exactly zero; its real part is then copied.
    """
    x = np.asarray(x)
    if x.dtype.kind in "biuf":
        c = _square_block(x, n, np.float64)
        # as_matrix's copy keeps the memory order of a transposed input
        return c if c.flags.c_contiguous else frozen(np.ascontiguousarray(c))
    c = _square_block(x, n)
    if np.any(c.imag != 0.0):
        raise ValueError("coefficient block must be real (imaginary parts exactly zero)")
    return frozen(c.real.copy())


@dataclass(frozen=True, eq=False)
class BlockForm:
    """T(x + iy) = E1 x + E2 y + i (E3 x + E4 y), blocks real n-by-n."""

    e1: np.ndarray
    e2: np.ndarray
    e3: np.ndarray
    e4: np.ndarray

    def __post_init__(self) -> None:
        e1 = _real_square(self.e1)
        n = e1.shape[0]
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", _real_square(self.e2, n))
        object.__setattr__(self, "e3", _real_square(self.e3, n))
        object.__setattr__(self, "e4", _real_square(self.e4, n))

    @property
    def dim(self) -> int:
        return self.e1.shape[0]


@dataclass(frozen=True, eq=False)
class SplitForm:
    """T(x + iy) = x + A y + i B y, A and B real n-by-n."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = _real_square(self.a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", _real_square(self.b, a.shape[0]))

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True, eq=False)
class ConjugatePairForm:
    """T(z) = M z + conj(N z), M and N complex n-by-n."""

    m: np.ndarray
    n: np.ndarray

    def __post_init__(self) -> None:
        m = _square_block(self.m)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", _square_block(self.n, m.shape[0]))

    @property
    def dim(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True, eq=False)
class NormalizedForm:
    """T(z) = z + conj(E z), E complex n-by-n."""

    e: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "e", _square_block(self.e))

    @property
    def dim(self) -> int:
        return self.e.shape[0]


RealLinearMap = Union[BlockForm, SplitForm, ConjugatePairForm, NormalizedForm]
# the one kind -> class table; a class's dataclass fields are its coefficient matrices
FORMS = {BLOCK: BlockForm, SPLIT: SplitForm, CONJUGATE_PAIR: ConjugatePairForm, NORMALIZED: NormalizedForm}
KINDS = tuple(FORMS)


def kind_of(t: RealLinearMap) -> str:
    for kind, form in FORMS.items():
        if isinstance(t, form):
            return kind
    raise TypeError(f"not a real-linear map representation: {type(t).__name__}")


def apply(t: RealLinearMap, z) -> np.ndarray:
    """Evaluate the map at one point or columnwise at a stack of points."""
    w, vector = as_columns(z, t.dim)
    out = _apply(t, w)
    return frozen(out[:, 0] if vector else out)


def _apply(t: RealLinearMap, w: np.ndarray) -> np.ndarray:
    """apply on a validated 2-d stack of columns."""
    x, y = w.real, w.imag
    if isinstance(t, BlockForm):
        out = (t.e1 @ x + t.e2 @ y) + 1j * (t.e3 @ x + t.e4 @ y)
    elif isinstance(t, SplitForm):
        out = (x + t.a @ y) + 1j * (t.b @ y)
    elif isinstance(t, ConjugatePairForm):
        out = t.m @ w + np.conj(t.n @ w)
    elif isinstance(t, NormalizedForm):
        out = w + np.conj(t.e @ w)
    else:
        raise TypeError(f"not a real-linear map representation: {type(t).__name__}")
    return out


@functools.lru_cache(maxsize=32)
def _real_basis(n: int) -> np.ndarray:
    """[I | iI], the 2n standard basis vectors of C^n over R as read-only columns, built once per process."""
    return frozen(np.hstack([np.eye(n), 1j * np.eye(n)]))


def realify(t: RealLinearMap) -> np.ndarray:
    """The 2n-by-2n real matrix of T acting on (x, y) coordinates.

    Columns are the images of the standard basis of C^n over R, so for a
    BlockForm this is exactly [[E1, E2], [E3, E4]].
    """
    return frozen(real_columns(_apply(t, _real_basis(t.dim))))


def _check_apply_equal(t_in: RealLinearMap, t_out: RealLinearMap, tol: Tolerance, gl: np.ndarray | None = None) -> None:
    w_in = _apply(t_in, _real_basis(t_in.dim))
    w_out = _apply(t_out, _real_basis(t_out.dim))
    if gl is not None:
        w_out = gl @ w_out
    scale = max(fro(w_in), fro(w_out), 1.0)
    defect = fro(w_in - w_out)
    if defect > tol.rel * scale + tol.abs:
        raise InternalCheckError(f"conversion apply-equality defect {defect:.3e} at scale {scale:.3e}")


def _to_conjugate_pair(t: RealLinearMap) -> ConjugatePairForm:
    if isinstance(t, ConjugatePairForm):
        return t
    if isinstance(t, NormalizedForm):
        return _built(ConjugatePairForm, m=np.eye(t.dim, dtype=np.complex128), n=t.e)
    # sums of finite coefficients can overflow: NumericOverflow, never warned
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(t, BlockForm):
            m = 0.5 * ((t.e1 + t.e4) + 1j * (t.e3 - t.e2))
            n = 0.5 * ((t.e1 - t.e4) - 1j * (t.e2 + t.e3))
        elif isinstance(t, SplitForm):
            eye = np.eye(t.dim)
            m = 0.5 * ((eye + t.b) - 1j * t.a)
            n = 0.5 * ((eye - t.b) - 1j * t.a)
        else:
            raise TypeError(f"not a real-linear map representation: {type(t).__name__}")
    return _built(
        ConjugatePairForm,
        m=_overflow_checked(m, "conjugate-pair coefficient M"),
        n=_overflow_checked(n, "conjugate-pair coefficient N"),
    )


def convert(t: RealLinearMap, target: str, tol: Tolerance = DEFAULT_TOL) -> RealLinearMap:
    """Re-express the map in another representation.

    Targets "block", "split" and "conjugate_pair" return a map equal to the
    input (checked on the 2n real basis directions).  Target "normalized"
    returns the E of the factorization T = M o (z + conj(E z)), that is
    normalize_post_composition(t, tol)[1]: the result equals the input only
    when M = I; use normalize_post_composition to keep the complex-linear
    factor M.  Raises NotInSplitClass when the split structure is absent
    and SingularM when M is singular at tolerance.
    """
    if target not in KINDS:
        raise ValueError(f"unknown representation {target!r}; expected one of {KINDS}")
    if kind_of(t) == target:
        return t
    if target == NORMALIZED:
        return normalize_post_composition(t, tol)[1]
    cp = _to_conjugate_pair(t)
    if target == CONJUGATE_PAIR:
        _check_apply_equal(t, cp, tol)
        return cp
    # M + N and M - N can overflow: NumericOverflow, never warned
    with np.errstate(over="ignore", invalid="ignore"):
        s, d = cp.m + cp.n, cp.m - cp.n
    s, d = _overflow_checked(s, "M + N"), _overflow_checked(d, "M - N")
    if target == BLOCK:
        # real blocks are kept contiguous, as the constructor keeps them
        out: RealLinearMap = _built(
            BlockForm, e1=s.real.copy(), e2=-s.imag, e3=d.imag.copy(), e4=d.real.copy()
        )
    else:  # SPLIT
        scale = 1.0 + fro(cp.m) + fro(cp.n)
        if fro(s.real - np.eye(cp.dim)) > tol.rel * scale + tol.abs or fro(d.imag) > tol.rel * scale + tol.abs:
            raise NotInSplitClass("map does not fix real parts (needs E1 = I and E3 = 0)")
        out = _built(SplitForm, a=-s.imag, b=d.real.copy())
    _check_apply_equal(t, out, tol)
    return out


def is_invertible(t: RealLinearMap, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Invertibility of T as a map R^2n -> R^2n at the working margin.

    True when sigma_min(realify(T)) > tol.rel * sigma_max, for every form.  A
    SplitForm is invertible exactly when B is, yet its realified R = [[I, A],
    [0, B]] has margin(R) <= margin(B), and far less for a large A: a verdict
    read from B could only agree with R's or be wrong, so it is not taken.
    """
    return invertibility(t, tol)[0]


def invertibility(t: RealLinearMap, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """is_invertible's verdict and the realified margin sigma_min / sigma_max, from one SVD."""
    # realify sums the coefficients' images, which can overflow: NumericOverflow,
    # never warned; the SVD runs in complex arithmetic, as on a validated matrix
    with np.errstate(over="ignore", invalid="ignore"):
        r = realify(t)
    return _invertibility_gate(_overflow_checked(r, "realified map").astype(np.complex128), tol)[:2]


def majorizes(t: RealLinearMap, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether |M z| strictly dominates |N z| for every z != 0.

    Read off domination_ratio: M invertible and operator_norm(N M^-1) below
    1 - tol.rel.  Strict domination certifies invertibility of the whole map.
    """
    return dominates(domination_ratio(t, tol), tol)


def dominates(ratio: float | None, tol: Tolerance = DEFAULT_TOL) -> bool:
    """majorizes' verdict on a domination_ratio reading: a ratio below 1 - tol.rel."""
    return ratio is not None and ratio < 1.0 - tol.rel


def domination_ratio(t: RealLinearMap, tol: Tolerance = DEFAULT_TOL) -> float | None:
    """operator_norm(N M^-1), or None when solve's gate finds M singular.

    N M^-1 does not change when M and N are multiplied by a common power of
    two, so the one solve runs where their largest real or imaginary part is
    in [1, 2), exact short of underflow (tol.abs applies there).  Its LU
    overflows only where N M^-1 nears the largest double or passes it (M passes
    the gate yet is tiny): the ratio is inf.  An M that underflows to singular
    there, against an N past the range of the doubles from it, gives None.
    """
    cp = _to_conjugate_pair(t)
    both = np.ascontiguousarray(np.concatenate((cp.m, cp.n)))  # M over N: one scale for both
    both = _scaled(both, -_exponent(float(np.abs(both.view(np.float64)).max())))
    try:
        k = _solve(both[: t.dim].T, both[t.dim :].T, tol).T
    except SingularMatrix:
        return None
    except NumericOverflow:
        return float("inf")
    return _operator_norm(k)


def normalize_post_composition(
    t: RealLinearMap, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, NormalizedForm]:
    """Factor T = G o (z + conj(E z)) with G = M complex-linear.

    Returns (G, NormalizedForm(E)) with E = conj(M)^-1 N.  The factorization
    is verified on the 2n real basis directions and fails loudly on
    mismatch.  Raises SingularM when M is not invertible at tolerance.
    """
    cp = _to_conjugate_pair(t)
    try:
        e = _solve(np.conj(cp.m), cp.n, tol)
    except SingularMatrix as exc:
        raise SingularM("complex-linear part M is singular; cannot normalize") from exc
    normal = _built(NormalizedForm, e=e)
    _check_apply_equal(t, normal, tol, gl=cp.m)
    return frozen(cp.m.copy()), normal


def contraction_check(t: NormalizedForm, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Strict contraction test for the conjugate coefficient E.

    Route one: operator_norm(E) < 1 - tol.rel.  Route two: the smallest
    eigenvalue of I - E* E exceeds the algebraically matching threshold
    1 - (1 - tol.rel)^2.  Both run; a decisive disagreement raises
    InternalCheckError.
    """
    if not isinstance(t, NormalizedForm):
        raise TypeError("contraction_check expects a NormalizedForm")
    sigma = _operator_norm(t.e)
    first = sigma < 1.0 - tol.rel
    # E* E overflows for a large E: h is then NumericOverflow, never warned
    with np.errstate(over="ignore", invalid="ignore"):
        h = _hermitian_part(np.eye(t.dim) - _adjoint(t.e) @ t.e)
    wmin = float(_hermitian_eig(_overflow_checked(h, "I - E* E"), tol)[0][0])
    second = wmin > 1.0 - (1.0 - tol.rel) ** 2
    if first != second:
        if abs(sigma - (1.0 - tol.rel)) > 1e3 * _EPS * max(1.0, sigma):
            raise InternalCheckError(
                f"contraction routes disagree: operator norm {sigma!r}, min eigenvalue {wmin!r}"
            )
    return first
