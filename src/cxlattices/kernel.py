"""Dense complex linear algebra primitives.

Everything else in the package sits on these few operations.  Singular
values come from LAPACK's SVD of A itself, resolved to about eps relative
(the route through A* A would only reach sqrt(eps)); they alone decide
singularity, through invertibility_margin (its body, _invertibility_gate,
also hands back the values).  solve and det are LAPACK's LU
(numpy.linalg), with solve gated by that margin and checked by its
residual, and det read at any scale by the scale rule below; gated_solve
is that step for a caller that already holds the margin and the norm of A
(a lattice basis carries its own).  A solution that is not finite (the
LU overflowed) is NumericOverflow.  The Hermitian eigensolver is still
self-contained (cyclic Jacobi rotations), so its behavior is easy to
audit at the small dimensions this package targets.

Array inputs enter through as_matrix, as_vector or as_columns, which share
the one finiteness check, and they are validated once, at the boundary: a
public function validates only the arrays its caller passes and then runs
its body (_singular_values, _invertibility_gate, _unit_det, _adjoint, _solve,
_hermitian_eig, _operator_norm, or gated_solve, solve's step behind the
gate) on finite complex128 arrays (as_matrix copies to float64 instead
where a caller asks for it: the real coefficient blocks of realmaps).
Library code hands arrays it has built or validated to these bodies, never
back to a public function, so each array the caller passes is copied and
checked once per call.  A body does
not check finiteness: where the library computes an array that can
overflow although its operands are finite (a sum, a product, a division
by an underflowed determinant), it runs _overflow_checked there, before any
body sees the array, and an overflow is NumericOverflow.  Values the library
builds from checked fields (forms, bases, points) are made by _built,
without their constructor's validation.
The bodies _singular_values, _invertibility_gate and _det also take a stack
(k, m, n) of matrices: numpy's linalg routines run LAPACK once per matrix,
with the same results bit for bit, in one call, so a caller that holds a
pair (lattice_equivalent) pays the call overhead once.
These conventions have their one home here: in_gray_zone (a margin too
close to its threshold to call), real_columns (columns in C^n as columns
in R^2n), _hermitian_part (0.5 (P + P*), also of each matrix in a stack)
and _self_adjoint_part, the one self-adjointness test, whose bound
||P - P*|| <= tol.rel ||P|| + tol.abs scales with P (hermitian_eig, and
GramForm and as_gram_form in polar, apply it); neither its test nor the
Hermitian part it returns overflows on finite P.
The scale rule has its one home here too.  _exponent gives the e that puts
a number x in [1, 2) as x 2^-e, and _scaled and _ldexp multiply an array or
a number by a power of two, exact short of under- and overflow.  _unit_det
is the one determinant at any scale: LAPACK's det of A, bit for bit, where
that is a finite normal double, and otherwise the det of A 2^-e with
sigma_max 2^-e in [1, 2), together with e; it never warns.  _complex_abs is
the one |z|.  det, polar's classify and sl_normalize, and lattices'
covolume read their determinants through _unit_det.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalCheckError,
    NotSelfAdjoint,
    NumericOverflow,
    SingularMatrix,
)

_EPS = float(np.finfo(np.float64).eps)
_FLOAT_MAX = float(np.finfo(np.float64).max)
_FLOAT_TINY = float(np.finfo(np.float64).tiny)  # the smallest normal double
# a margin within this factor of its threshold is a boundary case: too close to
# call, so it is flagged and disagreements between routes there are tolerated
GRAY_ZONE = 10.0
_JACOBI_SWEEP_LIMIT = 60


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute tolerance pair threaded through every numeric check."""

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self) -> None:
        if not (np.isfinite(self.rel) and self.rel > 0.0):
            raise ValueError("rel must be finite and positive")
        if not (np.isfinite(self.abs) and self.abs >= 0.0):
            raise ValueError("abs must be finite and nonnegative")


DEFAULT_TOL = Tolerance()

# lattice_equivalent's defaults and modes; here, not in equivalence, so that
# the command line can build its parser without importing the search
DEFAULT_HEIGHT = 2
DEFAULT_RADIUS = 4.0
DEFAULT_BUDGET = 10**7
MODE_UNITARY = "unitary"
MODE_SPECIAL_UNITARY = "special_unitary"


def frozen(a: np.ndarray) -> np.ndarray:
    """Return ``a`` locked against writes (value types stay immutable)."""
    a.setflags(write=False)
    return a


def _scaled(a: np.ndarray, k: int) -> np.ndarray:
    """a 2^k, a real or complex array scaled on its float64 view: exact short of underflow."""
    return np.ldexp(a.view(np.float64), k).view(a.dtype)


def _exponent(x: float) -> int:
    """The e that puts a positive finite x in [1, 2) as x 2^-e: the package's one unit scale."""
    return math.frexp(x)[1] - 1


def _ldexp(x, k: int):
    """x 2^k, of a float or of each part of a complex, and inf of x's sign where it overflows."""
    if isinstance(x, complex):
        return complex(_ldexp(x.real, k), _ldexp(x.imag, k)) if k else x
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _complex_abs(z: complex) -> float:
    """abs(z), bit for bit, but never OverflowError: abs() raises it where |z| passes the
    largest double, and on a NaN part too when an earlier call left errno set; math.hypot
    then gives inf or NaN (its bits can differ from abs()'s, so it is only the fallback)."""
    try:
        return abs(z)
    except OverflowError:
        return math.hypot(z.real, z.imag)


def _require_finite(a: np.ndarray, what: str) -> np.ndarray:
    """a, once its entries pass the package's one finiteness check (ValueError otherwise)."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} entries must be finite (no NaN/Inf)")
    return a


def _overflow_checked(a: np.ndarray, what: str) -> np.ndarray:
    """a, an array the library computed from finite operands, once it is finite.

    An entry that is not finite is an overflow in between (a sum, a product,
    a division by an underflowed determinant), so it raises NumericOverflow,
    not the ValueError of a caller's non-finite array: the input was well formed.
    """
    if not np.isfinite(a).all():
        raise NumericOverflow(f"{what} is not finite: the computation overflowed")
    return a


def _built(cls: type, **fields):
    """An instance of the frozen dataclass cls on fields the caller has checked, without validation.

    The one constructor for values the library builds from validated ones:
    cls's __post_init__ does not run, and array fields are locked against
    writes.  Any check that can still fail is the caller's, before this.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, frozen(value) if isinstance(value, np.ndarray) else value)
    return obj


def as_matrix(a, *, square: bool = False, dtype: type = np.complex128) -> np.ndarray:
    """Validate array-likes into a finite 2-d matrix, copied once to dtype (complex128 or float64)."""
    m = np.array(a, dtype=dtype, copy=True)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionMismatch(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    _require_finite(m, "matrix")
    if square and m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return frozen(m)


def as_vector(v, n: int | None = None) -> np.ndarray:
    """Validate array-likes into a finite 1-d complex128 vector."""
    w = np.array(v, dtype=np.complex128, copy=True)
    if w.ndim != 1 or w.shape[0] == 0:
        raise DimensionMismatch(f"expected a nonempty vector, got shape {w.shape}")
    _require_finite(w, "vector")
    if n is not None and w.shape[0] != n:
        raise DimensionMismatch(f"expected a vector of length {n}, got {w.shape[0]}")
    return frozen(w)


def as_columns(b, n: int) -> tuple[np.ndarray, bool]:
    """Validate one vector in C^n or a stack of them as columns.

    Returns (a locked n x k finite complex128 matrix, whether b was a vector).
    """
    w = np.array(b, dtype=np.complex128, copy=True)
    vector = w.ndim == 1
    if vector:
        w = w[:, None]
    if w.ndim != 2 or w.shape[0] != n:
        raise DimensionMismatch(f"expected a vector or columns in C^{n}, got shape {np.shape(b)}")
    _require_finite(w, "column")
    return frozen(w), vector


def in_gray_zone(margin: float, threshold: float) -> bool:
    """Whether margin is within the factor GRAY_ZONE of threshold: a boundary case."""
    return threshold / GRAY_ZONE <= margin <= threshold * GRAY_ZONE


def real_columns(w: np.ndarray) -> np.ndarray:
    """Columns (or a vector) in C^n as columns in R^2n: real parts over imaginary parts."""
    return np.concatenate([w.real, w.imag])


def fro(a: np.ndarray) -> float:
    """Frobenius norm, also for entries whose squares overflow or underflow.

    The plain sum of squares is taken unless it could overflow (size times
    the largest square reaches the largest double) or it underflows to 0;
    only then are the entries scaled by the largest, and no path warns.
    """
    x = np.abs(np.asarray(a))
    big = float(x.max()) if x.size else 0.0
    if big * big * x.size < _FLOAT_MAX:
        total = math.sqrt((x * x).sum())
        if total > 0.0 or big == 0.0:
            return total
    if not math.isfinite(big):
        return big
    return big * math.sqrt(np.sum((x / big) ** 2))


def matmul(a, b) -> np.ndarray:
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape[1] != bm.shape[0]:
        raise DimensionMismatch(f"cannot multiply {am.shape} by {bm.shape}")
    return frozen(am @ bm)


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return _adjoint(as_matrix(a))


def _adjoint(am: np.ndarray) -> np.ndarray:
    return frozen(am.conj().T.copy())


def solve(a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solve A X = B by LAPACK's partial-pivot LU.

    B may be a vector or a matrix of stacked right-hand sides; the result
    matches its shape.  Raises SingularMatrix exactly when
    invertibility_margin calls A singular (sigma_min / sigma_max at or
    below tol.rel), NumericOverflow when the LU overflows, and
    InternalCheckError when the residual breaks its bound.
    """
    am = as_matrix(a, square=True)
    bm, vector = as_columns(b, am.shape[0])
    x = _solve(am, bm, tol)
    return frozen(x[:, 0] if vector else x)


def _solve(am: np.ndarray, bm: np.ndarray, tol: Tolerance) -> np.ndarray:
    """solve on a validated square A and a 2-d stack of validated columns B: gate, then gated_solve."""
    return gated_solve(am, _invertibility_gate(am, tol)[1], fro(am), bm, tol)


def gated_solve(
    am: np.ndarray, margin: float, norm: float, bm: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """solve's step once A's margin and norm are known: the gate, LAPACK's LU and the residual check.

    am is a validated square complex128 matrix, bm a 2-d stack of validated
    columns, margin is A's sigma_min / sigma_max as invertibility_margin
    gives it and norm is fro(am); a caller that keeps A (a lattice basis)
    keeps both too and skips the SVD.  Raises SingularMatrix unless margin
    exceeds tol.rel, NumericOverflow when the solution is not finite (the LU
    overflowed, which the residual check cannot see: a NaN residual compares
    False), and InternalCheckError when the residual breaks its bound.

    The bound, tol.rel norm max(||x||, 1) + tol.abs, adds nonnegative terms
    to tol.abs, so it is never below tol.abs, also after rounding.  A
    residual within tol.abs (the usual case: partial-pivot LU is backward
    stable) therefore passes without ||x||, which is computed only for a
    larger residual; the verdict is the full bound's on every input.
    """
    if not margin > tol.rel:
        raise SingularMatrix(f"solve needs an invertible matrix (margin {margin:.3e})")
    x = np.linalg.solve(am, bm)
    if not np.isfinite(x).all():
        raise NumericOverflow("solve overflowed: the solution is not finite")
    residual = fro(am @ x - bm)
    if residual > tol.abs and residual > tol.rel * norm * max(fro(x), 1.0) + tol.abs:
        raise InternalCheckError(f"solve residual {residual:.3e} exceeds contract bound")
    return x


def det(a) -> complex:
    """Determinant by LAPACK's LU at any scale (_unit_det); singular input yields ~0, never
    an error, and no input warns.

    A determinant past the largest double is inf in the parts that overflow, and one
    below the smallest normal double is rounded from the determinant at unit scale.
    """
    am = as_matrix(a, square=True)
    d, e = _unit_det(am)
    return _ldexp(d, am.shape[0] * e)


def _det(am: np.ndarray):
    """LAPACK's det of a validated square matrix as a complex, or of each in a stack (k, n, n)
    as an array: the package's one call of it, unguarded (a caller at any scale takes _unit_det)."""
    d = np.linalg.det(am)
    return complex(d) if am.ndim == 2 else d


def _unit_det(am: np.ndarray, sigma_max: float | None = None) -> tuple[complex, int]:
    """(d, e) with det(A) = d 2^(n e), for a validated square A: the package's one scale
    rule for determinants, which never warns.

    d is LAPACK's det of A itself, bit for bit, and e = 0 wherever that det is a finite
    normal double.  Otherwise d is the det of A 2^-e, e putting sigma_max 2^-e in [1, 2),
    exact short of underflow.  A caller that holds sigma_max passes it; otherwise it is
    taken here, and only on that path.  A sigma_max past the largest double counts as the
    largest, so that A 2^-e is finite.
    """
    with np.errstate(all="ignore"):
        d = _det(am)
        if _FLOAT_TINY <= _complex_abs(d) < math.inf:
            return d, 0
        e = _exponent(min(_operator_norm(am) if sigma_max is None else sigma_max, _FLOAT_MAX))
        return _det(_scaled(am, -e)), e


def inverse(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Matrix inverse, via solve against the identity."""
    am = as_matrix(a, square=True)
    return frozen(_solve(am, np.eye(am.shape[0], dtype=np.complex128), tol))


def hermitian_eig(p, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a self-adjoint matrix by cyclic Jacobi rotations.

    Returns (w, v) with real eigenvalues w ascending and unitary v such that
    p @ v == v @ diag(w).  Raises NotSelfAdjoint when the defect
    ||p - p*|| exceeds tol.rel * ||p|| + tol.abs.
    """
    return _hermitian_eig(as_matrix(p, square=True), tol)


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """0.5 (A + A*), exactly Hermitian, of a square matrix or of each matrix in a stack (k, n, n)."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _self_adjoint_part(pm: np.ndarray, tol: Tolerance) -> np.ndarray:
    """The Hermitian part of a validated square matrix P, once P passes the package's one
    self-adjointness test: NotSelfAdjoint when the defect ||P - P*|| exceeds
    tol.rel * ||P|| + tol.abs, a bound that scales with P.

    The test reads P scaled by the power of two that puts its largest real or
    imaginary part in [1, 2) when that part is 2 or more, and tol.abs with it, so
    that neither side overflows; short of underflow the scaling is exact, and the
    verdict is the unscaled one.  Where that part is 2^1023 or more, P + P* can
    overflow, and the Hermitian part is the scaled P's, scaled back; below, it is
    P's own, so every finite P has a finite part and no other P's bits move.
    """
    big = max(float(np.abs(pm.real).max()), float(np.abs(pm.imag).max()))
    shift = min(-_exponent(big), 0)
    scaled = pm * 2.0**shift if shift else pm
    defect = fro(scaled - scaled.conj().T)
    if defect > tol.rel * fro(scaled) + math.ldexp(tol.abs, shift):
        raise NotSelfAdjoint(f"self-adjoint defect {defect * 2.0**-shift:.3e} beyond tolerance")
    if big >= 2.0**1023:
        return _hermitian_part(scaled) * 2.0**-shift
    return _hermitian_part(pm)


def _hermitian_eig(pm: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    n = pm.shape[0]
    a = _self_adjoint_part(pm, tol)
    # a norm past the largest double would make every rotation look converged
    scale = min(fro(pm), _FLOAT_MAX)
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return frozen(a.real.diagonal().copy()), frozen(v)
    goal = 100.0 * n * _EPS * max(scale, _EPS)
    skip = 0.01 * _EPS * max(scale, _EPS)
    for _ in range(_JACOBI_SWEEP_LIMIT):
        off_diagonal = a.copy()
        np.fill_diagonal(off_diagonal, 0.0)
        if fro(off_diagonal) <= goal:
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                aij = a[i, j]
                if np.abs(aij) <= skip:
                    continue
                phase = aij / np.abs(aij)
                tau = (a[j, j].real - a[i, i].real) / (2.0 * np.abs(aij))
                t = np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)) if tau != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                u = (t * c) * phase
                # A <- G* A G and V <- V G with G the (i, j) plane rotation
                col_i = c * a[:, i] - np.conj(u) * a[:, j]
                col_j = u * a[:, i] + c * a[:, j]
                a[:, i], a[:, j] = col_i, col_j
                row_i = c * a[i, :] - u * a[j, :]
                row_j = np.conj(u) * a[i, :] + c * a[j, :]
                a[i, :], a[j, :] = row_i, row_j
                a[i, j] = 0.0
                a[j, i] = 0.0
                a[i, i] = a[i, i].real
                a[j, j] = a[j, j].real
                vcol_i = c * v[:, i] - np.conj(u) * v[:, j]
                vcol_j = u * v[:, i] + c * v[:, j]
                v[:, i], v[:, j] = vcol_i, vcol_j
    else:
        raise InternalCheckError("Jacobi sweep limit reached without convergence")
    w = a.diagonal().real.copy()
    order = np.argsort(w, kind="stable")
    return frozen(w[order]), frozen(v[:, order].copy())


def singular_values(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Singular values of A, descending, one per column (``tol`` is unused).

    LAPACK's SVD works on A itself, so values are resolved to about eps times
    the largest; forming A* A would square the condition number and blur
    them to sqrt(eps).  A wide m x k input (k > m) has a kernel of dimension
    at least k - m: its k values end in k - m exact zeros.
    """
    return _singular_values(as_matrix(a))


def _singular_values(am: np.ndarray) -> np.ndarray:
    """singular_values of a validated matrix, or of each matrix in a stack (k, m, n) as the
    rows of a (k, n) array: the package's one call of LAPACK's SVD for values."""
    s = np.linalg.svd(am, compute_uv=False)
    if am.shape[-2] < am.shape[-1]:  # a wide input: its kernel adds exact zeros
        s = np.concatenate([s, np.zeros(am.shape[:-2] + (am.shape[-1] - am.shape[-2],))], axis=-1)
    return frozen(s)


def operator_norm(a, tol: Tolerance = DEFAULT_TOL) -> float:
    """Largest singular value."""
    return _operator_norm(as_matrix(a))


def _operator_norm(am: np.ndarray) -> float:
    return float(_singular_values(am)[0])


def invertibility_margin(a, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """(invertible, margin) where margin = sigma_min / sigma_max.

    A matrix counts as invertible when its margin strictly exceeds tol.rel.
    """
    return _invertibility_gate(as_matrix(a), tol)[:2]


def _invertibility_gate(am: np.ndarray, tol: Tolerance) -> tuple:
    """The package's one threshold test: A counts as invertible when sigma_min / sigma_max > tol.rel.

    Returns (verdict, margin, singular values).  On a stack (k, m, n) of matrices it
    takes one SVD call, and the verdict and the margin are arrays, one entry per matrix.
    """
    s = _singular_values(am)
    if s.ndim == 1:
        margin = sigma_ratio(float(s[0]), float(s[-1]))
    else:
        margin = np.array([sigma_ratio(x[0], x[-1]) for x in s.tolist()])
    return margin > tol.rel, margin, s


def sigma_ratio(sigma_max: float, sigma_min: float) -> float:
    """The margin sigma_min / sigma_max, and 0 when sigma_max vanishes."""
    return sigma_min / sigma_max if sigma_max > 0.0 else 0.0
