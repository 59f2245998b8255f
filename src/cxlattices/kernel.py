"""Dense complex linear algebra primitives.

Everything else in the package sits on these few operations.  Singular
values come from LAPACK's SVD of A itself, resolved to about eps relative
(the route through A* A would only reach sqrt(eps)); they alone decide
singularity, through invertibility_margin.  solve and det are LAPACK's LU
(numpy.linalg), with solve gated by that margin and checked by its
residual.  The Hermitian eigensolver is still self-contained (cyclic
Jacobi rotations), so its behavior is easy to audit at the small
dimensions this package targets.

Array inputs enter through as_matrix, as_vector or as_columns, which share
the one finiteness check.  Two conventions have their one home here:
in_gray_zone (a margin too close to its threshold to call) and real_columns
(columns in C^n as columns in R^2n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalCheckError,
    NotSelfAdjoint,
    SingularMatrix,
)

_EPS = float(np.finfo(np.float64).eps)
_FLOAT_MAX = float(np.finfo(np.float64).max)
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


def frozen(a: np.ndarray) -> np.ndarray:
    """Return ``a`` locked against writes (value types stay immutable)."""
    a.setflags(write=False)
    return a


def _require_finite(a: np.ndarray, what: str) -> None:
    # the package's one finiteness check on array entries
    if not np.isfinite(a).all():
        raise ValueError(f"{what} entries must be finite (no NaN/Inf)")


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    """Validate array-likes into a finite 2-d complex128 matrix."""
    m = np.array(a, dtype=np.complex128, copy=True)
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
    big = float(x.max(initial=0.0))
    if big * big * x.size < _FLOAT_MAX:
        total = float(np.sqrt((x * x).sum()))
        if total > 0.0 or big == 0.0:
            return total
    if not np.isfinite(big):
        return big
    return big * float(np.sqrt(np.sum((x / big) ** 2)))


def matmul(a, b) -> np.ndarray:
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape[1] != bm.shape[0]:
        raise DimensionMismatch(f"cannot multiply {am.shape} by {bm.shape}")
    return frozen(am @ bm)


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return frozen(as_matrix(a).conj().T.copy())


def solve(a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Solve A X = B by LAPACK's partial-pivot LU.

    B may be a vector or a matrix of stacked right-hand sides; the result
    matches its shape.  Raises SingularMatrix exactly when
    invertibility_margin calls A singular (sigma_min / sigma_max at or
    below tol.rel), and InternalCheckError when the residual breaks its bound.
    """
    am = as_matrix(a, square=True)
    bm, vector = as_columns(b, am.shape[0])
    ok, margin = invertibility_margin(am, tol)
    if not ok:
        raise SingularMatrix(f"solve needs an invertible matrix (margin {margin:.3e})")
    x = np.linalg.solve(am, bm)
    residual = fro(am @ x - bm)
    if residual > tol.rel * fro(am) * max(fro(x), 1.0) + tol.abs:
        raise InternalCheckError(f"solve residual {residual:.3e} exceeds contract bound")
    return frozen(x[:, 0] if vector else x)


def det(a) -> complex:
    """Determinant by LAPACK's LU; singular input yields ~0, never an error."""
    return complex(np.linalg.det(as_matrix(a, square=True)))


def inverse(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Matrix inverse, via solve against the identity."""
    am = as_matrix(a, square=True)
    return solve(am, np.eye(am.shape[0], dtype=np.complex128), tol)


def hermitian_eig(p, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a self-adjoint matrix by cyclic Jacobi rotations.

    Returns (w, v) with real eigenvalues w ascending and unitary v such that
    p @ v == v @ diag(w).  Raises NotSelfAdjoint when the defect
    ||p - p*|| exceeds tol.rel * ||p|| + tol.abs.
    """
    pm = as_matrix(p, square=True)
    n = pm.shape[0]
    scale = fro(pm)
    if fro(pm - pm.conj().T) > tol.rel * scale + tol.abs:
        raise NotSelfAdjoint(f"self-adjoint defect {fro(pm - pm.conj().T):.3e} beyond tolerance")
    a = 0.5 * (pm + pm.conj().T)
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return frozen(a.real.diagonal().copy()), frozen(v)
    goal = 100.0 * n * _EPS * max(scale, _EPS)
    skip = 0.01 * _EPS * max(scale, _EPS)
    for _ in range(_JACOBI_SWEEP_LIMIT):
        mass = np.abs(a) ** 2
        np.fill_diagonal(mass, 0.0)
        off = float(np.sqrt(np.sum(mass)))
        if off <= goal:
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
    am = as_matrix(a)
    s = np.zeros(am.shape[1])
    s[: min(am.shape)] = np.linalg.svd(am, compute_uv=False)
    return frozen(s)


def operator_norm(a, tol: Tolerance = DEFAULT_TOL) -> float:
    """Largest singular value."""
    return float(singular_values(a, tol)[0])


def invertibility_margin(a, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """(invertible, margin) where margin = sigma_min / sigma_max.

    A matrix counts as invertible when its margin strictly exceeds tol.rel.
    """
    s = singular_values(a, tol)
    margin = float(s[-1] / s[0]) if s[0] > 0.0 else 0.0
    return margin > tol.rel, margin
