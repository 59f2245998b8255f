"""Exact arithmetic over the Gaussian integers.

A Gaussian integer a + b i is stored as the pair (a, b) of Python ints, so
nothing here rounds or overflows.  Matrices are tuples of tuples of pairs.
Determinants use fraction-free Bareiss elimination (Bareiss 1968), whose
interior divisions are exact over any integral domain; a remainder check
enforces that.  gdet runs it over Z[i]; int_det runs the same elimination
on plain Python ints for an integer matrix (a same_lattice witness), which
skips the pair arithmetic and is several times faster.
"""

from __future__ import annotations

from .errors import InternalCheckError

Gauss = tuple[int, int]

ZERO: Gauss = (0, 0)
ONE: Gauss = (1, 0)


def gadd(x: Gauss, y: Gauss) -> Gauss:
    return (x[0] + y[0], x[1] + y[1])


def gsub(x: Gauss, y: Gauss) -> Gauss:
    return (x[0] - y[0], x[1] - y[1])


def gmul(x: Gauss, y: Gauss) -> Gauss:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gneg(x: Gauss) -> Gauss:
    return (-x[0], -x[1])


def gconj(x: Gauss) -> Gauss:
    return (x[0], -x[1])


def gabs2(x: Gauss) -> int:
    """Squared modulus, a plain nonnegative int."""
    return x[0] * x[0] + x[1] * x[1]


def gdiv_exact(x: Gauss, y: Gauss) -> Gauss:
    """x / y when y divides x in Z[i]; raises on any remainder."""
    den = gabs2(y)
    if den == 0:
        raise ZeroDivisionError("division by zero in Z[i]")
    num = gmul(x, gconj(y))
    qr, rr = divmod(num[0], den)
    qi, ri = divmod(num[1], den)
    if rr != 0 or ri != 0:
        raise InternalCheckError(f"inexact division in Z[i]: {x} / {y}")
    return (qr, qi)


def gmat(rows) -> tuple[tuple[Gauss, ...], ...]:
    """Normalize nested sequences of pairs into an immutable matrix."""
    out = tuple(tuple((int(e[0]), int(e[1])) for e in row) for row in rows)
    if not out or any(len(row) != len(out[0]) for row in out):
        raise ValueError("matrix rows must be nonempty and equal length")
    return out


def gidentity(n: int) -> tuple[tuple[Gauss, ...], ...]:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def gmatmul(a, b) -> tuple[tuple[Gauss, ...], ...]:
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError("inner dimensions differ")
    return tuple(
        tuple(
            _sum_g(gmul(a[i][t], b[t][j]) for t in range(k))
            for j in range(m)
        )
        for i in range(n)
    )


def _sum_g(terms) -> Gauss:
    re = im = 0
    for t in terms:
        re += t[0]
        im += t[1]
    return (re, im)


def gdet(a) -> Gauss:
    """Exact determinant by Bareiss elimination with row pivoting."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    m = [list(row) for row in a]
    sign = 1
    prev: Gauss = ONE
    for k in range(n - 1):
        if m[k][k] == ZERO:
            for r in range(k + 1, n):
                if m[r][k] != ZERO:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return ZERO
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = gsub(gmul(m[i][j], m[k][k]), gmul(m[i][k], m[k][j]))
                m[i][j] = gdiv_exact(num, prev)
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign == 1 else gneg(d)


def _minor(a, i: int, j: int):
    return tuple(
        tuple(a[r][c] for c in range(len(a)) if c != j)
        for r in range(len(a))
        if r != i
    )


def gadjugate(a) -> tuple[tuple[Gauss, ...], ...]:
    """Adjugate matrix: A @ adj(A) = det(A) I exactly."""
    n = len(a)
    if n == 1:
        return ((ONE,),)
    cells = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = gdet(_minor(a, i, j))
            cells[j][i] = c if (i + j) % 2 == 0 else gneg(c)
    return tuple(tuple(row) for row in cells)


def int_det(rows) -> int:
    """Exact determinant of a plain integer matrix: gdet's Bareiss elimination on ints."""
    m = [[int(e) for e in row] for row in rows]
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise ValueError("determinant needs a nonempty square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot, top = m[k][k], m[k]
        for i in range(k + 1, n):
            row, lead = m[i], m[i][k]
            for j in range(k + 1, n):
                q, r = divmod(row[j] * pivot - lead * top[j], prev)
                if r:
                    raise InternalCheckError(f"inexact Bareiss division by {prev}")
                row[j] = q
        prev = pivot
    return sign * m[n - 1][n - 1]
