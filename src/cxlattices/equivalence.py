"""Unitary equivalence of Gaussian-integer lattices, decided up to a bound.

Two lattices A1(Z[i]^n) and A2(Z[i]^n) are equivalent when a unitary T
maps one onto the other.  Chasing generators, that happens exactly when
A2 = T A1 B for some Gaussian-integer B whose determinant is a unit (1,
-1, i or -i), which in turn is a congruence of Gram forms:
gram(A2) = B* gram(A1) B.  The search runs over determinant-one B only.
T can absorb a scalar unit u I, which multiplies det B by u^n, so for n = 1
and n = 3 nothing is lost; at n = 2, u^2 is only +-1, and a change of basis
with determinant +-i is never searched, whatever the height.  The search is
a brute force bounded by an entry height H, so the outcome is a
semidecision with three honest states: Equivalent (with a re-verifiable
witness), RefutedByInvariant (a unitary invariant separates the lattices),
or UndecidedUpToBound.

The search covers, at a height H, every determinant-one B of entry height
<= H: the identity alone at n = 1, and at n = 2 every such matrix when the
height box fits the budget, (2H+1)^6 <= budget.  Past that box, and at
every budget for n >= 3, the call raises HeightTooLarge at once: the
search is sound, and it fails fast rather than scan a set it cannot
finish.  The candidate order is fixed, lexicographic in the entries
(a, b, c, d) in box order, and the first matching witness wins, so
repeated runs return identical verdicts.  sigma_candidates lists that set
in that order; the search itself never builds it.

The search matches columns, not candidates.  At n = 2, B* P1 B has three
distinct entries: the column norms bj* P1 bj and the cross term b1* P1 b2
(the invariants of Plesken and Souvignier, "Computing isometries of
lattices", 1997).  The scan takes the (2H+1)^4 Gaussian columns of height
<= H, built once per height with the squared length of each and a real
feature matrix F, one row per column b (|b_0|^2, |b_1|^2,
2 Re(conj(b_0) b_1) and -2 Im(conj(b_0) b_1)).  One product
F @ [P1_00, P1_11, Re P1_01, Im P1_01] gives every column norm b* P1 b.
The scan returns at once when no column matches (P2)_11, or none matches
(P2)_22; otherwise it pairs the columns that match (P2)_11 with those that
match (P2)_22 (a pair count past the budget raises HeightTooLarge) and keeps
the pairs (a, c), (b, d) with ad - bc = 1, from the single-precision
columns and their turned copies (-c, a) that the grid holds, exact on small
Gaussian integers.  On the column ids of those pairs, gathered once, it
takes the cross term and tests the Frobenius residual from the two norm
gaps and the cross term.  One sort puts the hits in candidate order, where
two or more remain.  What depends on the height alone is built once per
height (_Grid); a call pays only for what depends on its forms.  At n = 1
the one candidate is B = 1, and B* P1 B - P2 is |a1|^2 - |a2|^2: no scan
runs, and lattice_equivalent tests the two squared lengths against the
scan's bound without forming A* A.

Scale follows one rule: A1(Z[i]^n) and A2(Z[i]^n) are equivalent exactly
when s A1(Z[i]^n) and s A2(Z[i]^n) are, for any scalar s != 0.  So each
public entry multiplies its inputs by one power of two, 2^-e, which is
exact short of underflow, and nothing below the entries handles scale.
lattice_equivalent puts the larger sigma_max of its two inputs in [1, 2),
sigma_orbit_equal the largest diagonal entry of its two forms, and
short_vectors the sigma_max of A.  The radius is scaled by 4^-e, and is
inf where that overflows, which the box budget refuses.  Results are
mapped back exactly: covolumes by 4^(n e), spectrum values and norms by
4^e.  A witness T is the same at every scale, since the adjugates, the
determinant and the products commute with a power of two.  So a verdict
does not change under a common power-of-two scale, and tol.abs applies at
unit scale, as do the unit floors of the spectrum refuter's guard band and
value test.
The radius is checked and reported as the caller gave it, and in
special_unitary mode determinant one is read at the caller's scale.

The short-vector refuter enumerates a stack in one call: the pair, or the
one matrix of short_vectors.  Where the uniform box of the larger K,
(2K + 1)^(2n), has at most 3^6 = 729 points, the stack is scanned on that
one cube by one product, with no inverse: it holds each matrix's own box,
and a point it adds lies outside the radius.  Past the cube each matrix
bounds each integer coordinate by its own axis (as in Fincke and Pohst,
1985), and a box of more than 729 points is taken on an LLL-reduced basis
A U of the same lattice (Lenstra, Lenstra and Lovasz, 1982; over Z[i], the
complex LLL of Gan, Ling and Mow, 2009, on the n columns): a skewed basis,
such as A1 B for a tall B, has a per-axis box up to hundreds of times
larger than its reduced basis.  Each coordinate vector is mapped back
exactly and the norms are |A lambda|^2 on every box, so the spectrum is the
same; the budget still counts the uniform box of A.

lattice_equivalent stacks its two validated inputs into one pair (2, n, n)
and runs one straight list of stages on it, one numpy call where a stage
calls LAPACK: the invertibility gate (one SVD call), the covolume refuter
(one determinant call), the dimension cap, the radius check and the box
budgets, the height check, then, only where that passes (n <= 2 and a box
within the budget), the Gram forms (one A* A call) and the scan at n = 2, or
the test of the two squared lengths at n = 1.  A witness
that passes the re-verification at the caller's tolerance settles the pair
at once.  Its T, and the checks on it, are built in closed form from Python
complex numbers, with no numpy linear algebra (_first_witness), so the bytes
of T depend on the input alone, not on the BLAS kernel.  Only
where the scan finds no witness, or does not run or raises (as
HeightTooLarge does at n = 3), are the spectra enumerated, in one call on
the pair that takes sigma_max and sigma_min from the gate's singular values
and, past the cube, the inverses of the pair and their row norms in one call
each.  They may then refute the pair before that error is raised.  Their
resolution is fixed, so they never overrule a witness accepted at a looser
tol.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CxlatError,
    DimensionMismatch,
    DimensionTooLarge,
    HeightTooLarge,
    InternalCheckError,
    NotInSL,
    RadiusBudgetExceeded,
    SingularMatrix,
)
from .kernel import (
    _EPS,
    DEFAULT_BUDGET,
    DEFAULT_HEIGHT,
    DEFAULT_RADIUS,
    DEFAULT_TOL,
    MODE_SPECIAL_UNITARY,
    MODE_UNITARY,
    Tolerance,
    _complex_abs,
    _det,
    _exponent,
    _invertibility_gate,
    _ldexp,
    _scaled,
    as_matrix,
    fro,
    frozen,
)
from .lattices import GaussianUnimodular
from .polar import _gram_matrix, as_gram_form

EQUIVALENT = "Equivalent"
REFUTED = "RefutedByInvariant"
UNDECIDED = "UndecidedUpToBound"

_MAX_ORBIT_DIM = 3
_CHUNK = 1 << 16
_LLL_STEPS = 1000
# a box of at most this many points is scanned as it is, from a grid built once
# per shape: scanning it costs about as much as reducing the basis would
_SMALL_BOX = 3**6
# the relative resolution of the spectrum refuter: its guard band and its value test
_SPECTRUM_REL = 1e-6
_NOT_UNITARY = "gram congruence certified but the reconstructed map is not unitary"
# the entries of the 1 x 1 identity, the only determinant-one B at n = 1
_ONE = (((1, 0),),)


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of a bounded equivalence search.

    witness is (T, B) for full lattice verdicts and (None, B) for bare
    Gram-orbit verdicts; refuter names the separating invariant together
    with the two differing values.
    """

    status: str
    witness: tuple | None
    refuter: tuple | None
    bound: int

    def __post_init__(self) -> None:
        if self.status not in (EQUIVALENT, REFUTED, UNDECIDED):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == EQUIVALENT and self.witness is None:
            raise InternalCheckError("Equivalent verdict requires a witness")
        if self.status == REFUTED and self.refuter is None:
            raise InternalCheckError("RefutedByInvariant verdict requires a refuter")


@dataclass(frozen=True)
class ShortVectorSpectrum:
    """Ascending squared lengths of the nonzero lattice vectors inside a radius."""

    radius: float
    norms: tuple

    def __post_init__(self) -> None:
        norms = np.asarray(self.norms, dtype=np.float64)
        if np.any(norms[:-1] > norms[1:]):
            raise InternalCheckError("spectrum norms must ascend")


def _gauss_box(height: int):
    # fixed lexicographic order keeps candidate enumeration deterministic
    return tuple(
        (re, im) for re in range(-height, height + 1) for im in range(-height, height + 1)
    )


class _Grid(NamedTuple):
    """The m = (2H+1)^2 Gaussian integers of height <= H in box order (box), and the
    m^2 pairs of them: the pair (x, y) of box indices has id x m + y and is
    cols[x m + y], so cols holds every column of a 2x2 candidate.  Everything here
    depends on the height alone and is built once per height; a scan gathers its rows.

    weights holds the squared length |b|^2 of each column, for the scan's slack, and
    features (c, 4) its real form for its P-norm: |b_0|^2, |b_1|^2, then
    2 Re(conj(b_0) b_1) and -2 Im(conj(b_0) b_1), so b* P b = features @ [P_00, P_11,
    Re P_01, Im P_01] for a Hermitian P; on Gaussian integers every feature is exact.
    spread[x m + y] = x m^2 + y, so a first column (a, c) and a second (b, d) give
    m spread[first] + spread[second] = (a m + b) m^2 + (c m + d), one number that
    sorts as candidate order does.  narrow is cols in single precision, and turned is
    narrow [[0, 1], [-1, 0]], the column (a, c) as (-c, a), so that turned[u] narrow[v]^T
    is ad - bc for a first column (a, c) and a second (b, d): exact, as every part is at
    most 2 H^2 < 2^24 for any grid that fits in memory.
    """

    box: tuple
    cols: np.ndarray
    weights: np.ndarray
    features: np.ndarray
    spread: np.ndarray
    narrow: np.ndarray
    turned: np.ndarray


@functools.lru_cache(maxsize=None)
def _grid(height: int) -> _Grid:
    """The pair grid of one height, built once per process."""
    box = _gauss_box(height)
    values = np.array([complex(*z) for z in box])
    m = len(box)
    cols = np.stack([np.repeat(values, m), np.tile(values, m)], axis=1)
    cross = cols[:, :1].conj() * cols[:, 1:]
    features = np.concatenate(
        [cols.real**2 + cols.imag**2, 2.0 * cross.real, -2.0 * cross.imag], axis=1
    )
    x, y = np.divmod(np.arange(m * m), m)
    narrow = cols.astype(np.complex64)
    return _Grid(
        box, frozen(cols), frozen(np.sum(np.abs(cols) ** 2, axis=1)), frozen(features),
        frozen(x * m * m + y), frozen(narrow),
        frozen(narrow @ np.array([[0, 1], [-1, 0]], np.complex64)),
    )


@functools.lru_cache(maxsize=None)
def _complete_2x2(height: int) -> tuple:
    """Every 2x2 determinant-one matrix ((a, b), (c, d)) of entry height <= height.

    Ordered lexicographically by (a, b, c, d) in box order.  For a != 0 the
    entry d = (1 + bc) / a is solved in exact integer arithmetic over all
    (b, c) at once; for a = 0 the condition is bc = -1 and d ranges freely.
    Each set is generated once per process and then shared.
    """
    box = _gauss_box(height)
    pts = np.array(box, dtype=np.int64)
    m = len(box)
    bi = np.repeat(np.arange(m), m)
    ci = np.tile(np.arange(m), m)
    (br, bim), (cr, cim) = pts[bi].T, pts[ci].T
    nr = 1 + br * cr - bim * cim  # 1 + bc
    ni = br * cim + bim * cr
    rows = []
    for a, (ar, ai) in enumerate(box):
        if ar == ai == 0:
            free = np.flatnonzero((nr == 0) & (ni == 0))
            sel = np.repeat(free, m)  # each (b, c) with bc = -1, once per d
            d = np.tile(np.arange(m), free.size)
        else:
            den = ar * ar + ai * ai
            dr, rr = np.divmod(nr * ar + ni * ai, den)
            di, ri = np.divmod(ni * ar - nr * ai, den)
            ok = (rr == 0) & (ri == 0) & (np.abs(dr) <= height) & (np.abs(di) <= height)
            sel = np.flatnonzero(ok)
            d = (dr[sel] + height) * (2 * height + 1) + di[sel] + height  # box index
        rows.append(np.stack([np.full(sel.size, a), bi[sel], ci[sel], d], axis=1))
    idx = np.concatenate(rows)
    # each of the m * m possible matrix rows is built once and shared
    pairs = [(x, y) for x in box for y in box]
    top = [pairs[i] for i in (idx[:, 0] * m + idx[:, 1]).tolist()]
    bottom = [pairs[i] for i in (idx[:, 2] * m + idx[:, 3]).tolist()]
    return tuple(zip(top, bottom))


def _check_height(n: int, height: int, budget: int) -> None:
    """Raise unless a complete determinant-one set of this dimension and height fits."""
    if n < 1:
        raise DimensionMismatch("dimension must be positive")
    if height < 1:
        raise ValueError("height must be at least 1 (the identity has height 1)")
    if n >= 3:
        raise HeightTooLarge(
            f"no complete candidate set is enumerated at dimension {n} (height {height})"
        )
    box = (2 * height + 1) ** 6
    if n == 2 and box > budget:
        raise HeightTooLarge(
            f"complete candidate set at height {height} spans a box of {box} points,"
            f" over budget {budget}"
        )


def sigma_candidates(n: int, height: int, budget: int = DEFAULT_BUDGET):
    """Determinant-one Gaussian-integer matrices with entry height <= height.

    Complete: the identity for n = 1 at any budget, and every such matrix
    for n = 2 whenever the height box (2H+1)^6 fits the budget, ordered
    lexicographically by its entries (a, b, c, d) in box order, the order in
    which the equivalence search tries them.  Past that box at n = 2, and at
    every budget for n >= 3, where no complete set is enumerated, it raises
    HeightTooLarge at once.
    """
    _check_height(n, height, budget)
    return (_ONE,) if n == 1 else _complete_2x2(height)


def _gram_hits(height: int, p1: np.ndarray, p2: np.ndarray, tol: Tolerance,
               budget: int = DEFAULT_BUDGET):
    """Yield, in candidate order, the entries of every determinant-one B of entry height
    <= height with |B* P1 B - P2|_F within tol.rel (|P1|_F + |P2|_F) + tol.abs, for
    exactly Hermitian P1 and P2: at n = 2 the B whose columns _gram_hit_ids finds."""
    if p1.shape[0] == 1:
        yield from _one_hits(float(p1[0, 0].real), float(p2[0, 0].real), tol)
        return
    box = _grid(height).box
    for x, y in zip(*(ids.tolist() for ids in _gram_hit_ids(height, p1, p2, tol, budget))):
        (a, c), (b, d) = divmod(x, len(box)), divmod(y, len(box))
        yield (box[a], box[b]), (box[c], box[d])


def _one_hits(g1: float, g2: float, tol: Tolerance) -> tuple:
    """The hits of the n = 1 scan on the forms [[g1]] and [[g2]], the larger in [1, 4): its
    one candidate B = 1 where |g1 - g2| <= tol.rel (g1 + g2) + tol.abs.  That is the scan's
    bound, as |[[g]]|_F = sqrt(g^2) is g wherever g^2 is normal, and a g too small for that
    is lost in the sum next to the larger."""
    return (_ONE,) if abs(g1 - g2) <= tol.rel * (g1 + g2) + tol.abs else ()


def _gram_hit_ids(height: int, p1: np.ndarray, p2: np.ndarray, tol: Tolerance,
                  budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid ids (u, v) of the first and the second column of each 2x2 hit of
    _gram_hits, in candidate order, by the column scan of the module docstring.  The
    slack on each column norm, which scales with |P1|_F and with |b|^2, covers the
    rounding by which two ways of computing b* P1 b may differ."""
    size = fro(p1)
    bound = tol.rel * (size + fro(p2)) + tol.abs
    grid = _grid(height)
    (p00, p01), (_, p11) = p1.tolist()
    coefficients = np.array([p00.real, p11.real, p01.real, p01.imag])
    gaps = grid.features @ coefficients - p2.diagonal().real[:, None]  # bj* P1 bj - (P2)_jj
    reach = bound + 64 * _EPS * (size * grid.weights + bound)
    near = np.abs(gaps) <= reach
    first = np.flatnonzero(near[0])
    if first.size == 0:
        return first, first
    second = np.flatnonzero(near[1])
    if second.size == 0:
        return second, second
    if first.size * second.size > budget:
        raise HeightTooLarge(f"{first.size} x {second.size} matching column pairs at height"
                             f" {height} exceed budget {budget}")
    # the table of ad - bc over every pair of columns, from the grid's single-precision
    # rows (exact, at half the bytes); its flat indices, in row order, are the pairs (i, j)
    i, j = np.divmod(np.flatnonzero(grid.turned[first] @ grid.narrow[second].T == 1), second.size)
    u, v = first[i], second[j]
    cross = np.sum((grid.cols[first].conj() @ p1)[i] * grid.cols[v], axis=1) - p2[0, 1]
    residual = np.sqrt(gaps[0, u] ** 2 + gaps[1, v] ** 2 + 2.0 * (cross.real**2 + cross.imag**2))
    keep = residual <= bound
    u, v = u[keep], v[keep]
    if u.size < 2:
        return u, v
    order = np.argsort(len(grid.box) * grid.spread[u] + grid.spread[v])
    return u[order], v[order]


def sigma_orbit_equal(
    p1,
    p2,
    height: int = DEFAULT_HEIGHT,
    tol: Tolerance = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
) -> EquivalenceVerdict:
    """Search for B with B* P1 B = P2 among height-bounded candidates.

    Returns Equivalent with witness (None, B) on the first match in the
    fixed candidate order, else UndecidedUpToBound; never refutes, since a
    taller witness may always exist; HeightTooLarge where the height box or
    the scan's matching column pairs exceed the budget.  A raw matrix is
    certified as a Gram form at tol (as_gram_form); a GramForm is taken as it
    is.  Both forms are then scaled by one power of two that puts their
    largest diagonal entry in [1, 2), so the verdict does not change under a
    common scale, and tol.abs applies at that unit scale.
    """
    p1 = as_gram_form(p1, tol)
    p2 = as_gram_form(p2, tol)
    if p1.dim != p2.dim:
        raise DimensionMismatch(f"dimensions differ: {p1.dim} vs {p2.dim}")
    n = p1.dim
    if n > _MAX_ORBIT_DIM:
        raise DimensionTooLarge(f"orbit search is capped at dimension {_MAX_ORBIT_DIM}")
    _check_height(n, height, budget)
    # the largest diagonal entry times 2^-e is in [1, 2)
    e = _exponent(max(p.matrix.diagonal().real.max() for p in (p1, p2)))
    q1, q2 = _scaled(p1.matrix, -e), _scaled(p2.matrix, -e)
    for entries in _gram_hits(height, q1, q2, tol, budget):
        witness = GaussianUnimodular._proved(entries)  # _gram_hits proved ad - bc = 1
        return EquivalenceVerdict(EQUIVALENT, (None, witness), None, height)
    return EquivalenceVerdict(UNDECIDED, None, None, height)


def _unit_radius(radius: float, e: int) -> float:
    """The caller's radius, once checked, times 4^-e; inf where that overflows, which
    _uniform_box refuses as an unbounded box."""
    if radius < 0 or not np.isfinite(radius):
        raise ValueError("radius must be a finite nonnegative number")
    return _ldexp(radius, -2 * e)


def short_vectors(
    a, radius: float, tol: Tolerance = DEFAULT_TOL, limit: int = DEFAULT_BUDGET
) -> ShortVectorSpectrum:
    """Squared norms |A lambda|^2 <= radius over nonzero Gaussian-integer vectors.

    Takes one SVD of A, through the invertibility gate: SingularMatrix where
    the gate refuses A.  The coefficient box is bounded axis by axis, on an
    LLL-reduced basis of the same lattice when A's own box is large (see
    _enumerate); the budget counts the uniform box (2K + 1)^(2n) with
    K = floor(sqrt(radius) / sigma_min(A)), so which inputs raise
    RadiusBudgetExceeded depends on A's smallest singular value alone.
    The enumeration runs on A 2^-e, with e the power of two that puts
    sigma_max(A) in [1, 2), and on the radius 4^-e; the norms are mapped
    back by 4^e, so they are those of A bit for bit.
    """
    am = as_matrix(a, square=True)
    ok, _, s = _invertibility_gate(am, tol)
    e = _exponent(float(s[0]))  # sigma_max 2^-e in [1, 2)
    unit_radius, am, s = _unit_radius(radius, e), _scaled(am, -e), _scaled(s, -e)
    if not ok:
        raise SingularMatrix("short-vector enumeration needs an invertible matrix")
    k = _uniform_box(s, unit_radius, limit)
    norms = _enumerate(am[None], s[None], [k], unit_radius)[0]
    return ShortVectorSpectrum(float(radius), tuple(_scaled(norms, 2 * e).tolist()))


def _lll(am: np.ndarray):
    """An LLL reduction of A's columns over Z[i]: (U, U^-1) with A U reduced, or None.

    The complex LLL of Gan, Ling and Mow (2009) with delta = 3/4, in the
    form of Cohen's integral LLL (Algorithm 2.6.3 of "A Course in
    Computational Algebraic Number Theory"): the Gram-Schmidt coefficients
    mu and squared lengths B come once from the Gram matrix A* A and are
    then updated in place, by Gaussian rounding in the size reduction and
    by the swap formulas when the Lovasz test B_k >= (delta - |mu_k,k-1|^2)
    B_k-1 fails.  The steps are recorded and replayed once at the end on
    exact Gaussian integers, so U is unimodular however the floats went.
    None means no step was taken (A was reduced already), the Gram form
    lost positivity in rounding (a squared length that underflows to zero
    included), or U grew past 2^20; the caller then keeps
    A's own basis.  The step count is capped, which bounds the time on a
    basis the floats cannot resolve.
    """
    n = am.shape[0]
    g = (am.conj().T @ am).tolist()  # g[j][i] = <b_j, b_i>
    mu = [[0j] * n for _ in range(n)]
    sq = []
    for i in range(n):
        for j in range(i):
            r = g[j][i]
            for m in range(j):
                r -= mu[j][m].conjugate() * mu[i][m] * sq[m]
            mu[i][j] = r / sq[j]
        b = g[i][i].real
        for j in range(i):
            m = mu[i][j]
            b -= (m.real * m.real + m.imag * m.imag) * sq[j]
        if not b > 0.0:
            return None
        sq.append(b)
    steps: list = []  # (k, j, q): column k -= q column j; (k, k - 1, 0): swap the two
    k = 1
    for _ in range(_LLL_STEPS):
        if k >= n:
            break
        row = mu[k]
        for j in range(k - 1, -1, -1):
            m = row[j]
            q = complex(round(m.real), round(m.imag))
            if q:
                for i in range(j):
                    row[i] -= q * mu[j][i]
                row[j] = m - q
                steps.append((k, j, q))
        m = row[k - 1]
        shift = (m.real * m.real + m.imag * m.imag) * sq[k - 1]
        if sq[k] >= 0.75 * sq[k - 1] - shift:
            k += 1
            continue
        # swap columns k - 1 and k: Cohen's formulas, with B = B_k + |mu|^2 B_k-1
        # the new B_k-1 and mu_k,k-1 -> conj(mu) B_k-1 / B
        steps.append((k, k - 1, 0))
        b = sq[k] + shift
        if not b > 0.0:  # underflowed: the products of squared lengths left the doubles
            return None
        new = m.conjugate() * sq[k - 1] / b
        sq[k - 1], sq[k] = b, sq[k - 1] * sq[k] / b
        mu[k - 1], mu[k] = mu[k], mu[k - 1]
        mu[k - 1][k - 1], mu[k][k - 1], mu[k - 1][k] = 0j, new, 0j
        for i in range(k + 1, n):
            t = mu[i][k]
            mu[i][k] = mu[i][k - 1] - m * t
            mu[i][k - 1] = t + new * mu[i][k]
        k = max(k - 1, 1)
    if not steps:
        return None
    # replayed on small Gaussian integers, which complex floats hold exactly
    u = [[complex(i == j) for i in range(n)] for j in range(n)]  # columns of U
    inv = [[complex(i == j) for j in range(n)] for i in range(n)]  # rows of U^-1
    for k, j, q in steps:
        if q:
            u[k] = [x - q * y for x, y in zip(u[k], u[j])]
            inv[j] = [x + q * y for x, y in zip(inv[j], inv[k])]
        else:
            u[j], u[k] = u[k], u[j]
            inv[j], inv[k] = inv[k], inv[j]
    um, im = np.array(u).T, np.array(inv)
    if max(np.abs(um).max(), np.abs(im).max()) > 2.0**20:
        return None
    return um, im


def _axis_bound(x: float, cap: int) -> int:
    """floor(x) for a coordinate bound x, and cap when x reaches it (or is not finite)."""
    return math.floor(x) if x < cap else cap


def _box_size(ks) -> int:
    """Points in the box |Re mu_i|, |Im mu_i| <= ks[i]."""
    return math.prod(2 * b + 1 for b in ks) ** 2


def _box_columns(shape: tuple, lo: int, hi: int) -> np.ndarray:
    """Points lo..hi-1, in row-major order, of the centered integer box of the given
    shape (real parts' axes, then imaginary parts'), as Gaussian-integer columns."""
    n = len(shape) // 2
    centre = np.array(shape)[:, None] // 2
    coords = np.stack(np.unravel_index(np.arange(lo, hi), shape)) - centre
    return coords[:n] + 1j * coords[n:]


@functools.lru_cache(maxsize=32)
def _small_box(shape: tuple) -> np.ndarray:
    """A whole box of at most _SMALL_BOX points, built once per shape."""
    return frozen(_box_columns(shape, 0, math.prod(shape)))


def _uniform_box(s: np.ndarray, radius: float, limit: int) -> int:
    """K = floor(sqrt(radius) / sigma_min) of a basis with singular values s (descending),
    which the invertibility gate has accepted (the caller's test, so sigma_min > 0).

    Raises RadiusBudgetExceeded when the nonzero points of the uniform box
    (2K + 1)^(2n) exceed the limit.
    """
    ratio = math.sqrt(radius) / float(s[-1])
    if ratio == math.inf:  # no box of integers is that large
        raise RadiusBudgetExceeded(f"coefficient box is unbounded and exceeds limit {limit}")
    k = math.floor(ratio)
    total = (2 * k + 1) ** (2 * len(s))
    if total - 1 > limit:
        raise RadiusBudgetExceeded(
            f"coefficient box of {total - 1} vectors exceeds limit {limit}"
        )
    return k


def _row_norms(x: np.ndarray) -> list:
    """The norms of the rows of x, or of each matrix in a stack.  A norm past the largest
    double (an inverse with sigma_min below ~1e-154, under a tiny tol.rel) is inf, unwarned:
    its axis bound is then the uniform box's K, which always suffices."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(x, axis=-1).tolist()


def _enumerate(stack: np.ndarray, svals: np.ndarray, ks: list, radius: float) -> list:
    """The ascending float64 norms of short_vectors on each matrix of a validated stack
    (k, n, n) with singular values svals (descending) and ks[i] = _uniform_box(svals[i],
    radius, ...).  Where the cube of the largest K fits _SMALL_BOX, the whole stack is
    scanned on it, with no inverse (see the module docstring).  Past it the inverses of
    the stack and their row norms are each taken in one call, and each matrix takes its
    own per-axis box (_per_axis).
    """
    n, side = stack.shape[-1], 2 * max(ks) + 1
    if side ** (2 * n) > _SMALL_BOX:
        invs = np.linalg.inv(stack)
        return [_per_axis(*args, radius)
                for args in zip(stack, svals, ks, invs, _row_norms(invs))]
    w = stack @ _small_box((side,) * (2 * n))
    sq = np.sum(w.real**2 + w.imag**2, axis=1)
    sq[:, sq.shape[1] // 2] = np.inf  # the zero vector, at the centre of the cube
    return [np.sort(x[x <= radius]) if k else np.empty(0) for x, k in zip(sq, ks)]


def _per_axis(am: np.ndarray, s: np.ndarray, k: int, inv: np.ndarray, rows: list,
              radius: float) -> np.ndarray:
    """The norms of _enumerate on one matrix A with singular values s, inverse inv and
    the row norms rows of inv, on A's per-axis box.

    The box is provably sufficient: |lambda_i| <= |row i of A^-1| * |A lambda|,
    so outside K_i = floor(sqrt(radius) * |row i of A^-1|) the image norm
    already exceeds the radius; each K_i bounds both the real and the
    imaginary part of lambda_i (the realified inverse has each row norm
    twice, and its singular values are A's, each twice).  A box of more
    than _SMALL_BOX points is searched on a reduced basis instead when that
    box is smaller: with A U LLL-reduced (_lll) and U Gaussian-unimodular,
    lambda = U mu ranges over Z[i]^n as mu does, and the bounds come from
    the rows of (A U)^-1 = U^-1 A^-1 with U^-1 exact.  A skewed A has a
    box far larger than that of its reduced basis.  Each mu is mapped back
    exactly, and the norms are |A lambda|^2 either way, so the spectrum
    does not depend on the box.  The budget is checked against the uniform
    box (2K + 1)^(2n) with K = floor(sqrt(radius) / sigma_min), which
    contains A's own box: it caps the work of any input alike, and which
    inputs raise RadiusBudgetExceeded does not depend on rounding or on the
    reduction.
    """
    n = am.shape[0]
    smax, smin = float(s[0]), float(s[-1])
    root = math.sqrt(radius)
    if k == 0:
        return np.empty(0)
    # the relative margin absorbs rounding in the row norms of A^-1; the absolute
    # term, a multiple of cond(A) eps |A^-1|, covers an ill-conditioned A, and
    # the L1 norm of a row of U^-1 carries it through the exact integer product.
    # Divided by sigma_min twice, it is inf where sigma_min^2 would underflow, and
    # each axis bound is then the uniform box's K
    slack = 16 * n * _EPS * smax / smin / smin
    ks = [_axis_bound(root * (r * (1.0 + 1e-9) + slack), k) for r in rows]
    u = None
    if _box_size(ks) > _SMALL_BOX:
        reduction = _lll(am)
        if reduction is not None:
            uinv = reduction[1]
            rows = _row_norms(uinv @ inv)
            weights = np.abs(uinv).sum(axis=1).tolist()
            cap = _box_size(ks)
            reduced = [
                _axis_bound(root * (r * (1.0 + 1e-9) + slack * w), cap)
                for r, w in zip(rows, weights)
            ]
            if _box_size(reduced) < cap:
                u, ks = reduction[0], reduced
    shape = tuple(2 * b + 1 for b in ks) * 2
    size = _box_size(ks)
    centre = size // 2  # the zero vector
    found = []
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        lam = _small_box(shape) if size <= _SMALL_BOX else _box_columns(shape, lo, hi)
        if u is not None:
            lam = u @ lam  # exact: small Gaussian integers
        w = am @ lam
        sq = np.sum(w.real**2 + w.imag**2, axis=0)
        if lo <= centre < hi:
            sq[centre - lo] = np.inf
        found.append(sq[sq <= radius])
    return np.sort(np.concatenate(found) if len(found) > 1 else found[0])


def _spectra_mismatch(n1: np.ndarray, n2: np.ndarray, radius: float, e: int = 0):
    """First robust difference between two spectra (ascending norms), or None.

    Entries near the radius boundary are ignored (a guard band), and a
    mismatch must survive at twice the band to count, so floating-point
    placement at either cutoff can never refute a genuinely equivalent pair.
    Differing norms are reported times 4^e, at the caller's scale.
    """
    base = _SPECTRUM_REL * max(radius, 1.0)
    cuts = (radius - base, radius - 2.0 * base)
    # the norms ascend, so the entries below a cutoff are a prefix; where the two
    # counts at a band agree, they are at most the shorter count at the first band
    counts1 = np.searchsorted(n1, cuts, side="right").tolist()
    counts2 = np.searchsorted(n2, cuts, side="right").tolist()
    off = None
    for k1, k2 in zip(counts1, counts2):
        if k1 != k2:
            verdict = ("short_vector_count", float(k1), float(k2))
            continue
        if off is None:  # the values are compared only where some band's counts agree
            k = min(counts1[0], counts2[0])
            v1, v2 = n1[:k], n2[:k]
            off = np.flatnonzero(np.abs(v1 - v2) > _SPECTRUM_REL * np.maximum(1.0, v1))
        if not (off.size and off[0] < k1):
            return None  # the two spectra agree up to this band
        v = (math.ldexp(float(x[off[0]]), 2 * e) for x in (v1, v2))
        verdict = ("short_vector_spectrum", *v)
    return verdict  # the difference at the second band, which the first band has too


def _adjugate(x: list) -> tuple:
    """(adj X, det X) of an n x n list of complex numbers, n <= 2."""
    if len(x) == 1:
        return [[1.0 + 0j]], x[0][0]
    (a, b), (c, d) = x
    return [[d, -b], [-c, a]], a * d - b * c


def _inverse(x: list) -> list | None:
    """X^-1 = adj X / det X of an n x n list of complex numbers, n <= 2; None where det X
    is 0."""
    adj, d = _adjugate(x)
    return None if d == 0 else [[z / d for z in row] for row in adj]


def _product(x: list, y: list) -> list:
    """X Y of two n x n lists of complex numbers, n <= 2, each entry one fixed-order sum."""
    if len(x) == 1:
        return [[x[0][0] * y[0][0]]]
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return [[a * e + b * g, a * f + b * h], [c * e + d * g, c * f + d * h]]


def _fro(x: list) -> float:
    """The Frobenius norm of a list of rows of complex numbers, by math.hypot: it neither
    raises nor over- or underflows, and is inf or nan where an entry is."""
    return math.hypot(*[p for row in x for z in row for p in (z.real, z.imag)])


def _unitarity(t: list) -> tuple:
    """(margin, defect, det distance) of an n x n list of complex numbers T, n <= 2: what
    _classify reads from an SVD, a determinant and T* T - I, here in closed form.

    margin is sigma_min / sigma_max: 1 at n = 1 (0 for T = 0), and |det T| / sigma_max^2
    at n = 2, where sigma_max^2, the larger eigenvalue of G = T* T, is (tr G + sqrt((g00 -
    g11)^2 + 4 |g01|^2)) / 2, the same as (|T|_F^2 + sqrt(|T|_F^4 - 4 |det T|^2)) / 2
    without its cancellation.  defect is |G - I|_F and det distance |det T - 1|.  Every
    modulus and norm goes through math.hypot, and no step divides by zero, so a T that is
    not finite, or whose squares overflow, gives values that are inf or nan and fail
    every bound.
    """
    if len(t) == 1:
        (x,), = t
        g = x.real * x.real + x.imag * x.imag
        return (1.0 if x else 0.0), abs(g - 1.0), math.hypot(x.real - 1.0, x.imag)
    (a, b), (c, d) = t
    g00 = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag
    g11 = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag
    g01 = a.conjugate() * b + c.conjugate() * d
    det = a * d - b * c
    top = 0.5 * (g00 + g11 + math.hypot(g00 - g11, 2.0 * g01.real, 2.0 * g01.imag))
    margin = math.hypot(det.real, det.imag) / top if top > 0.0 else 0.0
    defect = math.hypot(g00 - 1.0, g11 - 1.0, g01.real, g01.imag, g01.real, g01.imag)
    return margin, defect, math.hypot(det.real - 1.0, det.imag)


def _first_witness(height: int, pair: np.ndarray, hits, mode: str, tol: Tolerance):
    """The Equivalent verdict of the first verified hit B of hits (entries, each with det B
    = 1 proved) on the pair (A1, A2), or None when no hit is kept: at n = 2 the hits are
    the Gram scan's, and at n = 1 the one B = 1.

    Each hit gives the unitary T = A2 B^-1 A1^-1 in closed form, with no BLAS or LAPACK
    call, so its bytes depend on the input alone: the pair is read once, at the first
    hit, as Python complex numbers; B (built on entries the scan proved, det B = 1) and
    A1 are inverted by their adjugates, A1's over its determinant, and each product is a
    fixed-order sum (_product).  T must pass classify's test of U, in closed form
    (_unitarity): margin above tol.rel and |T* T - I|_F <= tol.rel n; in special_unitary
    mode a hit with |det T - 1| > tol.rel n is passed over; and the residual
    |A2 - T A1 B|_F must be within 100 tol.rel max(|A2|_F, 1) + tol.abs.  A zero
    determinant of A1, or a T that is not finite, fails the test of U.
    """
    n = pair.shape[-1]
    inv = None
    for entries in hits:
        b = GaussianUnimodular._proved(entries)
        bm = [[complex(*e) for e in row] for row in entries]
        if inv is None:  # A1 passed the gate, and each witness is re-verified
            a1, a2 = pair.tolist()
            inv = _inverse(a1)
            if inv is None:  # det A1 underflowed: possible only under a tiny tol.rel
                raise InternalCheckError(_NOT_UNITARY)
        t = _product(_product(a2, _adjugate(bm)[0]), inv)  # adj B = B^-1
        margin, defect, det_distance = _unitarity(t)
        if not (margin > tol.rel and defect <= tol.rel * n):
            raise InternalCheckError(_NOT_UNITARY)
        if mode == MODE_SPECIAL_UNITARY and det_distance > tol.rel * n:
            continue
        image = _product(_product(t, a1), bm)
        residual = _fro([[x - y for x, y in zip(r, s)] for r, s in zip(a2, image)])
        if not residual <= 100.0 * tol.rel * max(_fro(a2), 1.0) + tol.abs:
            raise InternalCheckError(
                f"witness failed re-verification (residual {residual:.3e})"
            )
        return EquivalenceVerdict(EQUIVALENT, (frozen(np.array(t)), b), None, height)
    return None


def lattice_equivalent(
    a1,
    a2,
    mode: str = MODE_UNITARY,
    height: int = DEFAULT_HEIGHT,
    tol: Tolerance = DEFAULT_TOL,
    radius: float = DEFAULT_RADIUS,
    budget: int = DEFAULT_BUDGET,
) -> EquivalenceVerdict:
    """Decide equivalence of A1(Z[i]^n) and A2(Z[i]^n) up to height bound.

    The two inputs are stacked into one pair (2, n, n) and each stage runs once
    on it, cheapest first: the invertibility gate, the covolume refuter, the
    dimension cap, the radius check and the box budgets, the height check, the
    Gram forms A* A and the bounded Gram-orbit scan (both only where the height
    check passes).  A witness the scan verifies at tol is returned at once; the
    short-vector spectrum refuter runs only where the scan keeps none (see the
    module docstring).  Right after the gate the pair is scaled by the one
    power of two that puts the larger sigma_max in [1, 2), and the radius by
    its square: the verdict does not change under a common power-of-two scale,
    tol.abs applies at unit scale, and covolumes and spectrum values are
    reported at the caller's scale.  Where the scan does not run or raises
    (HeightTooLarge at n = 3 or past a budget, say), a refutation by the spectra
    is returned, and the scan's error is raised only when they do not refute.
    At n = 1 no Gram form is built and no scan runs: the one candidate B = 1 is
    tested on the squared lengths |a|^2, Python floats with the bits A* A would
    hold, against the scan's bound, and T = a2 / a1 is built and checked by
    _first_witness as a scan hit's is.  No such length underflows past the
    covolume test: the gate admits tol.rel < 1 only (sigma_min / sigma_max is
    1), so |a2 / a1|^2 >= 1 - tol.rel is at least about 2^-54, and the larger
    |a| is in [1, 2).
    Each input is a root of its Gram form and has passed the gate, so the forms
    need no positivity check; an A* A that underflowed (possible only under a
    caller's tiny tol.rel) raises NumericOverflow.  Equivalent verdicts carry
    the reconstructed unitary T = A2 B^-1 A1^-1 (B inverted exactly via its
    adjugate) and are re-verified before being returned.  In special_unitary
    mode both inputs must also have determinant one at the caller's scale, as
    classify calls it (the same gate and determinant, then |det - 1| <=
    tol.rel * n; NotInSL otherwise, a singular input included), and witnesses are
    additionally filtered by det(T) = 1, continuing the search otherwise.
    """
    m1 = as_matrix(a1, square=True)
    m2 = as_matrix(a2, square=True)
    if m1.shape != m2.shape:
        raise DimensionMismatch(f"shapes differ: {m1.shape} vs {m2.shape}")
    if mode not in (MODE_UNITARY, MODE_SPECIAL_UNITARY):
        raise ValueError(f"unknown mode {mode!r}")
    n = m1.shape[0]
    pair = np.array((m1, m2))
    # the stages run cheapest first; a singular input fails as gram would fail on it,
    # or, in special_unitary mode, as classify's determinant-one verdict would
    ok, margin, s = _invertibility_gate(pair, tol)
    if mode == MODE_UNITARY and not ok.all():
        raise SingularMatrix(f"gram needs an invertible matrix (margin {margin[~ok][0]:.3e})")

    # everything below runs on the pair scaled by the one power of two that puts the
    # larger sigma_max in [1, 2): exact, so the verdict does not depend on a common scale
    e = _exponent(max(s[:, 0].tolist()))
    pair = _scaled(pair, -e)
    dets = _det(pair).tolist()  # each is det 2^(-n e) of the caller's input
    if mode == MODE_SPECIAL_UNITARY:
        for name, passed, d in zip(("A1", "A2"), ok.tolist(), dets):
            distance = _complex_abs(_ldexp(d, n * e) - 1.0)
            if not (passed and distance <= tol.rel * n):
                raise NotInSL(f"{name} has determinant distance {distance:.3e} from one")
    # the covolumes |det|^2 differ by more than tol.rel of the larger: tested on the ratio
    # of the two |det|, which neither over- nor underflows at any dimension
    lo, hi = sorted(_complex_abs(d) for d in dets)
    if hi > 0.0 and 1.0 - (lo / hi) ** 2 > tol.rel:
        r1, r2 = (_ldexp(_complex_abs(d), n * e) for d in dets)  # |det| at the caller's scale
        return EquivalenceVerdict(REFUTED, None, ("covolume", r1 * r1, r2 * r2), height)

    # past the cheap refuter, the remaining stages only make sense where the
    # orbit search can run, so fail fast before an 8-and-up-dimensional pair's box scan
    if n > _MAX_ORBIT_DIM:
        raise DimensionTooLarge(f"orbit search is capped at dimension {_MAX_ORBIT_DIM}")
    unit_radius = _unit_radius(radius, e)
    svals = _scaled(s, -e).tolist()
    ks = [_uniform_box(x, unit_radius, budget) for x in svals]
    try:
        _check_height(n, height, budget)
    except (CxlatError, ValueError) as exc:  # raised after the spectra, which may refute first
        error = exc
    else:
        error = None
        if n == 2:  # A* A is formed only where the scan runs, and its underflow is raised at once
            hits = _gram_hits(height, *_gram_matrix(pair), tol, budget)
        else:  # the n = 1 scan's one test, on the squared lengths A* A would hold, bit for bit
            g1, g2 = (x.real * x.real + x.imag * x.imag for x in pair.ravel().tolist())
            hits = _one_hits(g1, g2, tol)
        try:
            witness = _first_witness(height, pair, hits, mode, tol)
        except (CxlatError, ValueError) as exc:
            witness, error = None, exc
        if witness is not None:  # verified at tol: the spectra do not overrule it
            return witness
    mismatch = _spectra_mismatch(*_enumerate(pair, svals, ks, unit_radius), unit_radius, e)
    if mismatch is not None:
        return EquivalenceVerdict(REFUTED, None, mismatch, height)
    if error is not None:
        raise error
    return EquivalenceVerdict(UNDECIDED, None, None, height)
