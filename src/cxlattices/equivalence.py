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
match (P2)_22 (a pair count past the budget raises HeightTooLarge).  Over
those pairs (a, c), (b, d) it takes one table of ad - bc, from the
single-precision columns and their turned copies (-c, a) that the grid
holds, exact on small Gaussian integers, in blocks of rows, so a large pair
count never holds it whole.  Only on the pairs with ad - bc = 1 does it take
b1* P1, the cross term b1* P1 b2 - (P2)_12, the Frobenius residual from the
two norm gaps and the cross term, and the candidate-order key, each a
fixed-order sum on Python numbers: the forms enter as their entries, and the
grid keeps its columns and keys as Python numbers too.  A pair whose
residual is within the bound is a hit, and one sort puts the hits in
candidate order; the cross term takes no BLAS product (the norm gaps come
from the one product with F).  Where each diagonal entry is matched by the
four unit multiples of one column, as on a typical pair, 4 of the 16 pairs
have ad - bc = 1 and 2 of those (B and -B) are hits.  What depends on the
height alone is built once per height (_Grid); a call pays only for what
depends on its forms.  At n = 1 the one candidate is B = 1, and
B* P1 B - P2 is |a1|^2 - |a2|^2: no scan runs, and lattice_equivalent tests
the two squared lengths against the scan's bound without forming A* A.

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

lattice_equivalent runs one straight list of stages on its two validated
inputs: the invertibility gate, the covolume refuter, the dimension cap, the
radius check and the box budgets, the height check, then, only where that
passes (n <= 2 and a box within the budget), the Gram forms and the scan at
n = 2, or the test of the two squared lengths at n = 1.  Below n = 3 no stage
calls LAPACK: the pair is read once as Python complex numbers, and
kernel._small_form gives each matrix's sigma_max, sigma_min, determinant and
Gram entries in closed form, at the matrix's own unit scale, so a subnormal
partner keeps its precision and each (d, k) is combined exactly; the scan
reads the Gram entries as Python numbers, brought to the pair's unit scale.
From n = 3 the pair is stacked into one array (2, n, n) and gated by one SVD
call, and its determinants are one call of kernel._unit_det (a determinant
that is not a finite normal double at the pair's scale is taken again at its
own unit scale).  The covolume refuter allows for the rounding of the two
determinants, which grows with each matrix's sigma_max / sigma_min, so a pair
A2 = U A1 is not refuted however ill-conditioned.  The first hit whose T
passes the re-verification at the caller's tolerance settles the pair at
once, and a hit whose T fails it is passed over (_first_witness).  T, and the
checks on it, are built in closed form from Python complex numbers, with no
numpy linear algebra, so the bytes of T depend on the input alone, not on the
BLAS kernel.  Only where the scan keeps no witness, or does not run or raises
(as HeightTooLarge does at n = 3), are the spectra enumerated, in one call on
the pair (built as a numpy array at unit scale only then, below n = 3) that
takes sigma_max and sigma_min from the gate and, past the cube, the inverses
of the pair and their row norms in one call each.  They may then refute the
pair before that error is raised.  Their resolution is
fixed, so they never overrule a witness accepted at a looser tol.
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
    NumericOverflow,
    RadiusBudgetExceeded,
    SingularMatrix,
)
from .kernel import (
    _EPS,
    _FLOAT_TINY,
    DEFAULT_BUDGET,
    DEFAULT_HEIGHT,
    DEFAULT_RADIUS,
    DEFAULT_TOL,
    MODE_SPECIAL_UNITARY,
    MODE_UNITARY,
    Tolerance,
    _adjugate,
    _complex_abs,
    _exponent,
    _fro,
    _gram_fro,
    _inverse,
    _invertibility_gate,
    _ldexp,
    _product,
    _scaled,
    _scaled_rows,
    _sigma_exponent,
    _small_form,
    _unit_det,
    _unitarity,
    as_matrix,
    frozen,
    sigma_ratio,
)
from .lattices import GaussianUnimodular
from .polar import as_gram_form

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
# the entries of the 1 x 1 identity, the only determinant-one B at n = 1
_ONE = (((1, 0),),)
# c of the covolume refuter's rounding term rho = c n eps (kappa1 + kappa2), kappa = sigma_max
# / sigma_min: the computed ratio (lo / hi)^2 is within a factor 1 + rho of the exact one.
# At n = 2, ad - bc is within (1 + sqrt 5) eps/2 (|a||d| + |b||c|) <= 1.62 eps sigma_max^2 of
# det A, so 1.62 eps kappa relative; at n = 1 the det is the entry itself.  Partial-pivot LU
# (n >= 3) gives det(A + dA) with |dA| <= gamma_n |L||U|, about n eps kappa relative at a
# modest growth factor.  The squared ratio moves by twice the sum of the two relative
# errors, plus a few eps for |d| and the ratio (kappa >= 1): c = 4 covers both
_DET_ROUNDING = 4


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
    most 2 H^2 < 2^24 for any grid that fits in memory.  col_list and spread_list are
    cols and spread as Python numbers, a tuple of (b_0, b_1) and a tuple of ints, for the
    scan's pair stage, which reads a few entries per call.
    """

    box: tuple
    cols: np.ndarray
    weights: np.ndarray
    features: np.ndarray
    spread: np.ndarray
    narrow: np.ndarray
    turned: np.ndarray
    col_list: tuple
    spread_list: tuple


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
    spread = x * m * m + y
    narrow = cols.astype(np.complex64)
    return _Grid(
        box, frozen(cols), frozen(np.sum(np.abs(cols) ** 2, axis=1)), frozen(features),
        frozen(spread), frozen(narrow),
        frozen(narrow @ np.array([[0, 1], [-1, 0]], np.complex64)),
        tuple(map(tuple, cols.tolist())), tuple(spread.tolist()),
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


def _gram_hits(height: int, p1: tuple, p2: tuple, tol: Tolerance, budget: int = DEFAULT_BUDGET):
    """Yield, in candidate order, the entries of every determinant-one B of entry height
    <= height with |B* P1 B - P2|_F within tol.rel (|P1|_F + |P2|_F) + tol.abs, for
    Hermitian P1 and P2 given by their entries as Python numbers, (g00,) at n = 1 and
    (g00, g11, g01) at n = 2: at n = 2 the B whose columns _gram_hit_ids finds."""
    if len(p1) == 1:
        yield from _one_hits(p1[0], p2[0], tol)
        return
    box = _grid(height).box
    for x, y in zip(*_gram_hit_ids(height, p1, p2, tol, budget)):
        (a, c), (b, d) = divmod(x, len(box)), divmod(y, len(box))
        yield (box[a], box[b]), (box[c], box[d])


def _form_entries(p: np.ndarray) -> tuple:
    """The entries (g00,) or (g00, g11, g01) of an exactly Hermitian n x n form, n <= 2, as
    Python numbers: what _gram_hits reads."""
    rows = p.tolist()
    if len(rows) == 1:
        return (rows[0][0].real,)
    (p00, p01), (_, p11) = rows
    return p00.real, p11.real, p01


def _one_hits(g1: float, g2: float, tol: Tolerance) -> tuple:
    """The hits of the n = 1 scan on the forms [[g1]] and [[g2]], the larger in [1, 4): its
    one candidate B = 1 where |g1 - g2| <= tol.rel (g1 + g2) + tol.abs.  That is the scan's
    bound, as |[[g]]|_F = sqrt(g^2) is g wherever g^2 is normal, and a g too small for that
    is lost in the sum next to the larger."""
    return (_ONE,) if abs(g1 - g2) <= tol.rel * (g1 + g2) + tol.abs else ()


def _gram_hit_ids(height: int, p1: tuple, p2: tuple, tol: Tolerance,
                  budget: int) -> tuple[list, list]:
    """The grid ids (u, v) of the first and the second column of each 2x2 hit of
    _gram_hits, in candidate order, by the column scan of the module docstring.  The
    slack on each column norm, which scales with |P1|_F and with |b|^2, covers the
    rounding by which two ways of computing b* P1 b may differ.

    Past the column filter, the table of ad - bc is taken over every pair of a first and
    a second column, in blocks of rows of at most _CHUNK pairs.  Only on the pairs with
    ad - bc = 1 are b1* P1, the cross term b1* P1 b2 - (P2)_12, the Frobenius residual and
    the candidate-order key taken, each a fixed-order sum on Python numbers; a pair whose
    residual is within the bound is a hit, and one sort puts the hits in candidate order."""
    (g00, g11, g01), (h00, h11, h01) = p1, p2
    size = _gram_fro(p1)
    bound = tol.rel * (size + _gram_fro(p2)) + tol.abs
    grid = _grid(height)
    coefficients = np.array([g00, g11, g01.real, g01.imag])
    gaps = grid.features @ coefficients - np.array([[h00], [h11]])  # bj* P1 bj - (P2)_jj
    reach = bound + 64 * _EPS * (size * grid.weights + bound)
    near = np.abs(gaps) <= reach
    first = np.flatnonzero(near[0])
    if first.size == 0:
        return [], []
    second = np.flatnonzero(near[1])
    if second.size == 0:
        return [], []
    if first.size * second.size > budget:
        raise HeightTooLarge(f"{first.size} x {second.size} matching column pairs at height"
                             f" {height} exceed budget {budget}")
    # ad - bc from the grid's single-precision rows: exact, at half the bytes
    rows = max(1, _CHUNK // second.size)
    found = []
    for lo in range(0, first.size, rows):
        dets = grid.turned[first[lo:lo + rows]] @ grid.narrow[second].T
        found.append(np.flatnonzero(dets == 1) + lo * second.size)
    pairs = found[0] if len(found) == 1 else np.concatenate(found)
    firsts, seconds = first.tolist(), second.tolist()
    gaps1, gaps2 = gaps[0, first].tolist(), gaps[1, second].tolist()
    cols, spread, m = grid.col_list, grid.spread_list, len(grid.box)
    g10 = g01.conjugate()
    hits = []
    for k in pairs.tolist():
        i, j = divmod(k, len(seconds))
        u, v = firsts[i], seconds[j]
        (a, c), (b, d) = cols[u], cols[v]
        a, c = a.conjugate(), c.conjugate()
        cross = (a * g00 + c * g10) * b + (a * g01 + c * g11) * d - h01
        gap1, gap2 = gaps1[i], gaps2[j]
        if math.sqrt(gap1 * gap1 + gap2 * gap2
                     + 2.0 * (cross.real * cross.real + cross.imag * cross.imag)) <= bound:
            hits.append((m * spread[u] + spread[v], u, v))
    hits.sort()
    return [u for _, u, _ in hits], [v for _, _, v in hits]


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
    for entries in _gram_hits(height, _form_entries(q1), _form_entries(q2), tol, budget):
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
    ok, _, s, f = _invertibility_gate(am, tol)
    e = _sigma_exponent(s, f)  # sigma_max 2^-e in [1, 2)
    unit_radius, am, s = _unit_radius(radius, e), _scaled(am, -e), _scaled(s, f - e)
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
    which the invertibility gate has accepted.

    Raises RadiusBudgetExceeded when the nonzero points of the uniform box
    (2K + 1)^(2n) exceed the limit, and when sigma_min is 0: a basis scaled to
    unit scale with its partner can underflow there, and its box is unbounded.
    """
    ratio = math.sqrt(radius) / float(s[-1]) if s[-1] > 0.0 else math.inf
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


def _first_witness(height: int, a1: list, a2: list, hits, mode: str, tol: Tolerance):
    """The Equivalent verdict of the first hit B of hits (entries, each with det B = 1
    proved) on the pair (A1, A2), lists of rows of Python complex numbers at the pair's unit
    scale, whose T passes every check, or None when none does: at n = 2 the hits are the
    Gram scan's, and at n = 1 the one B = 1.

    Each hit gives the unitary T = A2 B^-1 A1^-1 in closed form, with no BLAS or LAPACK
    call, so its bytes depend on the input alone: B (built on entries the scan proved,
    det B = 1) and A1 are inverted by their adjugates, A1's over its determinant, once at
    the first hit, and each product is a fixed-order sum (_product).  A hit is passed over
    unless T passes classify's test of U in closed form (_unitarity), margin above tol.rel
    and |T* T - I|_F <= tol.rel n, in special_unitary mode also |det T - 1| <= tol.rel n,
    and the residual |A2 - T A1 B|_F is within 100 tol.rel max(|A2|_F, 1) + tol.abs.  The
    scan's bound on E = B* P1 B - P2 does not imply these: T* T - I = -(A1 B)^-* E (A1
    B)^-1 grows like 1 / sigma_min(A1)^2, and a large tol.abs admits every B.  A zero
    (underflowed) det A1 gives no witness.
    """
    n = len(a1)
    inv = None
    for entries in hits:
        if inv is None:
            inv = _inverse(a1)
            if inv is None:  # det A1 underflowed: possible only under a tiny tol.rel
                return None
        bm = [[complex(*e) for e in row] for row in entries]
        t = _product(_product(a2, _adjugate(bm)[0]), inv)  # adj B = B^-1
        margin, defect, det_distance = _unitarity(t)
        if not (margin > tol.rel and defect <= tol.rel * n):
            continue
        if mode == MODE_SPECIAL_UNITARY and det_distance > tol.rel * n:
            continue
        image = _product(_product(t, a1), bm)
        residual = _fro([[x - y for x, y in zip(r, s)] for r, s in zip(a2, image)])
        if residual <= 100.0 * tol.rel * max(_fro(a2), 1.0) + tol.abs:
            b = GaussianUnimodular._proved(entries)  # the scan proved det B = 1
            return EquivalenceVerdict(EQUIVALENT, (frozen(np.array(t)), b), None, height)
    return None


def _scan_forms(forms: list, e: int) -> list:
    """The Gram entries (g00, g11, g01) of each 2 x 2 _SmallForm at the pair's unit scale
    2^-e, brought from the form's own scale 2^-f by 4^(f - e), exact short of underflow:
    the Python numbers _gram_hits reads.  Each matrix is a root of its form and has passed
    the gate, so the forms need no positivity check; a diagonal entry, the squared length
    of a column, below the smallest normal double (possible only under a caller's tiny
    tol.rel) raises NumericOverflow."""
    grams = [tuple(_ldexp(g, 2 * (f.scale - e)) for g in f.gram) for f in forms]
    if not min(g for form in grams for g in form[:2]) >= _FLOAT_TINY:
        raise NumericOverflow("gram form A* A underflowed: the entries of A are too small")
    return grams


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

    The stages run once on the pair, cheapest first: the invertibility gate, the
    covolume refuter, the dimension cap, the radius check and the box budgets, the
    height check, then the Gram forms A* A and the bounded Gram-orbit scan (both only
    where the height check passes).  At n <= 2 the pair is read once as Python
    complex numbers and the gate, the determinants and the Gram forms are taken in
    closed form (kernel._small_form), with no LAPACK call; from n = 3 the two inputs
    are stacked into one pair (2, n, n), gated by one SVD call and their determinants
    taken by one call of kernel._unit_det.  A witness the scan verifies at tol is
    returned at once; the short-vector spectrum refuter runs only where the scan keeps
    none (see the module docstring).  Everything past the gate is read at the one
    power of two that puts the larger sigma_max in [1, 2), and the radius at its
    square: the verdict does not change under a common power-of-two scale, tol.abs
    applies at unit scale, and covolumes and spectrum values are reported at the
    caller's scale.  Where the scan does not run or raises (HeightTooLarge at n = 3 or
    past a budget, say), a refutation by the spectra is returned, and the scan's error
    is raised only when they do not refute.
    The covolume refuter calls the pair apart when 1 - (lo / hi)^2 (1 + rho) >
    tol.rel, lo and hi the two |det|, and rho = _DET_ROUNDING n eps (kappa1 +
    kappa2) the rounding of the two determinants, kappa = sigma_max / sigma_min of
    each matrix from the gate: a pair A2 = U A1, equivalent by construction, is not
    refuted by its rounding, however ill-conditioned.
    At n = 1 no Gram form is formed and no scan runs: the one candidate B = 1 is
    tested on the squared lengths |a|^2 against the scan's bound, and T = a2 / a1 is
    built and checked by _first_witness as a scan hit's is.  No such length underflows
    past the covolume test: the gate admits tol.rel < 1 only (sigma_min / sigma_max is
    1), and rho is 8 eps at n = 1, so |a2 / a1|^2 >= (1 - tol.rel) / (1 + rho) is at
    least about 2^-54, and the larger |a| is in [1, 2).
    Each input is a root of its Gram form and has passed the gate, so the forms need
    no positivity check; an A* A that underflowed (possible only under a caller's tiny
    tol.rel) raises NumericOverflow.  Equivalent verdicts carry the reconstructed
    unitary T = A2 B^-1 A1^-1 (B inverted exactly via its adjugate) of the first hit
    that passes the re-verification; a hit that fails it is passed over and the search
    continues, so a pair whose hits all fail is decided by the spectra or left
    Undecided.  In special_unitary mode both inputs must also have determinant one at
    the caller's scale, as classify calls it (the same gate and determinant, then
    |det - 1| <= tol.rel * n; NotInSL otherwise, a singular input included), and
    witnesses are additionally filtered by det(T) = 1 in the same way.
    """
    m1 = as_matrix(a1, square=True)
    m2 = as_matrix(a2, square=True)
    if m1.shape != m2.shape:
        raise DimensionMismatch(f"shapes differ: {m1.shape} vs {m2.shape}")
    if mode not in (MODE_UNITARY, MODE_SPECIAL_UNITARY):
        raise ValueError(f"unknown mode {mode!r}")
    n = m1.shape[0]
    # e puts the larger sigma_max 2^-e in [1, 2), and each (d, k) gives the det of a matrix
    # at that unit scale as d 2^(n k), so the caller's det is d 2^(n (e + k)), at any scale
    if n <= 2:  # closed form on Python numbers, each matrix at its own unit scale 2^-f
        rows = m1.tolist(), m2.tolist()
        forms = [_small_form(x) for x in rows]
        margin = [sigma_ratio(f.sigma_max, f.sigma_min) for f in forms]
        e = max(f.scale + _exponent(f.sigma_max) for f in forms)
        dets = [(f.det, f.scale - e) for f in forms]
    else:
        pair = np.array((m1, m2))
        _, margin, s, f = _invertibility_gate(pair, tol)
        margin = margin.tolist()
        e = max(map(_sigma_exponent, s, f))
        pair = _scaled(pair, -e)
        dets = _unit_det(pair)
    ok = [m > tol.rel for m in margin]  # the gate's threshold test
    # a singular input fails as gram would fail on it, or, in special_unitary mode, as
    # classify's determinant-one verdict would
    if mode == MODE_UNITARY and not all(ok):
        worst = next(m for m, passed in zip(margin, ok) if not passed)
        raise SingularMatrix(f"gram needs an invertible matrix (margin {worst:.3e})")
    if mode == MODE_SPECIAL_UNITARY:
        for name, passed, (d, k) in zip(("A1", "A2"), ok, dets):
            distance = _complex_abs(_ldexp(d, n * (e + k)) - 1.0)
            if not (passed and distance <= tol.rel * n):
                raise NotInSL(f"{name} has determinant distance {distance:.3e} from one")
    # the covolumes |det|^2 differ by more than tol.rel of the larger, even with the smaller
    # raised by the rounding of the two determinants: tested on the ratio of the two |d|
    # brought to the smaller k, exact short of an overflow to inf (ratio 0); both margins
    # are positive past the gate
    low = min(k for _, k in dets)
    lo, hi = sorted(_ldexp(_complex_abs(d), n * (k - low)) for d, k in dets)
    rounding = _DET_ROUNDING * n * _EPS * sum(1.0 / m for m in margin)
    if hi > 0.0 and 1.0 - (lo / hi) ** 2 * (1.0 + rounding) > tol.rel:
        r1, r2 = (_ldexp(_complex_abs(d), n * (e + k)) for d, k in dets)  # at the caller's scale
        return EquivalenceVerdict(REFUTED, None, ("covolume", r1 * r1, r2 * r2), height)

    # past the cheap refuter, the remaining stages only make sense where the
    # orbit search can run, so fail fast before an 8-and-up-dimensional pair's box scan
    if n > _MAX_ORBIT_DIM:
        raise DimensionTooLarge(f"orbit search is capped at dimension {_MAX_ORBIT_DIM}")
    unit_radius = _unit_radius(radius, e)
    if n <= 2:  # each form's singular values, from its own scale to the pair's
        svals = [[_ldexp(x, f.scale - e) for x in (f.sigma_max, f.sigma_min)[:n]] for f in forms]
    else:
        svals = [_scaled(x, k - e).tolist() for x, k in zip(s, f)]
    ks = [_uniform_box(x, unit_radius, budget) for x in svals]
    try:
        _check_height(n, height, budget)
    except (CxlatError, ValueError) as exc:  # raised after the spectra, which may refute first
        error = exc
    else:  # n <= 2: the scan runs on the closed forms
        error = None
        if n == 2:  # the forms reach the scan only here, and their underflow is raised at once
            hits = _gram_hits(height, *_scan_forms(forms, e), tol, budget)
        else:  # the n = 1 scan's one test, on the squared lengths A* A would hold, bit for bit
            g1, g2 = (_ldexp(f.gram[0], 2 * (f.scale - e)) for f in forms)
            hits = _one_hits(g1, g2, tol)
        try:
            witness = _first_witness(height, *(_scaled_rows(x, -e) for x in rows), hits, mode, tol)
        except (CxlatError, ValueError) as exc:
            witness, error = None, exc
        if witness is not None:  # verified at tol: the spectra do not overrule it
            return witness
    if n <= 2:  # the numpy pair, at unit scale, only for the spectra
        pair = _scaled(np.array((m1, m2)), -e)
    mismatch = _spectra_mismatch(*_enumerate(pair, svals, ks, unit_radius), unit_radius, e)
    if mismatch is not None:
        return EquivalenceVerdict(REFUTED, None, mismatch, height)
    if error is not None:
        raise error
    return EquivalenceVerdict(UNDECIDED, None, None, height)
