"""Unitary equivalence of Gaussian-integer lattices, decided up to a bound.

Two lattices A1(Z[i]^n) and A2(Z[i]^n) are equivalent when a unitary T
maps one onto the other.  Chasing generators, that happens exactly when
A2 = T A1 B for some determinant-one Gaussian-integer matrix B, which in
turn is a congruence of Gram forms: gram(A2) = B* gram(A1) B.  The search
over B is a brute force bounded by an entry height H, so the outcome is a
semidecision with three honest states: Equivalent (with a re-verifiable
witness), RefutedByInvariant (a unitary invariant separates the lattices),
or UndecidedUpToBound.

Candidates with exact determinant one come by one of two routes.  The
complete route enumerates n = 2 in full when the height box fits the
budget (three entries range freely, the fourth is solved in exact integer
arithmetic, all with numpy); the closure route takes the breadth-first
closure of unit-multiple column operations from the identity, capped at
the same budget.  Candidate order is fixed on each route, and the first
matching witness wins, so repeated runs return identical verdicts.

Each candidate set is cached per (n, height, route), once, as the public
tuples together with their stacked complex128 array of shape (k, n, n);
the Gram scan runs on that array in chunks.  A closure that overruns its
budget is remembered per (n, height): a later call whose budget is no
larger raises HeightTooLarge at once, while a larger budget runs the
closure again.  So only the first call in a process pays for generating
a set, and the cache answers the same call the same way whatever came
before it.

The search is norm-first.  Column i of a witness B has P1-norm (P2)_ii
(the first invariant of Plesken and Souvignier, "Computing isometries of
lattices", 1997), so each cached set also holds its distinct columns and
a (k, n) array of column ids; the scan computes b* P1 b once per distinct
column and runs the full Gram test only on the candidates whose columns
all have the right norms.  The short-vector refuter bounds each integer
coordinate by its own axis (as in Fincke and Pohst, 1985) instead of one
uniform box.  lattice_equivalent runs its stages cheapest first: the
invertibility gate, the covolume refuter, the dimension cap, and only
then the Gram forms, the spectra and the scan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    HeightTooLarge,
    InternalCheckError,
    NotInSL,
    RadiusBudgetExceeded,
    SingularMatrix,
)
from .gaussian import ZERO, gadd, gmul
from .kernel import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    det,
    fro,
    frozen,
    invertibility_margin,
    real_columns,
    singular_values,
)
from .lattices import GaussianUnimodular
from .polar import GramForm, classify, gram_form

EQUIVALENT = "Equivalent"
REFUTED = "RefutedByInvariant"
UNDECIDED = "UndecidedUpToBound"

DEFAULT_HEIGHT = 2
DEFAULT_RADIUS = 4.0
DEFAULT_BUDGET = 10**7
_MAX_ORBIT_DIM = 3
_CHUNK = 1 << 16
_EPS = float(np.finfo(np.float64).eps)

MODE_UNITARY = "unitary"
MODE_SPECIAL_UNITARY = "special_unitary"


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
        if any(self.norms[i] > self.norms[i + 1] for i in range(len(self.norms) - 1)):
            raise InternalCheckError("spectrum norms must ascend")


def _height(entry) -> int:
    return max(abs(entry[0]), abs(entry[1]))


def _gauss_box(height: int):
    # fixed lexicographic order keeps candidate enumeration deterministic
    return tuple(
        (re, im) for re in range(-height, height + 1) for im in range(-height, height + 1)
    )


class _Candidates(NamedTuple):
    """One candidate set: the public tuple form, its read-only (k, n, n) stack,
    and its columns as a table of distinct columns (c, n) with a (k, n) array
    of ids, so that column i of candidate j is cols[col_ids[j, i]]."""

    entries: tuple
    stack: np.ndarray
    cols: np.ndarray
    col_ids: np.ndarray


def _stack(candidates) -> np.ndarray:
    """Candidate tuples as a read-only complex128 array of shape (k, n, n)."""
    ints = np.array(candidates, dtype=np.int64)
    return frozen(ints[..., 0] + 1j * ints[..., 1])


def _from_tuples(entries) -> _Candidates:
    """A candidate set built from its tuples, each distinct column numbered once."""
    n = len(entries[0])
    ids: dict = {}
    col_ids = [
        [ids.setdefault(tuple(m[r][c] for r in range(n)), len(ids)) for c in range(n)]
        for m in entries
    ]
    return _Candidates(
        entries,
        _stack(entries),
        _stack(list(ids)),
        frozen(np.array(col_ids, dtype=np.intp)),
    )


def _complete_2x2(height: int) -> _Candidates:
    """Every 2x2 determinant-one matrix ((a, b), (c, d)) of entry height <= height.

    Ordered lexicographically by (a, b, c, d) in box order.  For a != 0 the
    entry d = (1 + bc) / a is solved in exact integer arithmetic over all
    (b, c) at once; for a = 0 the condition is bc = -1 and d ranges freely.
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
    entries = tuple(zip(top, bottom))
    values = pts[:, 0] + 1j * pts[:, 1]
    # column (x, y) of box indices has id x * m + y: every pair, in box order
    cols = np.stack([np.repeat(values, m), np.tile(values, m)], axis=1)
    col_ids = np.stack([idx[:, 0] * m + idx[:, 2], idx[:, 1] * m + idx[:, 3]], axis=1)
    return _Candidates(
        entries, frozen(values[idx].reshape(-1, 2, 2)), frozen(cols), frozen(col_ids)
    )


def _closure_overrun(height: int, budget: int) -> HeightTooLarge:
    return HeightTooLarge(f"candidate closure at height {height} exceeds budget {budget}")


def _bfs_candidates(n: int, height: int, budget: int):
    units = ((1, 0), (-1, 0), (0, 1), (0, -1))
    start = tuple(tuple((1, 0) if i == j else ZERO for j in range(n)) for i in range(n))
    seen = {start}
    order = [start]
    queue = deque([start])
    while queue:
        m = queue.popleft()
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for z in units:
                    col = tuple(gadd(m[r][j], gmul(z, m[r][i])) for r in range(n))
                    if any(_height(e) > height for e in col):
                        continue
                    m2 = tuple(
                        tuple(col[r] if c == j else m[r][c] for c in range(n))
                        for r in range(n)
                    )
                    if m2 in seen:
                        continue
                    if len(order) >= budget:
                        raise _closure_overrun(height, budget)
                    seen.add(m2)
                    order.append(m2)
                    queue.append(m2)
    return tuple(order)


# (n, height, complete) -> _Candidates, complete telling the complete route
# from the closure; each set is generated once per process and then shared
_CANDIDATE_CACHE: dict = {}
# (n, height) -> largest budget the closure is known to exceed
_CLOSURE_OVERRUNS: dict = {}


def _candidates(n: int, height: int, budget: int) -> _Candidates:
    """The cached set behind sigma_candidates, with its stack."""
    if n < 1:
        raise DimensionMismatch("dimension must be positive")
    if height < 1:
        raise ValueError("height must be at least 1 (the identity has height 1)")
    complete = n == 1 or (n == 2 and (2 * height + 1) ** 6 <= budget)
    key = (n, height, complete)
    cached = _CANDIDATE_CACHE.get(key)
    if cached is not None:
        # answer as a fresh closure run would: it fails past the budget
        if not complete and len(cached.entries) > budget:
            raise _closure_overrun(height, budget)
        return cached
    if n == 1:
        cached = _from_tuples(((((1, 0),),),))
    elif complete:
        cached = _complete_2x2(height)
    else:
        overrun = _CLOSURE_OVERRUNS.get((n, height))
        if overrun is not None and budget <= overrun:
            raise _closure_overrun(height, budget)
        try:
            entries = _bfs_candidates(n, height, budget)
        except HeightTooLarge:
            _CLOSURE_OVERRUNS[(n, height)] = budget
            raise
        cached = _from_tuples(entries)
    _CANDIDATE_CACHE[key] = cached
    return cached


def sigma_candidates(n: int, height: int, budget: int = DEFAULT_BUDGET):
    """Determinant-one Gaussian-integer matrices with entry height <= height.

    Complete for n = 1 and for n = 2 whenever (2H+1)^6 fits the budget;
    beyond that, the breadth-first column-operation closure (a subset, so
    verdicts built on it stay sound but may be undecided).
    """
    return _candidates(n, height, budget).entries


def _gram_hits(cands: _Candidates, p1: np.ndarray, p2: np.ndarray, bound: float):
    """Yield, in candidate order, the index of every B with |B* P1 B - P2|_F <= bound.

    Column i of such a B has P1-norm (P2)_ii to within the bound, so the
    norm b* P1 b of each distinct column is computed once and the candidates
    whose columns miss their diagonal entry are dropped before the full
    Frobenius test.  The slack covers the rounding by which the two ways of
    computing b* P1 b may differ.
    """
    n = p1.shape[0]
    norms = np.einsum("ci,ij,cj->c", cands.cols.conj(), p1, cands.cols).real
    weight = np.sum(np.abs(cands.cols) ** 2, axis=1)  # |b|^2
    slack = 32 * n * _EPS * (fro(p1) * weight + bound)
    near = np.abs(norms[:, None] - p2.diagonal().real) <= (bound + slack)[:, None]
    keep = np.ones(len(cands.col_ids), dtype=bool)
    for i in range(n):
        keep &= near[cands.col_ids[:, i], i]
    survivors = np.flatnonzero(keep)
    for lo in range(0, len(survivors), _CHUNK):
        sel = survivors[lo : lo + _CHUNK]
        bs = cands.stack[sel]
        transported = np.einsum("kji,jl,klm->kim", bs.conj(), p1, bs)
        diffs = np.sqrt(np.sum(np.abs(transported - p2) ** 2, axis=(1, 2)))
        for idx in sel[diffs <= bound]:
            yield int(idx)


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
    taller witness may always exist.
    """
    if not isinstance(p1, GramForm):
        p1 = GramForm(p1)
    if not isinstance(p2, GramForm):
        p2 = GramForm(p2)
    if p1.dim != p2.dim:
        raise DimensionMismatch(f"dimensions differ: {p1.dim} vs {p2.dim}")
    n = p1.dim
    if n > _MAX_ORBIT_DIM:
        raise DimensionTooLarge(f"orbit search is capped at dimension {_MAX_ORBIT_DIM}")
    candidates = _candidates(n, height, budget)
    bound = tol.rel * (fro(p1.matrix) + fro(p2.matrix)) + tol.abs
    for idx in _gram_hits(candidates, p1.matrix, p2.matrix, bound):
        b = GaussianUnimodular(candidates.entries[idx])
        return EquivalenceVerdict(EQUIVALENT, (None, b), None, height)
    return EquivalenceVerdict(UNDECIDED, None, None, height)


def short_vectors(
    a, radius: float, tol: Tolerance = DEFAULT_TOL, limit: int = DEFAULT_BUDGET
) -> ShortVectorSpectrum:
    """Squared norms |A lambda|^2 <= radius over nonzero Gaussian-integer vectors.

    Write R for the realified generator matrix and x for the integer
    coordinates of lambda, so that |A lambda| = |R x|.  The coefficient box
    is provably sufficient: |x_i| <= |row i of R^-1| * |R x|, so outside
    K_i = floor(sqrt(radius) * |row i of R^-1|) on axis i the image norm
    already exceeds the radius.  Every K_i is at most the uniform bound
    K = floor(sqrt(radius) / sigma_min), since each row of R^-1 has norm at
    most 1 / sigma_min, and for a skewed basis the per-axis box is far
    smaller.  The budget is still checked against the uniform box
    (2K + 1)^(2n): it caps the work of any input alike, and which inputs
    raise RadiusBudgetExceeded does not depend on the rounding of R^-1.
    """
    am = as_matrix(a, square=True)
    if radius < 0 or not np.isfinite(radius):
        raise ValueError("radius must be a finite nonnegative number")
    n = am.shape[0]
    real = real_columns(np.hstack([am, 1j * am]))
    s = singular_values(real, tol)
    if s[-1] <= tol.rel * s[0]:
        raise SingularMatrix("short-vector enumeration needs an invertible matrix")
    k = int(np.floor(np.sqrt(radius) / s[-1]))
    total = (2 * k + 1) ** (2 * n)
    if total - 1 > limit:
        raise RadiusBudgetExceeded(
            f"coefficient box of {total - 1} vectors exceeds limit {limit}"
        )
    # the relative margin absorbs rounding in the row norms of R^-1; the
    # absolute term, a multiple of cond(R) eps |R^-1|, covers ill-conditioned R
    rows = np.linalg.norm(np.linalg.inv(real), axis=1)
    reach = rows * (1.0 + 1e-9) + 16 * n * _EPS * s[0] / s[-1] ** 2
    ks = np.minimum(k, np.floor(np.sqrt(radius) * reach)).astype(np.int64)
    shape = tuple(2 * ks + 1)
    size = int(np.prod(shape))
    norms = []
    for lo in range(0, size, _CHUNK):
        idx = np.arange(lo, min(lo + _CHUNK, size))
        coords = np.stack(np.unravel_index(idx, shape)) - ks[:, None]
        lam = coords[:n, :] + 1j * coords[n:, :]
        w = am @ lam
        sq = np.sum(w.real**2 + w.imag**2, axis=0)
        keep = (sq <= radius) & np.any(coords != 0, axis=0)
        norms.extend(sq[keep].tolist())
    norms.sort()
    return ShortVectorSpectrum(float(radius), tuple(norms))


def _spectra_mismatch(s1: ShortVectorSpectrum, s2: ShortVectorSpectrum, radius: float):
    """First robust difference between two spectra, or None.

    Entries near the radius boundary are ignored (a guard band), and a
    mismatch must survive at twice the band to count, so floating-point
    placement at either cutoff can never refute a genuinely equivalent pair.
    """
    base = 1e-6 * max(radius, 1.0)
    verdicts = []
    for band in (base, 2.0 * base):
        c1 = [v for v in s1.norms if v <= radius - band]
        c2 = [v for v in s2.norms if v <= radius - band]
        if len(c1) != len(c2):
            verdicts.append(("short_vector_count", float(len(c1)), float(len(c2))))
            continue
        found = None
        for v1, v2 in zip(c1, c2):
            if abs(v1 - v2) > 1e-6 * max(1.0, v1):
                found = ("short_vector_spectrum", v1, v2)
                break
        verdicts.append(found)
    if verdicts[0] is not None and verdicts[1] is not None:
        return verdicts[1]
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

    Pipeline: invertibility gate, covolume refuter, the dimension cap, the
    Gram forms, short-vector spectrum refuter, then the bounded Gram-orbit
    search.  The Gram forms need no positivity check of their own: each
    input is a root of its form and has passed the gate.  Equivalent
    verdicts carry the reconstructed
    unitary T = A2 B^-1 A1^-1 (B inverted exactly via its adjugate) and are
    re-verified before being returned.  In special_unitary mode both inputs
    must have determinant one (classify, whose determinant-one verdict
    implies invertibility, so it serves as the gate and supplies the
    covolumes) and witnesses are additionally filtered by det(T) = 1,
    continuing the search otherwise.
    """
    m1 = as_matrix(a1, square=True)
    m2 = as_matrix(a2, square=True)
    if m1.shape != m2.shape:
        raise DimensionMismatch(f"shapes differ: {m1.shape} vs {m2.shape}")
    if mode not in (MODE_UNITARY, MODE_SPECIAL_UNITARY):
        raise ValueError(f"unknown mode {mode!r}")
    n = m1.shape[0]
    abs_dets = []
    if mode == MODE_SPECIAL_UNITARY:
        # in_sl implies in_gl, so classify has run the invertibility gate too
        for name, m in (("A1", m1), ("A2", m2)):
            member = classify(m, tol)
            if not member.in_sl:
                raise NotInSL(
                    f"{name} has determinant distance {member.det_distance:.3e} from one"
                )
            abs_dets.append(member.abs_det)
    else:
        # the stages run cheapest first; a singular input fails as gram would fail on it
        for m in (m1, m2):
            ok, margin = invertibility_margin(m, tol)
            if not ok:
                raise SingularMatrix(f"gram needs an invertible matrix (margin {margin:.3e})")
            abs_dets.append(abs(det(m)))

    c1, c2 = (float(d**2) for d in abs_dets)
    if abs(c1 - c2) > tol.rel * max(c1, c2):
        return EquivalenceVerdict(REFUTED, None, ("covolume", c1, c2), height)

    # past the cheap refuter, the remaining stages only make sense where the
    # orbit search can run, so fail fast before the Gram forms of an 8-and-up-
    # dimensional pair and its box scan
    if n > _MAX_ORBIT_DIM:
        raise DimensionTooLarge(f"orbit search is capped at dimension {_MAX_ORBIT_DIM}")
    p1 = gram_form(m1)
    p2 = gram_form(m2)

    mismatch = _spectra_mismatch(
        short_vectors(m1, radius, tol, budget), short_vectors(m2, radius, tol, budget), radius
    )
    if mismatch is not None:
        return EquivalenceVerdict(REFUTED, None, mismatch, height)
    candidates = _candidates(n, height, budget)
    bound = tol.rel * (fro(p1.matrix) + fro(p2.matrix)) + tol.abs
    inv1 = np.linalg.inv(m1)  # m1 passed the gate, and each witness is re-verified
    for idx in _gram_hits(candidates, p1.matrix, p2.matrix, bound):
        b = GaussianUnimodular(candidates.entries[idx])
        t = m2 @ b.inverse_matrix() @ inv1
        if not classify(t, tol).in_u:
            raise InternalCheckError(
                "gram congruence certified but the reconstructed map is not unitary"
            )
        if mode == MODE_SPECIAL_UNITARY and abs(det(t) - 1.0) > tol.rel * n:
            continue
        residual = fro(m2 - t @ m1 @ b.matrix)
        if residual > 100.0 * tol.rel * max(fro(m2), 1.0) + tol.abs:
            raise InternalCheckError(
                f"witness failed re-verification (residual {residual:.3e})"
            )
        return EquivalenceVerdict(EQUIVALENT, (frozen(t), b), None, height)
    return EquivalenceVerdict(UNDECIDED, None, None, height)
