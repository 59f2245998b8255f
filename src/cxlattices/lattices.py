"""Lattices in C^n presented by generator matrices.

A lattice here is the image of Z^2n under an invertible real-linear map
into C^n, stored as the complex n x 2n matrix G whose columns are the
images of the standard basis vectors.  Realifying G (stacking real over
imaginary parts) gives a square 2n x 2n matrix; its invertibility is the
full-rank invariant, and its determinant modulus the covolume.  A basis
takes the SVD of its realification once, the first time its margin is
read, and every solve against it (torus reduction, same_lattice) reads the
margin and the Frobenius norm it carries.

Two generator matrices present the same lattice exactly when the change
of coordinates between their realifications is an integer matrix of
determinant +-1; that integer witness is computed by rounding and then
checked in exact arithmetic (an integer inverse whose product with it is
exact, else the exact determinant), so a certificate is never the product
of floating-point luck.  The normalization pipeline permutes generators
until the first n are C-linearly independent, then post-composes with
the inverse of that block, leaving a basis of the form [I | Z] whose
period matrix Z has invertible imaginary part; the margin of that block
is taken once, by the permuted basis, which carries it.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    AmbiguousIntegrality,
    DeterminantNotOne,
    DimensionMismatch,
    FirstBlockSingular,
    InternalCheckError,
    NonIntegralEntry,
    NumericOverflow,
    RankDeficient,
)
from .gaussian import gabs2, gadjugate, gdet, gidentity, gmat, gmatmul, gneg
from .kernel import (
    _FLOAT_TINY,
    DEFAULT_TOL,
    GRAY_ZONE,
    Tolerance,
    _built,
    _complex_abs,
    _exponent,
    _invertibility_gate,
    _ldexp,
    _scaled,
    _unit_det,
    _unit_values,
    as_columns,
    as_matrix,
    fro,
    frozen,
    gated_solve,
    real_columns,
    sigma_ratio,
)

if TYPE_CHECKING:
    from .realmaps import SplitForm


def _as_generators(g) -> np.ndarray:
    gm = as_matrix(g)
    if gm.shape[1] != 2 * gm.shape[0]:
        raise DimensionMismatch(f"generator matrix must be n x 2n, got shape {gm.shape}")
    return gm


@dataclass(frozen=True, eq=False)
class LatticeBasis:
    """Generator matrix of a full lattice; build through from_generators.

    A basis carries its realification and, from the first time they are
    read, that matrix's extreme singular values sigma_max and sigma_min: one
    SVD per basis, taken lazily and kept (from_generators reads them at once
    to validate).  ``margin`` = sigma_min / sigma_max is what solve's gate
    reads, and the Frobenius norm of the realification (also kept once
    computed) is what its residual bound reads, so solving against the basis
    (``coordinates``: torus reduction, same_lattice) runs no further SVD and
    no further norm of the basis.  The margin of the first n generators, the
    block normalize_to_Lstarstar inverts, is kept the same way once read
    (permute_to_L1 reads it to gate the basis it returns).  It also keeps,
    once read, whether G @ c is finite for every c in [0, 1]^2n (``_reps_finite``):
    torus then builds a representative with no finiteness pass.  A basis is
    immutable, so a verdict about it (torus keeps same_lattice's) stays true.
    """

    g: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "g", _as_generators(self.g))

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @cached_property
    def _real(self) -> np.ndarray:
        # solve's LU runs in complex arithmetic; keeping its input keeps its bits
        return frozen(real_columns(self.g).astype(np.complex128))

    @property
    def realified(self) -> np.ndarray:
        return self._real.real

    @cached_property
    def _extremes(self) -> tuple[float, float, int]:
        """sigma_max and sigma_min of the realification 2^-f, and f (kernel._unit_values)."""
        s, f = _unit_values(self._real)
        return float(s[0]), float(s[-1]), f

    @cached_property
    def _block_margin(self) -> float:
        """sigma_min / sigma_max of the first n generators, as invertibility_margin gives it."""
        s = _unit_values(self.g[:, : self.n])[0]
        return sigma_ratio(float(s[0]), float(s[-1]))

    @cached_property
    def _norm(self) -> float:
        return fro(self._real)

    @cached_property
    def _reps_finite(self) -> bool:
        """Whether G @ c is finite for every c in [0, 1]^2n, proved from G's entries.

        |Re (G c)_i| is at most the i-th row sum of |Re G|, |Im (G c)_i| the
        i-th of |Im G|; the largest of each, summed, bounds every partial sum
        and product a complex matmul forms.  Below 2^1000 that bound leaves a
        factor 2^24 to the largest double, more than the rounding of any sum
        of 2n terms can use, so G @ c cannot overflow.  The row sums
        themselves may overflow here, to inf, which fails the proof, unwarned.
        """
        with np.errstate(over="ignore"):
            bound = np.abs(self.g.real).sum(axis=1).max() + np.abs(self.g.imag).sum(axis=1).max()
        return bool(bound < 2.0**1000)

    @cached_property
    def _verdicts(self) -> weakref.WeakKeyDictionary:
        # other basis -> {tolerance: same_lattice(self, other, tolerance)[0]}; torus keeps them
        return weakref.WeakKeyDictionary()

    @property
    def sigma_max(self) -> float:
        top, _, f = self._extremes
        return _ldexp(top, f)

    @property
    def sigma_min(self) -> float:
        _, bottom, f = self._extremes
        return _ldexp(bottom, f)

    @property
    def margin(self) -> float:
        """sigma_min / sigma_max of the realification, as invertibility_margin gives it."""
        return sigma_ratio(*self._extremes[:2])

    def coordinates(self, w, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """solve(realified, w, tol) for a vector or columns w in R^2n, gated by the carried margin.

        The same validation, gate, LU and residual check as solve (its bound
        reads the carried norm, the value solve computes), so the same bits,
        shape and errors (SingularMatrix when the margin is at or below
        tol.rel, NumericOverflow when the LU overflows).
        """
        wm, vector = as_columns(w, 2 * self.n)
        x = self._coordinates(wm, tol)
        return x[:, 0] if vector else x

    def _coordinates(self, wm: np.ndarray, tol: Tolerance) -> np.ndarray:
        """coordinates of a validated 2-d complex128 stack of columns in R^2n."""
        return gated_solve(self._real, self.margin, self._norm, wm, tol)


@dataclass(frozen=True)
class GaussianUnimodular:
    """Matrix over the Gaussian integers with determinant exactly one.

    Entries are pairs of Python ints, never floats, so the determinant
    condition is checked exactly; the integrality of the inverse (the
    adjugate, since det = 1) is verified on construction, and the verified
    adjugate is kept for inverse_matrix.
    """

    entries: tuple
    _adjugate: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        b = gmat(self.entries)
        if len(b) != len(b[0]):
            raise DimensionMismatch("expected a square matrix")
        d = gdet(b)
        if d != (1, 0):
            raise DeterminantNotOne(f"exact determinant is {d}, not 1")
        adj = gadjugate(b)
        if gmatmul(b, adj) != gidentity(len(b)):
            raise InternalCheckError("adjugate of a determinant-one matrix must be its inverse")
        object.__setattr__(self, "entries", b)
        object.__setattr__(self, "_adjugate", adj)

    @classmethod
    def _proved(cls, entries: tuple) -> GaussianUnimodular:
        """The matrix on entries (n <= 2, pairs of Python ints as gmat gives them) whose
        determinant the caller has proved to be exactly one, built without the re-proof:
        its adjugate is then the entries themselves at n = 1, ((d, -b), (-c, a)) at n = 2."""
        if len(entries) == 1:
            return _built(cls, entries=entries, _adjugate=entries)
        (a, b), (c, d) = entries
        return _built(cls, entries=entries, _adjugate=((d, gneg(b)), (gneg(c), a)))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[complex(*e) for e in row] for row in self.entries])

    def inverse_matrix(self) -> np.ndarray:
        """Exact inverse, the adjugate verified on construction, returned as floats."""
        return np.array([[complex(*e) for e in row] for row in self._adjugate])


@dataclass(frozen=True, eq=False)
class PeriodMatrix:
    """Complex square matrix with invertible imaginary part."""

    z: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "z", _imaginary_part_invertible(as_matrix(self.z, square=True)))

    @property
    def n(self) -> int:
        return self.z.shape[0]


def _imaginary_part_invertible(zm: np.ndarray) -> np.ndarray:
    """Z, once its imaginary part passes the invertibility gate at the default tolerance."""
    ok, margin = _invertibility_gate(zm.imag.astype(np.complex128), DEFAULT_TOL)[:2]
    if not ok:
        raise RankDeficient(f"imaginary part is singular (margin {margin:.3e})")
    return zm


def from_generators(g, tol: Tolerance = DEFAULT_TOL) -> LatticeBasis:
    """Validate a generator matrix: the realification must be invertible.

    The basis is built first; validating it takes the one SVD of its
    realification, whose margin the basis then carries.  That margin must
    exceed tol.rel, else RankDeficient.
    """
    return _full_rank(LatticeBasis(g), tol)


def _full_rank(lat: LatticeBasis, tol: Tolerance) -> LatticeBasis:
    if not is_full_rank(lat, tol):
        raise RankDeficient(f"realified generators are rank deficient (margin {lat.margin:.3e})")
    return lat


def is_full_rank(lat: LatticeBasis, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the basis passes from_generators: its carried margin exceeds tol.rel."""
    return lat.margin > tol.rel


def rank_margin(g, tol: Tolerance = DEFAULT_TOL) -> float:
    """Smallest singular value of the realified generator matrix.

    Accepts up to 2n columns; a positive margin certifies trivial kernel,
    and perturbations smaller than the margin cannot destroy it.
    """
    gm = as_matrix(g)
    n, m = gm.shape
    if m > 2 * n:
        raise DimensionMismatch(f"at most {2 * n} columns can be independent over R, got {m}")
    s, f = _unit_values(real_columns(gm).astype(np.complex128))
    return _ldexp(float(s[-1]), f)


def covolume(lat: LatticeBasis) -> float:
    """Volume of a fundamental parallelepiped: |det| of the realification.

    The determinant follows the kernel's scale rule (kernel._unit_det): where it is not
    a finite normal double, it is taken again on the realification times the power of
    two 2^-e that puts sigma_max in [1, 2), and scaled back by 2^(2n e).  A covolume past
    the largest double is inf, and one that underflows below the smallest normal double
    raises NumericOverflow; a singular basis has covolume 0.0.  No path warns.
    """
    top, _, f = lat._extremes
    d, e = _unit_det(lat._real, f + _exponent(top))
    size = _ldexp(_complex_abs(d), 2 * lat.n * e)
    if d != 0 and size < _FLOAT_TINY:
        raise NumericOverflow(
            f"covolume underflowed: |det| of the realified generators, 2^{2 * lat.n * e} times"
            f" {_complex_abs(d):.17g}, is below the smallest normal double"
        )
    return size


def same_lattice(
    lat1: LatticeBasis, lat2: LatticeBasis, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, np.ndarray | None]:
    """Whether two bases generate the same lattice; on success also the witness.

    The coordinate change X = R1^-1 R2 (solved through lat1, behind its
    carried margin) must be integral with |det| = 1.  Entries within tol.abs
    of integers are rounded to the witness W, and |det W| = 1 is then proved
    exactly: by W's rounded inverse when it is an exact integer inverse
    (_inverse_certified), else by W's exact determinant (gdet, on W as
    Gaussian pairs), which decides what the certificate leaves (a singular
    or non-unimodular W, an inaccurate inverse, entries past the
    certificate's guard).  An entry landing in the ambiguous band just
    outside tol.abs raises rather than guessing either way, and so does an
    entry of 2^52 or more in magnitude, whose distance to the integers a
    double cannot show (reduce's rule).
    """
    if lat1.n != lat2.n:
        raise DimensionMismatch(f"dimensions differ: {lat1.n} vs {lat2.n}")
    x = lat1._coordinates(lat2._real, tol)
    rounded = np.rint(x.real)
    dist = np.abs(x - rounded)  # complex modulus also catches stray imaginary parts
    if np.any(dist > GRAY_ZONE * tol.abs):
        return False, None
    if np.any(dist > tol.abs):
        raise AmbiguousIntegrality(
            f"coordinate-change entry at distance {dist.max():.3e} from an integer; "
            f"cannot certify either way at tol.abs {tol.abs:.1e}"
        )
    big = np.abs(rounded).max()
    if not big < 2.0**52:  # no fractional bit, and past 2^63 the int64 cast would wrap
        raise AmbiguousIntegrality(
            f"coordinate-change entry of magnitude {big:.3e} keeps no fractional bit (limit 2^52)"
        )
    witness = rounded.astype(np.int64)
    if not _inverse_certified(witness):
        pairs = [[(e, 0) for e in row] for row in witness.tolist()]  # W over Z[i]
        if gabs2(gdet(pairs)) != 1:
            return False, None
    return True, frozen(witness)


def _inverse_certified(w: np.ndarray) -> bool:
    """Whether V = rint(inv(W)) is an exact inverse of the square integer matrix W: a proof of |det W| = 1.

    When max|W| max|V| m < 2^53 (W is m x m), every product and partial sum
    of W V is an integer that float64 holds exactly, so W V == I holds over
    the integers and det W det V = 1.  False proves nothing either way.
    """
    wf = w.astype(np.float64)
    try:
        v = np.rint(np.linalg.inv(wf))
    except np.linalg.LinAlgError:  # exactly singular
        return False
    # Python floats: a NaN or infinite V fails the guard without a numpy warning
    guard = float(np.abs(wf).max()) * float(np.abs(v).max()) * len(wf)
    return guard < 2.0**53 and np.array_equal(wf @ v, np.eye(len(wf)))


def sigma_membership(b, tol: Tolerance = DEFAULT_TOL) -> GaussianUnimodular:
    """Certify a matrix as Gaussian-integer with exact determinant one.

    Rounds entries within tol.abs of Gaussian integers; distances in the
    ambiguous band (tol.abs, 10 tol.abs] raise AmbiguousIntegrality, larger
    ones NonIntegralEntry.  The determinant test runs in exact arithmetic.
    """
    bm = as_matrix(b, square=True)
    re = np.rint(bm.real)
    im = np.rint(bm.imag)
    dist = np.abs(bm - (re + 1j * im))
    if np.any(dist > GRAY_ZONE * tol.abs):
        i, j = np.unravel_index(int(np.argmax(dist)), dist.shape)
        raise NonIntegralEntry(
            f"entry ({i},{j}) = {bm[i, j]} is {dist[i, j]:.3e} from a Gaussian integer"
        )
    if np.any(dist > tol.abs):
        raise AmbiguousIntegrality(
            f"entry at distance {dist.max():.3e} from a Gaussian integer; "
            f"cannot certify at tol.abs {tol.abs:.1e}"
        )
    entries = tuple(
        tuple((int(re[i, j]), int(im[i, j])) for j in range(bm.shape[1]))
        for i in range(bm.shape[0])
    )
    return GaussianUnimodular(entries)


def standard_lattice(n: int) -> LatticeBasis:
    """The lattice of Gaussian-integer vectors: generators [I | iI]."""
    eye = np.eye(n)
    return _built(LatticeBasis, g=np.hstack([eye, 1j * eye]))


def gaussian_lattice(b: GaussianUnimodular) -> LatticeBasis:
    """The image of the standard lattice under a Gaussian unimodular matrix."""
    m = b.matrix
    return _full_rank(_built(LatticeBasis, g=np.hstack([m, 1j * m])), DEFAULT_TOL)


def permute_to_L1(
    lat: LatticeBasis, tol: Tolerance = DEFAULT_TOL
) -> tuple[LatticeBasis, tuple[int, ...]]:
    """Permute generators so the first n are linearly independent over C.

    Greedy column pivoting: at each step take the remaining generator with
    the largest component outside the span of those already chosen (ties
    break to the lowest index), then project it out of the rest.  The 2n
    generators span C^n over C because they span it over R, so n steps
    always succeed for a valid basis.

    The loop runs on G 2^-e, e putting G's largest real or imaginary part in
    [1, 2): exact short of underflow, so it chooses the columns G itself
    would, and no square under- or overflows.  Its dependence test is scale
    free.  After k < n steps the columns have been multiplied by a product M
    of orthogonal projectors, one onto the complement of each chosen
    direction; M is the identity on the complex (n - k)-dimensional space
    orthogonal to all of them, so its realification has Frobenius norm at
    least sqrt(2), and the realified generators R give ||M R||_F >=
    sigma_min(R) sqrt(2).  The 2n - k remaining columns then hold one of
    norm at least sigma_min(R) / sqrt(n), on the scaled G at least
    margin / sqrt(n) (its sigma_max is at least its largest part, 1).  The
    test fires at half that, margin / (2 sqrt(n)): rounding moves a column
    by a few n^2 eps, far below it for any margin from_generators accepts
    at a tol.rel above about n^2.5 eps.
    """
    g = lat.g
    n = g.shape[0]
    parts = g.copy().view(np.float64)  # C-contiguous: its real and imaginary parts
    work = _scaled(parts, -_exponent(float(np.abs(parts).max()))).view(np.complex128)
    floor = lat.margin / (2.0 * math.sqrt(n))
    chosen: list[int] = []
    for _ in range(n):
        # np.linalg.norm(work, axis=0)'s arithmetic, on all 2n columns; the chosen ones are masked
        norms = np.sqrt(np.add.reduce((work.conj() * work).real, axis=0))
        norms[chosen] = -1.0
        j = int(np.argmax(norms))
        if not norms[j] > floor:
            raise InternalCheckError("generators of a valid basis cannot all be dependent")
        chosen.append(j)
        q = work[:, j] / np.linalg.norm(work[:, j])
        work -= q[:, None] * (q.conj() @ work)  # np.outer(q, ...)'s multiply, in place
    perm = tuple(chosen + [k for k in range(2 * n) if k not in chosen])
    permuted = _built(LatticeBasis, g=g[:, perm])
    margin = permuted._block_margin
    if not margin > tol.rel:
        raise InternalCheckError(f"pivoted first block is singular (margin {margin:.3e})")
    return permuted, perm


def normalize_to_Lstarstar(
    lat: LatticeBasis, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, PeriodMatrix]:
    """Post-compose with the inverse of the first block, leaving [I | Z].

    Requires the first n generators to be C-independent (run permute_to_L1
    first); returns the composing map A and the period matrix Z.  The gate
    reads the block margin the basis carries, which a basis from
    permute_to_L1 has already taken.  Full real rank of the input guarantees
    Z has invertible imaginary part.
    """
    g = lat.g
    n = lat.n
    g1 = g[:, :n]
    margin = lat._block_margin
    if not margin > tol.rel:
        raise FirstBlockSingular(
            f"first n generators are not C-independent (margin {margin:.3e})"
        )
    # one LU of the first block, behind the gate just taken, gives A = G1^-1 and Z = G1^-1 G2 together
    x = gated_solve(g1, margin, fro(g1), np.hstack([np.eye(n), g[:, n:]]), tol)
    # x is finite (gated_solve refuses an LU that overflowed); only the Im Z gate can fail
    return frozen(x[:, :n].copy()), _built(PeriodMatrix, z=_imaginary_part_invertible(x[:, n:].copy()))


def to_split_form(pm: PeriodMatrix) -> SplitForm:
    """Reread a period matrix as the real-linear map x + Re(Z) y + i Im(Z) y."""
    from .realmaps import SplitForm  # the lattice subcommands never call this

    return _built(SplitForm, a=pm.z.real.copy(), b=pm.z.imag.copy())
