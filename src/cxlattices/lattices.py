"""Lattices in C^n presented by generator matrices.

A lattice here is the image of Z^2n under an invertible real-linear map
into C^n, stored as the complex n x 2n matrix G whose columns are the
images of the standard basis vectors.  Realifying G (stacking real over
imaginary parts) gives a square 2n x 2n matrix; its invertibility is the
full-rank invariant, and its determinant modulus the covolume.

Two generator matrices present the same lattice exactly when the change
of coordinates between their realifications is an integer matrix of
determinant +-1; that integer witness is computed by rounding and then
checked in exact arithmetic, so a certificate is never the product of
floating-point luck.  The normalization pipeline permutes generators
until the first n are C-linearly independent, then post-composes with
the inverse of that block, leaving a basis of the form [I | Z] whose
period matrix Z has invertible imaginary part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguousIntegrality,
    DeterminantNotOne,
    DimensionMismatch,
    FirstBlockSingular,
    InternalCheckError,
    NonIntegralEntry,
    RankDeficient,
)
from .gaussian import gadjugate, gdet, gidentity, gmat, gmatmul, int_det
from .kernel import (
    DEFAULT_TOL,
    GRAY_ZONE,
    Tolerance,
    as_matrix,
    det,
    frozen,
    invertibility_margin,
    real_columns,
    singular_values,
    solve,
)
from .realmaps import SplitForm


def _as_generators(g) -> np.ndarray:
    gm = as_matrix(g)
    if gm.shape[1] != 2 * gm.shape[0]:
        raise DimensionMismatch(f"generator matrix must be n x 2n, got shape {gm.shape}")
    return gm


@dataclass(frozen=True, eq=False)
class LatticeBasis:
    """Generator matrix of a full lattice; build through from_generators."""

    g: np.ndarray

    def __post_init__(self) -> None:
        gm = _as_generators(self.g)
        object.__setattr__(self, "g", gm)
        object.__setattr__(self, "_real", frozen(real_columns(gm)))

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @property
    def realified(self) -> np.ndarray:
        return self._real


@dataclass(frozen=True)
class GaussianUnimodular:
    """Matrix over the Gaussian integers with determinant exactly one.

    Entries are pairs of Python ints, never floats, so the determinant
    condition is checked exactly; the integrality of the inverse (the
    adjugate, since det = 1) is verified on construction.
    """

    entries: tuple

    def __post_init__(self) -> None:
        b = gmat(self.entries)
        if len(b) != len(b[0]):
            raise DimensionMismatch("expected a square matrix")
        if gdet(b) != (1, 0):
            raise DeterminantNotOne(f"exact determinant is {gdet(b)}, not 1")
        if gmatmul(b, gadjugate(b)) != gidentity(len(b)):
            raise InternalCheckError("adjugate of a determinant-one matrix must be its inverse")
        object.__setattr__(self, "entries", b)

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[complex(*e) for e in row] for row in self.entries])

    def inverse_matrix(self) -> np.ndarray:
        """Exact inverse via the adjugate, returned as floats."""
        adj = gadjugate(self.entries)
        return np.array([[complex(*e) for e in row] for row in adj])


@dataclass(frozen=True, eq=False)
class PeriodMatrix:
    """Complex square matrix with invertible imaginary part."""

    z: np.ndarray

    def __post_init__(self) -> None:
        zm = as_matrix(self.z, square=True)
        ok, margin = invertibility_margin(zm.imag, DEFAULT_TOL)
        if not ok:
            raise RankDeficient(f"imaginary part is singular (margin {margin:.3e})")
        object.__setattr__(self, "z", zm)

    @property
    def n(self) -> int:
        return self.z.shape[0]


def from_generators(g, tol: Tolerance = DEFAULT_TOL) -> LatticeBasis:
    """Validate a generator matrix: the realification must be invertible."""
    gm = _as_generators(g)
    ok, margin = invertibility_margin(real_columns(gm), tol)
    if not ok:
        raise RankDeficient(f"realified generators are rank deficient (margin {margin:.3e})")
    return LatticeBasis(gm)


def rank_margin(g, tol: Tolerance = DEFAULT_TOL) -> float:
    """Smallest singular value of the realified generator matrix.

    Accepts up to 2n columns; a positive margin certifies trivial kernel,
    and perturbations smaller than the margin cannot destroy it.
    """
    gm = as_matrix(g)
    n, m = gm.shape
    if m > 2 * n:
        raise DimensionMismatch(f"at most {2 * n} columns can be independent over R, got {m}")
    s = singular_values(real_columns(gm), tol)
    return float(s[-1])


def covolume(lat: LatticeBasis) -> float:
    """Volume of a fundamental parallelepiped: |det| of the realification."""
    return float(abs(det(lat.realified)))


def same_lattice(
    lat1: LatticeBasis, lat2: LatticeBasis, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, np.ndarray | None]:
    """Whether two bases generate the same lattice; on success also the witness.

    The coordinate change X = R1^-1 R2 must be integral with |det| = 1.
    Entries within tol.abs of integers are rounded and the determinant is
    then computed exactly; an entry landing in the ambiguous band just
    outside tol.abs raises rather than guessing either way.
    """
    if lat1.n != lat2.n:
        raise DimensionMismatch(f"dimensions differ: {lat1.n} vs {lat2.n}")
    x = solve(lat1.realified, lat2.realified, tol)
    rounded = np.rint(x.real)
    dist = np.abs(x - rounded)  # complex modulus also catches stray imaginary parts
    if np.any(dist > GRAY_ZONE * tol.abs):
        return False, None
    if np.any(dist > tol.abs):
        raise AmbiguousIntegrality(
            f"coordinate-change entry at distance {dist.max():.3e} from an integer; "
            f"cannot certify either way at tol.abs {tol.abs:.1e}"
        )
    witness = rounded.astype(np.int64)
    if abs(int_det(witness.tolist())) != 1:
        return False, None
    return True, frozen(witness)


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
    return LatticeBasis(np.hstack([eye, 1j * eye]))


def gaussian_lattice(b: GaussianUnimodular) -> LatticeBasis:
    """The image of the standard lattice under a Gaussian unimodular matrix."""
    m = b.matrix
    return from_generators(np.hstack([m, 1j * m]))


def permute_to_L1(
    lat: LatticeBasis, tol: Tolerance = DEFAULT_TOL
) -> tuple[LatticeBasis, tuple[int, ...]]:
    """Permute generators so the first n are linearly independent over C.

    Greedy column pivoting: at each step take the remaining generator with
    the largest component outside the span of those already chosen (ties
    break to the lowest index), then project it out of the rest.  The 2n
    generators span C^n over C because they span it over R, so n steps
    always succeed for a valid basis.
    """
    g = lat.g
    n = g.shape[0]
    work = g.copy()
    alive = list(range(2 * n))
    chosen: list[int] = []
    for _ in range(n):
        norms = np.linalg.norm(work[:, alive], axis=0)
        best = int(np.argmax(norms))
        if norms[best] <= tol.abs:
            raise InternalCheckError("generators of a valid basis cannot all be dependent")
        j = alive.pop(best)
        chosen.append(j)
        q = work[:, j] / np.linalg.norm(work[:, j])
        work = work - np.outer(q, q.conj() @ work)
    perm = tuple(chosen + sorted(alive))
    ok, margin = invertibility_margin(g[:, perm[:n]], tol)
    if not ok:
        raise InternalCheckError(f"pivoted first block is singular (margin {margin:.3e})")
    # a column permutation of a validated basis: the realified rank is unchanged
    return LatticeBasis(g[:, perm]), perm


def normalize_to_Lstarstar(
    lat: LatticeBasis, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, PeriodMatrix]:
    """Post-compose with the inverse of the first block, leaving [I | Z].

    Requires the first n generators to be C-independent (run permute_to_L1
    first); returns the composing map A and the period matrix Z.  Full real
    rank of the input guarantees Z has invertible imaginary part.
    """
    g = lat.g
    n = lat.n
    g1 = g[:, :n]
    ok, margin = invertibility_margin(g1, tol)
    if not ok:
        raise FirstBlockSingular(
            f"first n generators are not C-independent (margin {margin:.3e})"
        )
    # one LU of the first block gives A = G1^-1 and Z = G1^-1 G2 together
    x = solve(g1, np.hstack([np.eye(n), g[:, n:]]), tol)
    return frozen(x[:, :n].copy()), PeriodMatrix(x[:, n:])


def to_split_form(pm: PeriodMatrix) -> SplitForm:
    """Reread a period matrix as the real-linear map x + Re(Z) y + i Im(Z) y."""
    return SplitForm(pm.z.real, pm.z.imag)
