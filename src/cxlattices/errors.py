"""Exception taxonomy shared across the package.

Domain failures raise one of these; the CLI maps the class name verbatim
into its structured error payload, so names are part of the interface.
"""


class CxlatError(Exception):
    """Base class for every domain error raised by this package."""


class DimensionMismatch(CxlatError):
    """Operand shapes are incompatible."""


class SingularMatrix(CxlatError):
    """A matrix required to be invertible is singular at the working tolerance."""


class NotSelfAdjoint(CxlatError):
    """A matrix required to be self-adjoint is not, beyond tolerance."""


class NotPositiveDefinite(CxlatError):
    """A self-adjoint matrix fails the positivity rule: sqrt(lambda_min / lambda_max) <= tol.rel."""


class NotInSplitClass(CxlatError):
    """Conversion target requires the identity/zero block structure and the map lacks it."""


class SingularM(CxlatError):
    """The complex-linear part of a conjugate-pair map is singular."""


class MajorizationFails(CxlatError):
    """A strict-domination precondition does not hold at the working margin."""


class NotInSL(CxlatError):
    """A matrix required to have determinant one does not."""


class RankDeficient(CxlatError):
    """Generators fail to span at the working tolerance."""


class FirstBlockSingular(CxlatError):
    """The leading n-column block of a generator matrix is not invertible."""


class NonIntegralEntry(CxlatError):
    """An entry expected to be a (Gaussian) integer is not close to one."""


class AmbiguousIntegrality(CxlatError):
    """An entry sits in the gray zone between integral and clearly non-integral."""


class DeterminantNotOne(CxlatError):
    """An exact integer determinant differs from one."""


class LatticeMismatch(CxlatError):
    """Two torus points do not live on the same lattice."""


class DimensionTooLarge(CxlatError):
    """The operation is only supported up to a fixed small dimension."""


class HeightTooLarge(CxlatError):
    """No complete candidate set fits the requested height and budget.

    At n = 2 the height box (2H+1)^6 exceeds the budget; at n >= 3 no
    complete set is enumerated, at any budget.
    """


class RadiusBudgetExceeded(CxlatError):
    """Short-vector enumeration at the requested radius exceeds the configured budget."""


class NumericOverflow(CxlatError):
    """Finite input overflowed: a result is not finite, or a torus coordinate of 2^52 or more keeps no fractional bit.

    Non-finite results include a solve whose LU overflowed and a torus
    representative G @ coords that overflowed although its coordinates lie
    in [0, 1); the torus group law adds coordinates, never representatives,
    so that is the only overflow a sum of two points can meet.  A Gram form
    A* A whose diagonal (a squared column length of A) underflowed below the
    smallest normal double is refused the same way: its eigenvalues are lost
    in rounding or are zero.
    """


class InternalCheckError(CxlatError):
    """A redundant self-check failed; indicates a bug, not bad input."""
