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
    """Enumeration at the requested height exceeds the configured budget."""


class RadiusBudgetExceeded(CxlatError):
    """Short-vector enumeration at the requested radius exceeds the configured budget."""


class NumericOverflow(CxlatError):
    """Finite input overflowed: a result is not finite, or a torus coordinate of 2^52 or more keeps no fractional bit."""


class InternalCheckError(CxlatError):
    """A redundant self-check failed; indicates a bug, not bad input."""
