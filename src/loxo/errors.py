"""Exception types shared across the library.

Every failure the library reports deliberately derives from LoxoError so
callers can catch one base class.  Input-file problems share the branch
GroupFileError, so that a caller can tell them from the search's errors.
The command line exits EXIT_INCONCLUSIVE when the ball or a kernel fails
on parsed input or a trace is ambiguous (AmbiguousClass), and
EXIT_INPUT_ERROR on any other LoxoError, a group-file error and a budget
overrun included.
"""

# exit codes of the command line
EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_INCONCLUSIVE = 3


class LoxoError(Exception):
    """Base class for all library errors."""


class NearSingular(LoxoError):
    """Matrix determinant too close to zero to normalize."""


class AmbiguousClass(LoxoError):
    """Trace sits inside a tolerance band where two classes both qualify."""


class IdentityInput(LoxoError):
    """Operation undefined for the identity isometry."""


class UndefinedLength(LoxoError):
    """Complex length undefined for identity or parabolic isometries."""


class DegeneratePoints(LoxoError):
    """Boundary points coincide within tolerance, no unique circle."""


class IdenticalLines(LoxoError):
    """The two geodesic lines agree as unordered endpoint pairs."""


class SharedEndpoint(LoxoError):
    """Geodesic lines share an ideal endpoint, no common perpendicular."""


class InvalidChoice(LoxoError):
    """Free choice passed to a decomposition violates its case constraints."""


class SharedFixedPoint(LoxoError):
    """Two isometries share a fixed point on the boundary sphere."""


class NoValidSharedAxis(LoxoError):
    """Shared factorization failed to produce a verified common axis."""


class ScrewInput(LoxoError):
    """A screw motion was passed where a non-screw motion is required."""


class PlaneVerificationFailed(LoxoError):
    """A candidate invariant plane failed the preservation check."""


class NotLoxodromic(LoxoError):
    """Word does not represent a loxodromic isometry."""


class BudgetExceeded(LoxoError):
    """Enumeration grew past the configured element cap."""


class OutOfRange(LoxoError):
    """Scalar argument outside the documented domain."""


class GroupFileError(LoxoError):
    """Base class for group input file problems."""


class ParseError(GroupFileError):
    """Malformed group file."""


class SingularGenerator(GroupFileError):
    """Generator matrix is singular within tolerance."""


class DuplicateLabel(GroupFileError):
    """Two generators carry the same label."""


class IdentityGenerator(GroupFileError):
    """Generator normalizes to the identity."""
