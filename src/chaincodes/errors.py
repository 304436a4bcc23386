"""Exception types shared across the package."""


class ChainCodesError(Exception):
    """Base class for all library errors."""


# ring construction / element level

class RejectedModulus(ChainCodesError):
    """Galois ring modulus whose reduction mod p is reducible."""


class InvalidConvention(ChainCodesError):
    """Representative convention not available for this ring."""


class MixedRings(ChainCodesError):
    """Operands belong to different rings."""


class NotAUnit(ChainCodesError):
    """Inversion requested for a non-unit."""


class DigitNotInT(ChainCodesError):
    """A digit passed to compose() is not in the representative set."""


# matrix level

class NotSquare(ChainCodesError):
    """Square matrix required."""


class ZeroMatrix(ChainCodesError):
    """Standard forms are undefined for the all-zero matrix."""


class CrossCheckFailed(ChainCodesError):
    """Two independent computations of the same fact disagree."""


# codes

class InvalidParams(ChainCodesError):
    """Numeric parameters out of range for a bound or construction."""


# what reading a JSON descriptor with a missing key, or of the wrong JSON
# type or value, raises; the readers report it as InvalidParams
MALFORMED = (KeyError, TypeError, AttributeError, ValueError)


class BudgetExceeded(ChainCodesError):
    """An exhaustive enumeration would exceed the configured budget; the
    amounts are in `requested` and `allowed`."""

    def __init__(self, message, *, requested, allowed):
        super().__init__(message)
        self.requested = requested
        self.allowed = allowed


def check_budget(what, requested, allowed):
    """Raise BudgetExceeded if `requested` `what` exceed `allowed`."""
    if requested > allowed:
        raise BudgetExceeded(f"{requested} {what} exceed the budget {allowed}",
                             requested=requested, allowed=allowed)


class ZeroRow(ChainCodesError):
    """Operation undefined on matrices with zero rows."""


class NotReduced(ChainCodesError):
    """A reduced encoder is required."""


class NotDelayFree(ChainCodesError):
    """A delay-free encoder is required."""


class NuNotDividingK(ChainCodesError):
    """Formula only available when the nilpotency index divides k."""


class PreconditionViolated(ChainCodesError):
    """A hypothesis of the requested characterization fails."""


class UnequalRowDegrees(ChainCodesError):
    """Encoder reversal needs all row degrees equal."""


# constructions

class DependentRows(ChainCodesError):
    """Rows were required to be linearly independent over the ring."""


class BadCounts(ChainCodesError):
    """Layer row counts must be nondecreasing and within range."""


class SizeMismatch(ChainCodesError):
    """Index sets or matrix dimensions do not match."""


class NotSuperregular(ChainCodesError):
    """The supplied Toeplitz matrix is not superregular."""


class CodeLoadError(ChainCodesError):
    """A serialized code descriptor failed validation on load."""


class UsageError(ChainCodesError):
    """Malformed command line."""
