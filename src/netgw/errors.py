"""Exception types shared across the package."""


class NetgwError(Exception):
    """Base class for all package errors."""


class NonSquareWeightsError(NetgwError, ValueError):
    """Weight matrix is not square."""


class NonPositiveMassError(NetgwError, ValueError):
    """Measure has a zero or negative entry."""


class MeasureNotNormalizedError(NetgwError, ValueError):
    """Measure does not sum to one within tolerance."""


class MarginalMismatchError(NetgwError, ValueError):
    """Coupling marginals do not match the prescribed measures."""


class IndexOutOfRangeError(NetgwError, IndexError):
    """Node index outside the network."""


class InfeasibleError(NetgwError, ValueError):
    """Transport problem has no feasible plan (marginal sums differ)."""


class KernelUnderflowError(NetgwError, ArithmeticError):
    """exp(-lambda * cost) has entries below the smallest positive normal."""


class MaxItersExceededError(NetgwError, RuntimeError):
    """Iteration limit reached before convergence.

    Carries the last iterate in ``partial`` so callers can inspect or
    reuse it.  For the Sinkhorn solvers that is the iterate rounded onto
    (mu, nu), or None when it is non-finite or all zero.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class NotConvergedError(NetgwError, RuntimeError):
    """A solver ended without converging, so its value is not a result."""


class RangeTooWideError(NetgwError, ArithmeticError):
    """No exponent shift keeps every kernel entry representable."""


class DomainError(NetgwError, ValueError):
    """Argument outside the mathematical domain of the function."""


class KindMismatchError(NetgwError, ValueError):
    """Size curves of incompatible kinds."""


class UnsupportedDimensionError(NetgwError, ValueError):
    """Sphere dimension outside the supported range."""


class InstanceTooLargeError(NetgwError, ValueError):
    """Problem too large for an exhaustive search."""


class EmptyBlockError(NetgwError, ValueError):
    """Block model with an empty block."""


class UnknownPresetError(NetgwError, KeyError):
    """No experiment preset under that name."""


class ZeroNetworkError(NetgwError, ValueError):
    """All weights are zero; normalization undefined."""


class NonSquareError(NetgwError, ValueError):
    """Ingested matrix is not square."""


class ParseError(NetgwError, ValueError):
    """Malformed input file.

    ``row`` and ``col`` locate the offending cell when known (1-based).
    """

    def __init__(self, message, row=None, col=None):
        super().__init__(message)
        self.row = row
        self.col = col


class EncodeError(NetgwError, ValueError):
    """Value that the output format cannot represent."""


class IoError(NetgwError, OSError):
    """File could not be read or written."""
