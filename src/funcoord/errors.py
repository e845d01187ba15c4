"""Exception hierarchy for funcoord.

All library errors derive from :class:`FuncoordError` so callers can catch
one base class. The subclasses mirror the distinct failure modes of the
numerical operations (bad domains, unsupported derivative orders, kernel
evaluation failures, singular transforms, ...).
"""


class FuncoordError(Exception):
    """Base class for all funcoord errors."""


class DomainError(FuncoordError, ValueError):
    """Invalid argument domain: bad grid parameters, length mismatches,
    points outside the grid interval, missing derivative data."""


class UnsupportedOrderError(FuncoordError, ValueError):
    """A derivative order beyond what the discretization or the kernel's
    analytic derivatives support."""


class KernelEvaluationError(FuncoordError, ArithmeticError):
    """A kernel produced a non-finite value; carries the offending point."""

    def __init__(self, kernel_id, x, y, message=None):
        self.kernel_id = kernel_id
        self.x = float(x)
        self.y = float(y)
        super().__init__(
            message
            or f"kernel {kernel_id!r} is not finite at (x, y) = ({self.x!r}, {self.y!r})"
        )


class SingularTransformError(FuncoordError, ArithmeticError):
    """Regularized inversion found no usable singular values."""


class RiccatiBlowupError(FuncoordError, ArithmeticError):
    """The Riccati slope integration blew up; carries the blow-up location."""

    def __init__(self, x, y, value):
        self.x = x
        self.y = y
        self.value = value
        super().__init__(
            f"Riccati slope exceeded 1e6 at x = {x!r} for source node y = {y!r} "
            f"(|g| = {abs(value):.3e})"
        )


class MetricDegeneracyError(FuncoordError, ArithmeticError):
    """A transformed metric failed to be symmetric positive (semi-)definite."""


class NotASolutionError(FuncoordError, ValueError):
    """The supplied generalized function does not solve the stated equation."""


class PreconditionError(FuncoordError, ValueError):
    """A verification suite was invoked with inputs outside its contract."""
