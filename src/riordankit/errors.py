"""Exception types shared across the package."""


class RiordanKitError(Exception):
    """Base class for all library-specific errors."""


class ZeroConstantDivisor(RiordanKitError, ZeroDivisionError):
    """Division by a series whose constant term is zero."""


class NonUnitConstant(RiordanKitError, ValueError):
    """Square root requires a series with constant term exactly 1."""


class NonzeroInnerConstant(RiordanKitError, ValueError):
    """Composition requires the inner series to have zero constant term."""


class NotRevertible(RiordanKitError, ValueError):
    """Reversion requires f(0) = 0 and f'(0) != 0."""


class IndexOutOfTriangle(RiordanKitError, IndexError):
    """Triangle entry requested outside 0 <= k <= n."""


class UnsupportedParameter(RiordanKitError, ValueError):
    """Parameter outside the supported range (typically r < 1)."""


class NonIntegerResult(RiordanKitError, ArithmeticError):
    """A formula that must produce an integer produced a proper fraction."""


class InsufficientOrder(RiordanKitError, ValueError):
    """Series truncation order too small for the requested expansion."""


class InsufficientTerms(RiordanKitError, ValueError):
    """Not enough sequence terms for the requested matrix or transform."""


class SingularLeadingMinor(RiordanKitError, ArithmeticError):
    """An LDL^T step hit a vanishing leading principal minor."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(
            message or f"leading principal minor of order {index + 1} vanishes"
        )

    def __reduce__(self):
        # Exception pickles as cls(*args), and args holds only the message.
        return type(self), (self.index, str(self)), self.__dict__


class SingularSystem(RiordanKitError, ArithmeticError):
    """A linear system built from Hankel rows is singular."""

    def __init__(self, order, message=None, partial=None):
        self.order = order
        self.partial = partial
        super().__init__(message or f"linear system of order {order} is singular")

    def __reduce__(self):
        return type(self), (self.order, str(self), self.partial), self.__dict__


class SingularDiagonal(RiordanKitError, ArithmeticError):
    """A triangular matrix has a zero diagonal entry where it must not."""


class IntegralityViolation(RiordanKitError, ArithmeticError):
    """An entry that is provably integral came out fractional."""


class CrossCheckFailed(RiordanKitError, RuntimeError):
    """Two independent routes to the same quantity disagree: a library bug."""
