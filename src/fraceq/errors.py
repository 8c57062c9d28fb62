"""Exception types shared across the package."""


class FraceqError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(FraceqError, ValueError):
    """A distribution or model parameter violates its constraints."""


class PoleError(FraceqError, ValueError):
    """Gamma evaluated at a nonpositive integer."""


class DivergenceError(FraceqError, ArithmeticError):
    """An integral or moment diverges, or its quadrature failed to converge."""


class OrderViolationError(FraceqError, RuntimeError):
    """The survival bounded order required by an operation does not hold."""


class MissingDensityError(FraceqError, ValueError):
    """An operation needs an absolutely continuous density the model lacks."""
