"""Exception types shared across the package."""


class FraceqError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(FraceqError, ValueError):
    """An input violates its constraints: a parameter out of range, a Gamma
    pole, a pair that fails the survival bounded order, or a law without
    the density an operation needs."""


class DivergenceError(FraceqError, ArithmeticError):
    """An integral or moment diverges, or its quadrature failed to converge."""
