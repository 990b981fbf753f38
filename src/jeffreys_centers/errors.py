"""Exception types shared across the library."""

__all__ = ["DomainError", "NumericalError"]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed: bracket loss, non-convergence, underflow."""
