"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "VolboundError",
    "DomainError",
    "ConfigurationError",
    "ConfigParseError",
    "SearchError",
    "DivergenceError",
]


class VolboundError(Exception):
    """Base class for all package errors."""


class DomainError(VolboundError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConfigurationError(VolboundError, ValueError):
    """A combination of options is invalid (e.g. a route the model's law lacks)."""


class ConfigParseError(ConfigurationError):
    """A config document failed to parse or validate.

    Carries the offending key path and, when known, the 1-based line number.
    """

    def __init__(self, message: str, key: str | None = None, line: int | None = None):
        self.key = key
        self.line = line
        loc = ""
        if key is not None:
            loc = f" [key: {key}]"
        if line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)


class SearchError(VolboundError, ArithmeticError):
    """An iterative search failed to bracket or converge."""


class DivergenceError(VolboundError, ArithmeticError):
    """A sampled quantity is non-finite or unstable under refinement."""
