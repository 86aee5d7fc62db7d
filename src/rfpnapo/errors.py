"""Exception taxonomy shared across the package.

Each class carries the exit code the CLI returns for it, and each subclass
has its own: numeric 1, configuration 2, missing input 3, shape 4, parse 5.
The base class carries 1 as well.
"""
from __future__ import annotations


class RfpnapoError(Exception):
    """Base class for all package-level failures."""

    exit_code = 1


class ConfigurationError(RfpnapoError):
    """Bad or missing configuration value, unknown key, unusable setting."""

    exit_code = 2


class MissingInputError(RfpnapoError):
    """A required input file does not exist."""

    exit_code = 3


class ShapeError(RfpnapoError):
    """A shape, size or value that does not fit: between artifacts or inside one."""

    exit_code = 4


class ParseError(RfpnapoError):
    """Malformed file content. Carries a 1-based line number when known."""

    exit_code = 5

    def __init__(self, message: str, line: int | None = None):
        self.reason = message
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericError(RfpnapoError):
    """Non-finite value produced during training or sampling."""
