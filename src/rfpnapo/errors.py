"""Exception taxonomy shared across the package.

Each class carries the exit code the CLI returns for it: configuration 2,
missing input 3, shape/consistency 4 (DataError included), parse 5, and 1
for the base class and NumericError.
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
    """Dimension mismatch or structural inconsistency between artifacts."""

    exit_code = 4


class DataError(ShapeError):
    """Content-level inconsistency inside an otherwise well-formed artifact."""


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
