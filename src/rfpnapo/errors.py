"""Exception taxonomy shared across the package.

Each class maps to one CLI exit code (see cli.main): configuration 2,
missing input 3, shape/consistency 4, parse 5. Anything else exits 1.
"""
from __future__ import annotations


class RfpnapoError(Exception):
    """Base class for all package-level failures."""


class ConfigurationError(RfpnapoError):
    """Bad or missing configuration value, unknown key, unusable setting."""


class MissingInputError(RfpnapoError):
    """A required input file does not exist."""


class ShapeError(RfpnapoError):
    """Dimension mismatch or structural inconsistency between artifacts."""


class DataError(ShapeError):
    """Content-level inconsistency inside an otherwise well-formed artifact."""


class ParseError(RfpnapoError):
    """Malformed file content. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.reason = message
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NumericError(RfpnapoError):
    """Non-finite value produced during training or sampling."""
