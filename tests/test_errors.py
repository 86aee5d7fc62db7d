"""The error taxonomy: one class per CLI exit code."""
from __future__ import annotations

import inspect

from rfpnapo import errors


def test_each_exit_code_has_one_error_class():
    subclasses = {
        name: cls.exit_code
        for name, cls in vars(errors).items()
        if inspect.isclass(cls) and issubclass(cls, errors.RfpnapoError) and cls is not errors.RfpnapoError
    }
    assert subclasses == {
        "NumericError": 1,
        "ConfigurationError": 2,
        "MissingInputError": 3,
        "ShapeError": 4,
        "ParseError": 5,
    }
