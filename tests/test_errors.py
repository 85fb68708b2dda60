import ast
import pathlib

import pytest

import corecov
from corecov import errors

SRC = pathlib.Path(corecov.__file__).parent


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_plain_value_error_is_raised():
    # argument checks raise ConfigError, so the CLI can tell them by type
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and node.exc is not None
        and _raised_name(node) == "ValueError"
    ]
    assert found == []


@pytest.mark.parametrize("numerical", errors.NUMERICAL_ERRORS)
def test_config_and_numerical_errors_are_unrelated(numerical):
    # disjoint families, so the order of the CLI's handlers cannot matter
    for config in (errors.ConfigError, errors.CapacityError, OSError):
        assert not issubclass(config, numerical)
        assert not issubclass(numerical, config)


def test_config_error_is_exported_value_error():
    assert corecov.ConfigError is errors.ConfigError
    assert issubclass(errors.ConfigError, ValueError)
    assert issubclass(errors.CapacityError, errors.ConfigError)
