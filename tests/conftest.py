"""Fixtures shared by the test modules."""

import importlib
import pkgutil
import sys

import numpy as np
import pytest

import cxlattices
from cxlattices import kernel


def count_calls(monkeypatch, names, record):
    """Count calls of the named kernel functions, wherever the package calls them.

    Every cxlattices module is imported first, since the package and the CLI
    load modules lazily; then each that binds one of the names (kernel itself,
    and each module that imported it) gets a counting version, found by
    looking.  Each call appends record(name, args) to the returned list.
    """
    for info in pkgutil.iter_modules(cxlattices.__path__):
        importlib.import_module(f"cxlattices.{info.name}")
    calls = []
    for name in names:
        original = getattr(kernel, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(record(_name, args))
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "cxlattices" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def singular_value_calls(monkeypatch):
    """Count the SVDs a test runs, by the shape of A: every call of the function that
    runs LAPACK's SVD for singular values (behind singular_values and the invertibility gate)."""
    return count_calls(monkeypatch, ("_singular_values",), lambda name, args: np.shape(args[0]))


@pytest.fixture
def solve_calls(monkeypatch):
    """Count the LU solves a test runs (kernel.gated_solve, behind solve and every basis), by the shape of B."""
    return count_calls(monkeypatch, ("gated_solve",), lambda name, args: np.shape(args[3]))


@pytest.fixture
def validation_calls(monkeypatch):
    """Count the array validations a test runs: every call of as_matrix, as_vector and as_columns, by name."""
    return count_calls(monkeypatch, ("as_matrix", "as_vector", "as_columns"), lambda name, args: name)
