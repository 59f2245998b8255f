"""Fixtures shared by the test modules."""

import sys

import numpy as np
import pytest

from cxlattices import kernel


@pytest.fixture
def singular_value_calls(monkeypatch):
    """Count the SVDs a test runs: every call of kernel.singular_values, by the shape of A.

    Every loaded cxlattices module that binds the name (kernel itself, and each
    module that imported it) gets the counting version, found by looking.
    """
    calls = []
    svd = kernel.singular_values

    def counted(a, tol=kernel.DEFAULT_TOL):
        calls.append(np.shape(a))
        return svd(a, tol)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cxlattices" and getattr(module, "singular_values", None) is svd:
            monkeypatch.setattr(module, "singular_values", counted)
    return calls
