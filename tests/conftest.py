"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from cxlattices import equivalence, kernel, lattices


@pytest.fixture
def singular_value_calls(monkeypatch):
    """Count the SVDs a test runs: every call of kernel.singular_values, by the shape of A.

    The kernel's own margin, solve and operator norm look the name up in
    kernel; lattices and equivalence imported it, so it is replaced there too.
    """
    calls = []
    svd = kernel.singular_values

    def counted(a, tol=kernel.DEFAULT_TOL):
        calls.append(np.shape(a))
        return svd(a, tol)

    for module in (kernel, lattices, equivalence):
        monkeypatch.setattr(module, "singular_values", counted)
    return calls
