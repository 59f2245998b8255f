"""The package's public names, which load their home modules on first use, and where its
scale rule lives."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cxlattices


def test_every_public_name_is_the_object_its_home_module_defines():
    for name in cxlattices.__all__:
        home = importlib.import_module(f"cxlattices.{cxlattices._HOME[name]}")
        assert getattr(cxlattices, name) is getattr(home, name), name
    assert set(dir(cxlattices)) >= set(cxlattices.__all__)
    assert len(set(cxlattices.__all__)) == len(cxlattices.__all__)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from cxlattices import *", namespace)
    for name in cxlattices.__all__:
        assert namespace[name] is getattr(cxlattices, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cxlattices.no_such_name
    assert not hasattr(cxlattices, "as_matrix")  # kernel's, but not public
    with pytest.raises(ImportError):
        exec("from cxlattices import no_such_name", {})


_POLAR_AFTER_EQUIVALENCE = """
import json
import cxlattices.equivalence
import cxlattices
print(json.dumps([callable(cxlattices.polar), cxlattices.polar.__module__]))
"""


def test_polar_is_the_function_after_its_module_was_imported_first():
    # importing cxlattices.equivalence first imports the submodule cxlattices.polar
    src = str(pathlib.Path(cxlattices.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _POLAR_AFTER_EQUIVALENCE],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True,
    )
    assert json.loads(out.stdout) == [True, "cxlattices.polar"]


def _dotted(node) -> str:
    """'np.linalg.det' for the attribute chain np.linalg.det, '' for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def test_the_scale_rule_is_read_only_in_the_kernel():
    # the power-of-two exponent and the determinant have one home, kernel._exponent and
    # kernel._det / _unit_det; a module that calls math.frexp or numpy's det itself, or
    # imports the unguarded kernel._det, has copied the rule out again
    src = pathlib.Path(cxlattices.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy.linalg", "kernel"):
                names = {alias.name for alias in node.names} & {"frexp", "det", "_det"}
                found += [(path.name, f"{node.module}.{name}") for name in names]
            elif isinstance(node, ast.Call) and _dotted(node.func) in (
                "math.frexp", "np.linalg.det", "numpy.linalg.det", "linalg.det",
            ):
                found.append((path.name, _dotted(node.func)))
    assert {name for name, _ in found} == {"kernel.py"}, found
    assert sorted(call for _, call in found) == ["math.frexp", "np.linalg.det"]


# ROADMAP item 13's census of the self-checks: the raise InternalCheckError sites of each
# module, 20 in all (polar has none).  A check added or removed changes it, and says so here
INTERNAL_CHECKS = {
    "dim1.py": 8, "equivalence.py": 3, "gaussian.py": 1, "kernel.py": 2,
    "lattices.py": 3, "realmaps.py": 1, "torus.py": 2,
}


def test_the_internal_self_checks_are_the_census():
    src = pathlib.Path(cxlattices.__file__).resolve().parent
    counts = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and _dotted(node.exc.func) == "InternalCheckError":
                counts[path.name] = counts.get(path.name, 0) + 1
    assert counts == INTERNAL_CHECKS


# the closed forms at n <= 2: the adjugate, inverse, product, Frobenius norm, unitarity test,
# the sigma / det / Gram form and its pieces
CLOSED_FORMS = {"_adjugate", "_inverse", "_product", "_fro", "_unitarity", "_small_form",
                "_gram_entries", "_top", "_gram_fro", "_scaled_rows"}


def test_the_closed_forms_at_n_le_2_are_defined_only_in_the_kernel():
    # like the scale rule, the n <= 2 closed forms have one home, kernel; a module that
    # defines one of these names has copied a closed form out again
    src = pathlib.Path(cxlattices.__file__).resolve().parent
    found = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in CLOSED_FORMS:
                found.setdefault(node.name, []).append(path.name)
    assert found == {name: ["kernel.py"] for name in CLOSED_FORMS}
