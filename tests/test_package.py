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
    # kernel._det / _unit_det; a module that calls math.frexp or numpy's det itself has
    # copied the rule out again
    src = pathlib.Path(cxlattices.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in ("math", "numpy.linalg"):
                names = {alias.name for alias in node.names} & {"frexp", "det"}
                found += [(path.name, f"{node.module}.{name}") for name in names]
            elif isinstance(node, ast.Call) and _dotted(node.func) in (
                "math.frexp", "np.linalg.det", "numpy.linalg.det", "linalg.det",
            ):
                found.append((path.name, _dotted(node.func)))
    assert {name for name, _ in found} == {"kernel.py"}, found
    assert sorted(call for _, call in found) == ["math.frexp", "np.linalg.det"]
