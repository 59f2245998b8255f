"""The package's public names, which load their home modules on first use."""

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
