"""No package module imports numpy itself; all go through ``cflimits._numpy``.

``cflimits._numpy`` hands out numpy as a lazy module, so ``import cflimits``
and the numpy-free CLI subcommands never pay numpy's import time.  A single
stray ``import numpy`` anywhere in the package would load it eagerly again.
"""

import ast
import importlib.util
import pathlib
import sys

import pytest

import cflimits
from cflimits import _numpy


def numpy_imports(source: str) -> list[int]:
    """Line numbers of the absolute imports of numpy or its submodules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            lines.append(node.lineno)
    return lines


def test_finder_sees_each_form():
    source = '''
import numpy as np
import os, numpy.linalg
from numpy.linalg import _umath_linalg
from ._numpy import np
from numpyish import x

def f():
    import numpy
'''
    assert numpy_imports(source) == [2, 3, 4, 9]


def test_no_module_imports_numpy():
    package = pathlib.Path(cflimits.__file__).parent
    found = {path.name: numpy_imports(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_loaded_numpy_is_returned_as_is():
    assert _numpy._lazy_numpy() is sys.modules["numpy"] is _numpy.np


def test_missing_numpy_fails_at_import(monkeypatch):
    monkeypatch.delitem(sys.modules, "numpy")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ModuleNotFoundError) as exc:
        _numpy._lazy_numpy()
    assert exc.value.name == "numpy"
    assert "numpy" not in sys.modules
