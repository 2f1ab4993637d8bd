"""Every example in the package's docstrings runs and gives its output."""

import doctest
import importlib
import pkgutil

import pytest

import vincular

MODULES = [vincular] + [
    importlib.import_module(f"vincular.{info.name}")
    for info in pkgutil.iter_modules(vincular.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    assert doctest.testmod(module).failed == 0
