"""Every example in the package's docstrings runs and gives its output."""

import doctest
import importlib
import inspect
import pkgutil

import pytest

import vincular

MODULES = [vincular] + [
    importlib.import_module(f"vincular.{info.name}")
    for info in pkgutil.iter_modules(vincular.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    # (failed, attempted): every example in the source runs, so a docstring
    # that doctest cannot reach fails here rather than passing with none run
    examples = inspect.getsource(module).count(">>> ")
    assert tuple(doctest.testmod(module)) == (0, examples)
