"""Every source and test file parses as the oldest Python the project supports.

``requires-python`` in pyproject.toml names that version.  Parsing with
``ast.parse(..., feature_version=...)`` rejects grammar newer than it, so
such syntax fails here on any newer interpreter too.  It checks syntax
only: a standard-library name or argument added after that version
passes.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = tuple(int(part) for part in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"',
    (ROOT / "pyproject.toml").read_text()).groups())
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def test_oldest_version_is_read():
    assert OLDEST == (3, 10)
    assert len(FILES) > 10


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_oldest_supported_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST)
