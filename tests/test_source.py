"""The package's sources are valid Python for the oldest version pyproject.toml allows."""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted((REPO / "src" / "cliffcheck").rglob("*.py"))


def test_pyproject_requires_python_3_10():
    assert re.search(r'^requires-python = ">=3\.10"$', (REPO / "pyproject.toml").read_text(), re.M)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(REPO).as_posix())
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
