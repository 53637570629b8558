"""The package's sources are valid Python for the oldest version pyproject.toml allows and
import no other module's private names, the README's Python API names and the package's
``__all__`` names exist, and a fresh ``verify`` does not import ``dataclasses``."""

import ast
import functools
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cliffcheck

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted((REPO / "src" / "cliffcheck").rglob("*.py"))


def test_pyproject_requires_python_3_10():
    assert re.search(r'^requires-python = ">=3\.10"$', (REPO / "pyproject.toml").read_text(), re.M)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(REPO).as_posix())
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(REPO).as_posix())
def test_module_imports_no_private_name_of_another_module(path):
    # a name with a leading underscore is its module's own; what another
    # module needs of it gets a public name there (a dunder, as __version__, is public)
    private = [f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def test_readme_python_api_names_resolve():
    # each dotted name the README documents is an attribute path from the
    # package, and one it writes as a call, `name(...)`, can be called
    section = (REPO / "README.md").read_text().split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"`(\w+(?:\.\w+)+)(\(?)", section)
    assert len(names) >= 10 and sum(bool(call) for _, call in names) >= 10, names
    for name, call in names:
        first = name.split(".")[0]
        if (REPO / "src" / "cliffcheck" / f"{first}.py").exists():
            importlib.import_module(f"cliffcheck.{first}")
        value = functools.reduce(getattr, name.split("."), cliffcheck)
        assert callable(value) or not call, f"README calls {name}, which is not callable"


def test_every_name_in_all_resolves():
    # a stale entry would make `from cliffcheck import *` raise AttributeError
    namespace = {}
    exec("from cliffcheck import *", namespace)
    assert set(cliffcheck.__all__) <= namespace.keys()


def test_a_fresh_verify_does_not_import_dataclasses():
    # every module a cold `verify` imports is paid on each call: generating the
    # record classes with dataclasses took several times as long as checking a bundled scenario
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "cliffcheck", "verify",
                           "scenarios/minkowski_boost.json"], capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"cliffcheck.cli", "cliffcheck.runner"} <= imported
    assert "dataclasses" not in imported
    assert [p.name for p in (REPO / "src").rglob("*.py") if "dataclass" in p.read_text()] == []
