"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

import knotcovers

SRC = Path(knotcovers.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_no_assert_in_production_code():
    # python -O strips assert statements; every check in the package must
    # raise explicitly so that it survives optimized runs
    paths = sorted(SRC.glob("*.py"))
    assert paths, "package source not found"
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_tolerance_parameters():
    # numeric tolerances are module constants, not knobs a caller can turn
    found = [
        "%s:%d %s" % (path.name, node.lineno, node.arg)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.arg) and (node.arg == "tol" or node.arg.endswith("_tol"))
    ]
    assert found == []


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return []


def test_no_scipy():
    # numpy is the only dependency: no scipy import anywhere in the
    # package (also not deferred inside a function) and none declared
    found = [
        "%s:%d %s" % (path.name, node.lineno, name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _imported_modules(node)
        if name.split(".")[0] == "scipy"
    ]
    assert found == []
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    deps = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert deps and not [d for d in deps if d.lower().startswith("scipy")]
