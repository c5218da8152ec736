"""Checks on the package source itself."""

import ast
from pathlib import Path

import knotcovers

SRC = Path(knotcovers.__file__).parent


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
