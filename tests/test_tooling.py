"""Checks on the package source itself."""

import ast
import doctest
import re
from pathlib import Path

import pytest

import knotcovers

SRC = Path(knotcovers.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_examples():
    # the library tour runs as written: every ```python block of README.md
    # is a doctest, in file order, sharing one namespace
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    report, globs = [], {}
    for i, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, globs, "README.md[%d]" % i, str(README), 0),
                   out=report.append)
    assert runner.tries > 0
    assert runner.failures == 0, "".join(report)
