"""Acceptance gate: every criterion must pass, with an explicit printed
pass/fail line, and the harness must turn red under injected corruption."""

import io
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from knotcovers.acceptance import CRITERIA, AcceptanceContext, run_selftest

_BUDGETS = {
    1: 10.0,
    2: 60.0,
    3: 60.0,
    4: 30.0,
    5: 30.0,
    6: 60.0,
    7: 10.0,
    8: 30.0,
    9: 60.0,
    10: 10.0,
    11: 30.0,
    12: 30.0,
}


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext()


@pytest.mark.parametrize(
    "num,title,fn", CRITERIA, ids=["criterion_%02d" % c[0] for c in CRITERIA]
)
def test_criterion(num, title, fn, ctx, capsys):
    t0 = time.monotonic()
    try:
        fn(ctx)
        status = "PASS"
    except BaseException:
        status = "FAIL"
        raise
    finally:
        dt = time.monotonic() - t0
        with capsys.disabled():
            print("criterion %2d: %s (%6.2fs)  %s" % (num, status, dt, title))
    assert dt <= _BUDGETS[num], "criterion %d exceeded its %gs budget: %.2fs" % (
        num,
        _BUDGETS[num],
        dt,
    )


def test_runner_emits_one_line_per_criterion():
    buf = io.StringIO()
    ok = run_selftest(criteria=[7, 10], stream=buf)
    assert ok
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == 2
    assert all(re.match(r"criterion\s+\d+: (PASS|FAIL) \(\s*\d+\.\d\ds\)", ln) for ln in lines)


def test_injected_corruption_turns_the_gate_red():
    buf = io.StringIO()
    ok = run_selftest(criteria=[4], inject_corruption=True, stream=buf)
    assert ok is False
    assert "FAIL" in buf.getvalue()


def _selftest_under_python_O(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-O", "-m", "knotcovers.cli", "selftest", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_injected_corruption_fails_under_python_O():
    proc = _selftest_under_python_O("--criteria", "4", "--inject-corruption")
    assert proc.returncode == 1
    assert re.search(r"criterion\s+4: FAIL", proc.stdout)


def test_signature_criteria_pass_under_python_O():
    # the cached Hermitian checks, sigma(W(+-1)), the stacked eigensolves
    # and the integer kernels (Bareiss inertia and determinants, the
    # subresultant PRS, exact division) raise explicitly, so these
    # criteria still check under -O
    criteria = [1, 2, 3, 4, 8, 9, 10, 11, 12]
    proc = _selftest_under_python_O("--criteria", ",".join(map(str, criteria)))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    passed = [re.match(r"criterion\s+(\d+): PASS", ln) for ln in lines]
    assert [int(m.group(1)) for m in passed if m] == criteria
    assert len(lines) == len(criteria)
