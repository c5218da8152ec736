"""Acceptance gate: every criterion must pass, with an explicit printed
pass/fail line, and the harness must turn red under injected corruption."""

import cmath
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import knotcovers.acceptance as acceptance
import knotcovers.lambdamat as lambdamat
import knotcovers.seifert as seifert
from knotcovers.acceptance import CRITERIA, AcceptanceContext, criterion_02, run_selftest
from knotcovers.seifert import Knot

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


def test_runner_emits_one_line_per_criterion(capsys):
    ok = run_selftest(criteria=[7, 10])
    assert ok
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all(re.match(r"criterion\s+\d+: (PASS|FAIL) \(\s*\d+\.\d\ds\)", ln) for ln in lines)


def test_injected_corruption_turns_the_gate_red(capsys):
    ok = run_selftest(criteria=[4], inject_corruption=True)
    assert ok is False
    assert "FAIL" in capsys.readouterr().out


def _install_wrong_slice(setattr_):
    """Negate the Seifert route's signature at the one root k/p = 3/7 in
    criterion 2's stacked comparison, and, in the production arc table
    behind total_sigma_p (criterion 3), on the trefoil's arc (1/6, 1/2)
    that holds 3/7, through the inertia kernel that seifert binds: that
    arc's form is A + A^T, at w = -1.  The trefoil's value there is -2, so
    both criteria must see it; criterion 3 first at p = 2."""
    real = acceptance.sigma_at_omega

    def flipped_at(target):
        def wrong(A, omega):
            omega = np.asarray(omega)
            sig = real(A, omega)
            flipped = np.where(np.abs(omega - target) < 1e-12, -sig, sig)
            return flipped if flipped.ndim else int(flipped)
        return wrong

    real_inertia = seifert._inertia

    def wrong_inertia(M):
        hit = M == [[-2, 1], [1, -2]]
        plus, minus, zero = real_inertia(M)
        return (minus, plus, zero) if hit else (plus, minus, zero)

    setattr_(acceptance, "sigma_at_omega", flipped_at(cmath.exp(2j * cmath.pi * 3 / 7)))
    setattr_(seifert, "_inertia", wrong_inertia)


def test_one_wrong_root_fails_the_stacked_cross_check(monkeypatch, capsys):
    _install_wrong_slice(monkeypatch.setattr)
    with pytest.raises(AssertionError, match=r"signature mismatch at k/p=3/7$"):
        criterion_02(AcceptanceContext())
    capsys.readouterr()
    assert run_selftest(criteria=[2, 3]) is False
    lines = capsys.readouterr().out.splitlines()
    assert re.match(r"criterion\s+2: FAIL .* k/p=3/7$", lines[0]), lines[0]
    assert re.match(r"criterion\s+3: FAIL .* trefoil p=2: production route$", lines[1]), lines[1]


def test_one_wrong_clover_root_fails_criteria_2_and_3(monkeypatch, capsys):
    real = acceptance.varsigma_at

    def wrong(W, k, p):
        out = real(W, k, p)
        hit = np.broadcast_to((np.asarray(k) == 3) & (np.asarray(p) == 7), np.shape(out))
        return np.where(hit, -out, out) if np.ndim(out) else (-out if hit else out)

    monkeypatch.setattr(acceptance, "varsigma_at", wrong)
    capsys.readouterr()
    assert run_selftest(criteria=[2, 3]) is False
    lines = capsys.readouterr().out.splitlines()
    assert re.match(r"criterion\s+2: FAIL .* k/p=3/7$", lines[0]), lines[0]
    assert re.match(r"criterion\s+3: FAIL .* p=7: -?\d+ vs -?\d+$", lines[1]), lines[1]


def test_criterion_2_stacks_each_route_once_per_knot(monkeypatch):
    # every complex_signature call, from either route, is counted; a
    # singular root costs one refused call per route
    calls = []
    real = lambdamat.complex_signature

    def counted(H):
        calls.append(H.shape)
        return real(H)

    monkeypatch.setattr(lambdamat, "complex_signature", counted)
    monkeypatch.setattr(seifert, "complex_signature", counted)
    ctx = AcceptanceContext()
    criterion_02(ctx)
    singular = 0
    for A in ctx.random_corpus():
        terms = Knot(A).delta.coeffs.items()
        for p in range(2, 11):
            for k in range(1, p):
                w = cmath.exp(2j * cmath.pi * k / p)
                singular += abs(sum(float(c) * w ** e for e, c in terms)) < 1e-7
    knots = len(ctx.random_corpus())
    assert singular > 0
    assert len(calls) <= 2 * knots + 2 * singular
    # no regular root leaves either route: 45 roots per knot, of which the
    # 5 at w = -1 are exact on the clover route
    assert sum(shape[0] for shape in calls if len(shape) == 3) >= (40 + 45) * knots - 2 * singular


def _python_O(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-O", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_injected_corruption_fails_under_python_O():
    proc = _python_O("-m", "knotcovers.cli", "selftest", "--criteria", "4", "--inject-corruption")
    assert proc.returncode == 1
    assert re.search(r"criterion\s+4: FAIL", proc.stdout)


def test_wrong_root_fails_criteria_2_and_3_under_python_O():
    # the stacked comparisons raise through check, not assert
    script = (
        "import sys; sys.path.insert(0, %r)\n"
        "import test_acceptance\n"
        "test_acceptance._install_wrong_slice(setattr)\n"
        "from knotcovers.acceptance import run_selftest\n"
        "sys.exit(0 if run_selftest(criteria=[2, 3]) else 1)\n"
    ) % str(Path(__file__).resolve().parent)
    proc = _python_O("-c", script)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2
    assert re.match(r"criterion\s+2: FAIL .* k/p=3/7$", lines[0]), lines[0]
    assert re.match(r"criterion\s+3: FAIL .* trefoil p=2: production route$", lines[1]), lines[1]


def test_signature_criteria_pass_under_python_O():
    # the cached Hermitian checks, sigma(W(+-1)), the stacked eigensolves
    # and the integer kernels (Bareiss inertia and determinants, the
    # subresultant PRS, exact division, beta_p's residues mod chi) raise
    # explicitly, so these criteria still check under -O
    criteria = [1, 2, 3, 4, 5, 8, 9, 10, 11, 12]
    proc = _python_O("-m", "knotcovers.cli", "selftest", "--criteria", ",".join(map(str, criteria)))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    passed = [re.match(r"criterion\s+(\d+): PASS", ln) for ln in lines]
    assert [int(m.group(1)) for m in passed if m] == criteria
    assert len(lines) == len(criteria)
