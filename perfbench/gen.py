"""Seeded inputs for the benchmark workloads.

Knots are banded Seifert matrices: a random symmetric integer matrix plus
the strictly upper symplectic block [[0, I], [0, 0]], so A - A^T is the
standard symplectic form and det(A - A^T) = 1 by construction.  2-loop
classes are sums of slot triples in the package's JSON form: Laurent
polynomials as exponent -> coefficient maps, rational slots as
{"num": ..., "den": ...}.

Everything is derived from (seed, workload, pass index) through
``random.Random`` with a string key, so the same seed gives the same
inputs.  The caller passes one ``seen`` set for the whole run, so no knot
appears twice in a run.  No package code is used here: the large-p ops
pick their p from a Mahler measure computed by ``oracle``.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import oracle

# Python refuses to print an int of more than this many decimal digits
# (sys.int_info.default_max_str_digits); a growth op whose beta_p is
# longer exposes the CLI's printing defect.
DEFAULT_MAX_STR_DIGITS = 4300

COVERS_PS = (2, 20)
# log Mahler measure windows around the median of each genus, so that
# every covers pass asks for about the same work
COVERS_MAHLER = {2: (2.8, 3.9), 3: (5.0, 6.4)}
GROWTH_PMAX = 200
GROWTH_LADDER_MAHLER = (5.9, 6.1)
GROWTH_LARGE_DIGITS = (2400, 3400)  # decimal digits of beta_p for the --ps ops
GROWTH_BIGINT_DIGITS = 5000  # beyond the 4300-digit limit, with margin
LIFTRES_PS = (2, 6)
LIFTRES_SAMPLED_P = 7
LIFTRES_MAX_CASES = 10000
SELFTEST_CRITERIA = range(1, 13)


def seifert(rng: random.Random, g: int, bound: int = 2) -> list[list[int]]:
    n = 2 * g
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = rng.randint(-bound, bound)
    for i in range(g):
        A[i][g + i] += 1
    return A


def _knot(rng, g, seen, min_mahler=0.5, max_mahler=math.inf):
    """A fresh knot (never one already in ``seen``) whose log Mahler
    measure lies in [min_mahler, max_mahler]; the default floor keeps
    beta_p growing with p."""
    while True:
        A = seifert(rng, g)
        key = tuple(map(tuple, A))
        if key in seen:
            continue
        m = oracle.mahler(oracle.alexander_coeffs(A))
        if min_mahler <= m <= max_mahler:
            seen.add(key)
            return A, m


def _laurent(rng):
    exps = rng.sample(range(-2, 3), rng.randint(1, 3))
    return {str(e): str(rng.choice([-3, -2, -1, 1, 2, 3])) for e in sorted(exps)}


def poly_class(rng) -> dict:
    """Two terms with Laurent polynomial slots: res_p is an exact Fraction."""
    return {
        "terms": [
            {
                "f": _laurent(rng),
                "g": _laurent(rng),
                "h": _laurent(rng),
                "c": str(Fraction(rng.randint(1, 5), rng.randint(1, 4)) * rng.choice([-1, 1])),
            }
            for _ in range(2)
        ]
    }


def rational_class(rng) -> dict:
    """One term with slot 1/(3 - t), so torus_average runs its adaptive
    quadrature.  The slot exponents are fixed and only coefficients are
    drawn, which keeps the quadrature's cost the same on every seed."""
    def coeff():
        return str(rng.choice([-3, -2, -1, 1, 2, 3]))

    return {
        "terms": [
            {
                "f": {"num": {"0": "1"}, "den": {"0": "3", "1": "-1"}},
                "g": {"1": coeff(), "2": coeff()},
                "h": {"-2": coeff(), "1": coeff()},
                "c": str(rng.randint(1, 3)),
            }
        ]
    }


def _regular_p_near(A, p):
    """Smallest p' >= p at which no p'-th root of unity is a root of Delta."""
    while oracle.beta_p(A, p) == 0:
        p += 1
    return p


def _p_for_digits(A, m, digits):
    return _regular_p_near(A, max(2, math.ceil(digits * math.log(10) / m)))


class Op:
    """One CLI invocation plus what the checker needs to judge its output."""

    def __init__(self, kind: str, argv: list[str], **expect):
        self.kind = kind
        self.argv = argv
        self.expect = expect


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def make_pass(workload: str, seed: int, index: int, workdir: Path, seen: set) -> list[Op]:
    """The ops of one pass, with input files written under ``workdir``.
    Knots already in ``seen`` are skipped; the new ones are added."""
    rng = random.Random("%s:%d:%d" % (workload, seed, index))
    workdir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    if workload == "covers":
        for i, g in enumerate((2, 3)):
            A, _ = _knot(rng, g, seen, *COVERS_MAHLER[g])
            q = poly_class(rng)
            argv = [
                "branched",
                "--file", _write(workdir / ("k%d.json" % i), A),
                "--q", _write(workdir / ("q%d.json" % i), q),
                "--p", "%d..%d" % COVERS_PS,
                "--format", "json",
            ]
            ops.append(Op("branched", argv, A=A, q=q, ps=list(range(COVERS_PS[0], COVERS_PS[1] + 1))))
    elif workload == "growth":
        # the ladder's cost grows with the bits of beta_p, ~ p * m(Delta)
        A, _ = _knot(rng, 3, seen, *GROWTH_LADDER_MAHLER)
        q = rational_class(rng)
        ops.append(
            Op(
                "growth",
                [
                    "growth",
                    "--file", _write(workdir / "k0.json", A),
                    "--q", _write(workdir / "q0.json", q),
                    "--pmax", str(GROWTH_PMAX),
                    "--format", "json",
                ],
                A=A, q=q, ps=list(range(1, GROWTH_PMAX + 1)),
            )
        )
        for i, g in ((1, 2), (2, 3)):
            A, m = _knot(rng, g, seen, min_mahler=3.0)
            ps = [_p_for_digits(A, m, d) for d in GROWTH_LARGE_DIGITS]
            ops.append(
                Op(
                    "growth",
                    [
                        "growth",
                        "--file", _write(workdir / ("k%d.json" % i), A),
                        "--ps", ",".join(map(str, ps)),
                        "--format", "json",
                    ],
                    A=A, ps=ps,
                )
            )
        # beta_p longer than Python's int->str limit; the CLI exits 2 here
        A, m = _knot(rng, 2, seen, min_mahler=4.5, max_mahler=7.0)
        p = _p_for_digits(A, m, GROWTH_BIGINT_DIGITS)
        ops.append(
            Op(
                "growth",
                [
                    "growth",
                    "--file", _write(workdir / "k3.json", A),
                    "--ps", str(p),
                    "--format", "json",
                ],
                A=A, ps=[p], bigint=True,
            )
        )
    elif workload == "liftres":
        sample_seed = rng.randrange(2**31)
        ops.append(
            Op(
                "liftres",
                ["liftres", "--graph", "theta-theta", "--p", "%d..%d" % LIFTRES_PS, "--format", "json"],
                edges=6, ps=list(range(LIFTRES_PS[0], LIFTRES_PS[1] + 1)), max_cases=None,
            )
        )
        ops.append(
            Op(
                "liftres",
                [
                    "liftres", "--graph", "theta-eyes",
                    "--p", str(LIFTRES_SAMPLED_P),
                    "--max-cases", str(LIFTRES_MAX_CASES),
                    "--seed", str(sample_seed),
                    "--format", "json",
                ],
                edges=6, ps=[LIFTRES_SAMPLED_P], max_cases=LIFTRES_MAX_CASES,
            )
        )
    elif workload == "verify":
        # one op per criterion, so that the host's speed is probed
        # between criteria and not only around the whole selftest
        for n in SELFTEST_CRITERIA:
            ops.append(Op("selftest", ["selftest", "--criteria", str(n)], criterion=n))
    else:
        raise ValueError("unknown workload %r" % workload)
    return ops
