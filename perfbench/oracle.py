"""Independent checks of the CLI's outputs.

Nothing here imports the package.  Each number the CLI prints is
recomputed by a route that shares no code with it:

* beta_p = |det(G^p - (G - I)^p)| with G = A (A - A^T)^-1, an integer
  matrix because det(A - A^T) = 1 (Seifert's presentation of
  H_1 of the p-fold branched cover), by plain integer Bareiss;
* sigma_p as the Tristram-Levine sum over k = 1..p-1 of
  sign((1 - conj(w^k)) A + (1 - w^k) A^T), by numpy eigenvalues;
* the regular flag from gcd(Delta, t^p - 1), exactly;
* res_p, the torus average and the Casson column from a numeric double
  sum of the 2-loop class over roots of unity;
* the Alexander coefficients by exact interpolation of det(A - t A^T)
  at integer t, the Mahler measure and the signature average from numpy
  roots of those coefficients.

``check_op`` judges one op: it returns None when the output is right and
a one-line reason otherwise.
"""

from __future__ import annotations

import cmath
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

# tolerances for values the CLI itself computes in floating point
REL_TOL = 1e-6
LOG_TOL = 1e-9


# ---------------------------------------------------------------------------
# integer linear algebra


def bareiss_det(M: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    M = [list(r) for r in M]
    n = len(M)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def _matmul(X, Y):
    cols = list(zip(*Y))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in X]


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matpow(M, e):
    out = _identity(len(M))
    while e:
        if e & 1:
            out = _matmul(out, M)
        M = _matmul(M, M)
        e >>= 1
    return out


def _integer_inverse(S: list[list[int]]) -> list[list[int]]:
    """Inverse of a unimodular integer matrix (Gauss-Jordan over Q)."""
    n = len(S)
    M = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(S)]
    for c in range(n):
        piv = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[piv] = M[piv], M[c]
        inv = 1 / M[c][c]
        M[c] = [x * inv for x in M[c]]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    out = [row[n:] for row in M]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("A - A^T is not unimodular")
    return [[int(x) for x in row] for row in out]


def _gamma(A):
    n = len(A)
    S = [[A[i][j] - A[j][i] for j in range(n)] for i in range(n)]
    G = _matmul(A, _integer_inverse(S))
    Gm = [[G[i][j] - int(i == j) for j in range(n)] for i in range(n)]
    return G, Gm


def beta_series(A: list[list[int]], ps) -> dict[int, int]:
    """{p: beta_p} for the given p; 0 marks an irregular p."""
    n = len(A)
    if n == 0:
        return {p: 1 for p in ps}
    G, Gm = _gamma(A)
    out = {}
    last, P, Q = 0, _identity(n), _identity(n)
    for p in sorted(set(ps)):
        step = p - last
        P = _matmul(P, G if step == 1 else _matpow(G, step))
        Q = _matmul(Q, Gm if step == 1 else _matpow(Gm, step))
        last = p
        out[p] = abs(bareiss_det([[P[i][j] - Q[i][j] for j in range(n)] for i in range(n)]))
    return out


def beta_p(A, p: int) -> int:
    return beta_series(A, [p])[p]


# ---------------------------------------------------------------------------
# the Alexander polynomial and the signature function, numerically


def alexander_coeffs(A: list[list[int]]) -> list[int]:
    """Ascending integer coefficients of det(A - t A^T) (degree <= 2g),
    interpolated exactly from its values at t = 0..2g."""
    n = len(A)
    xs = list(range(n + 1))
    ys = [bareiss_det([[A[i][j] - x * A[j][i] for j in range(n)] for i in range(n)]) for x in xs]
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(xs):
        basis = [Fraction(1)]  # prod_{j != i} (t - xj) / (xi - xj), ascending
        for j, xj in enumerate(xs):
            if j == i:
                continue
            d = Fraction(1, xi - xj)
            basis = [
                (basis[k - 1] if k else 0) * d - (basis[k] if k < len(basis) else 0) * xj * d
                for k in range(len(basis) + 1)
            ]
        for k, b in enumerate(basis):
            coeffs[k] += ys[i] * b
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def _trimmed(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    while c and c[0] == 0:
        c.pop(0)
    return c


def mahler(coeffs: list[int]) -> float:
    """Log Mahler measure from ascending coefficients."""
    c = _trimmed(coeffs)
    total = math.log(abs(c[-1]))
    if len(c) > 1:
        for z in np.roots(c[::-1]):
            total += math.log(max(1.0, abs(z)))
    return total


def _forms(A, ws):
    """(1 - conj(w)) A + (1 - w) A^T for each w, stacked."""
    A = np.array(A, dtype=float)
    ws = np.asarray(ws, dtype=complex)[:, None, None]
    return (1 - ws.conj()) * A + (1 - ws) * A.T


def _signatures(A, ws):
    eig = np.linalg.eigvalsh(_forms(A, ws))
    return (np.sum(eig > 0, axis=1) - np.sum(eig < 0, axis=1)).astype(int)


def sigma_p(A, p: int) -> int:
    if p < 2 or not A:
        return 0
    ws = np.exp(2j * np.pi * np.arange(1, p) / p)
    return int(_signatures(A, ws).sum())


def regular(A, p: int) -> bool:
    """No p-th root of unity is a root of Delta: gcd(Delta, t^p - 1) is
    a constant, by Euclid's algorithm over Q.  Exact, because Delta can
    come within 1e-4 of a root of unity without vanishing there."""
    a = [Fraction(c) for c in _trimmed(alexander_coeffs(A))]
    b = [Fraction(-1)] + [Fraction(0)] * (p - 1) + [Fraction(1)]
    while len(b) > 1:
        while len(a) >= len(b):  # a := a mod b, coefficients ascending
            f, shift = a[-1] / b[-1], len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] -= f * y
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return bool(b)  # a nonzero constant remains unless b divides Delta


def signature_average(A) -> float:
    """Average of the signature function: constant between the
    unit-circle roots of Delta, so one eigen-solve per arc."""
    if not A:
        return 0.0
    c = _trimmed(alexander_coeffs(A))
    angles = sorted(
        cmath.phase(z) % (2 * math.pi)
        for z in np.roots(c[::-1])
        if abs(abs(z) - 1) < 1e-6 and cmath.phase(z) % (2 * math.pi) > 1e-9
    )
    bounds = [0.0] + angles + [2 * math.pi]
    arcs = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi - lo > 1e-9]
    mids = [cmath.exp(0.5j * (lo + hi)) for lo, hi in arcs]
    sigs = _signatures(A, mids)
    return float(sum(s * (hi - lo) for s, (lo, hi) in zip(sigs, arcs)) / (2 * math.pi))


# ---------------------------------------------------------------------------
# 2-loop classes, numerically


def _slot(obj, z):
    """Evaluate a JSON slot (exponent map, or {"num", "den"}) at array z."""
    def laurent(m):
        return sum(float(Fraction(c)) * z ** int(e) for e, c in m.items())

    if "num" in obj:
        return laurent(obj["num"]) / laurent(obj.get("den", {"0": "1"}))
    return laurent(obj)


def res_p(q: dict, p: int) -> float:
    """(1/p) sum over p-th roots w1, w2 of f(w1) g(w2) h((w1 w2)^-1)."""
    w = np.exp(2j * np.pi * np.arange(p) / p)
    idx = (-(np.arange(p)[:, None] + np.arange(p)[None, :])) % p
    total = 0j
    for t in q["terms"]:
        F, G, H = _slot(t["f"], w), _slot(t["g"], w), _slot(t["h"], w)
        total += float(Fraction(t["c"])) * np.sum(F[:, None] * G[None, :] * H[idx])
    return (total / p).real


def torus_average(q: dict, grid: int = 128) -> float:
    """Trapezoid rule on the torus; exponentially accurate for slots
    analytic in an annulus around |t| = 1."""
    return res_p(q, grid) / grid


# ---------------------------------------------------------------------------
# judging one op


def parse_json(text: str):
    """json.loads with the int-digit limit lifted for this parse only."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        sys.set_int_max_str_digits(old)


def _close(a, b, tol=REL_TOL) -> bool:
    return a is not None and abs(float(a) - b) <= tol * max(1.0, abs(b))


def _check_branched(op, out):
    A, q = op.expect["A"], op.expect.get("q")
    if out["columns"] != ["p", "regular", "sigma_p", "beta_p", "log_beta_over_p", "casson"]:
        return "columns %r" % out["columns"]
    rows = out["rows"]
    ps = [r[0] for r in rows]
    if ps != op.expect["ps"]:
        return "p column %r" % ps
    betas = beta_series(A, ps)
    for p, reg, sig, beta, ratio, casson in rows:
        if reg != regular(A, p) or reg != (betas[p] != 0):
            return "p=%d regular flag %r" % (p, reg)
        if not reg:
            if (sig, beta, ratio, casson) != (None, None, None, None):
                return "p=%d irregular row has values" % p
            continue
        want_sig = sigma_p(A, p)
        if sig != want_sig:
            return "p=%d sigma_p %r != %d" % (p, sig, want_sig)
        if beta != betas[p]:
            return "p=%d beta_p differs" % p
        if not _close(ratio, math.log(betas[p]) / p, LOG_TOL):
            return "p=%d log_beta_over_p %r" % (p, ratio)
        want_c = res_p(q, p) / 3 + want_sig / 8
        got_c = float(Fraction(casson)) if isinstance(casson, str) else casson
        if not _close(got_c, want_c, 1e-9):
            return "p=%d casson %r != %.12g" % (p, casson, want_c)
    return None


def _check_growth(op, out):
    A, q = op.expect["A"], op.expect.get("q")
    if out["columns"] != ["p", "beta_p", "log_beta_over_p"]:
        return "columns %r" % out["columns"]
    betas = beta_series(A, op.expect["ps"])
    want_ps = [p for p in op.expect["ps"] if betas[p] != 0]
    rows = out["rows"]
    if [r[0] for r in rows] != want_ps:
        return "p column differs"
    for p, beta, ratio in rows:
        if beta != betas[p]:
            return "p=%d beta_p differs" % p
        if not _close(ratio, math.log(betas[p]) / p, LOG_TOL):
            return "p=%d log_beta_over_p %r" % (p, ratio)
    if not _close(out.get("mahler"), mahler(alexander_coeffs(A))):
        return "mahler %r" % out.get("mahler")
    sig_avg = signature_average(A)
    if not _close(out.get("signature_average"), sig_avg):
        return "signature_average %r != %.12g" % (out.get("signature_average"), sig_avg)
    if q is not None:
        want = torus_average(q) / 3 + sig_avg / 8
        if not _close(out.get("casson_growth"), want):
            return "casson_growth %r != %.12g" % (out.get("casson_growth"), want)
    return None


def _check_liftres(op, out):
    rows = out["rows"]
    if [r[0] for r in rows] != op.expect["ps"]:
        return "p column differs"
    for p, edges, cases, failures in rows:
        E = op.expect["edges"]
        mc = op.expect["max_cases"]
        want_cases = p**E if mc is None or mc >= p**E else mc
        if edges != E or cases != want_cases:
            return "p=%d edges/cases %r/%r" % (p, edges, cases)
        if failures != 0:
            return "p=%d: %d lift/residue failures" % (p, failures)
    return None


_CRITERION = re.compile(r"^criterion\s+(\d+): (PASS|FAIL) \(\s*([0-9.]+)s\)")


def criterion_seconds(stdout: str) -> dict[int, float]:
    """{criterion number: seconds} from selftest's PASS lines."""
    out = {}
    for line in stdout.splitlines():
        m = _CRITERION.match(line)
        if m and m.group(2) == "PASS":
            out[int(m.group(1))] = float(m.group(3))
    return out


def check_op(op, rc: int, stdout: str) -> str | None:
    """None when the op succeeded with correct output, else the reason."""
    if rc != 0:
        return "exit %d" % rc
    if op.kind == "selftest":
        passed = criterion_seconds(stdout)
        lines = [l for l in stdout.splitlines() if l.strip()]
        if list(passed) != [op.expect["criterion"]] or len(lines) != 1:
            return "selftest --criteria %d: %d PASS lines of %d" % (op.expect["criterion"], len(passed), len(lines))
        return None
    try:
        out = parse_json(stdout)
        check = {"branched": _check_branched, "growth": _check_growth, "liftres": _check_liftres}
        return check[op.kind](op, out)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return "unparseable output: %s: %s" % (type(e).__name__, e)
