"""Seifert matrices, the symmetrized Alexander polynomial, equivariant
signatures, and the Hermitian clover form attached to a genus-g surface.

Conventions
-----------
A Seifert matrix here is an integer 2g x 2g matrix A in any basis of the
surface's first homology; validation requires det(A - A^T) = 1, and
Delta, the signature function and beta_p need nothing more.  Only the
clover form needs a banded surface basis x_1..x_g, y_1..y_g, in which the
intersection pairing A - A^T is the standard symplectic matrix
[[0, I], [-I, 0]]: that block structure is what makes the clover form
Hermitian, and ``Knot.clover`` raises NotHermitian on first use when it
is missing.

* ``alexander(A)`` = t^-g det(A - t A^T), which is automatically
  bar-symmetric and takes the value 1 at t = 1; ``Knot.delta`` is the
  determinant of the pencil A - t A^T by ``LambdaMatrix.det``.
* ``signature_function(A, k, p)`` is the signature of
  (1 - conj(w)) A + (1 - w) A^T at w = e^(2 pi i k / p); w = 1 is a
  removable but excluded point (AtOne).  It, sigma_p and the signature
  average are read off one table of exact inertias per knot, ``Knot.arcs``;
  the float eigensolve ``sigma_at_omega`` is an oracle only.
* ``clover_matrix(A)`` is the 2g x 2g Hermitian Lambda-matrix
  [[Lxx, (1 - t^-1) Lxy - I], [(1 - t) Lyx - I, (2 - t - t^-1) Lyy]]
  built from the block decomposition L of A with Lyx = Ayx + I, written
  straight into its coefficient matrices W = C_-1 t^-1 + C_0 + C_1 t.
  ``congruence_identity_check`` verifies, exactly, that conjugating the
  clover form by diag((1 - t) I, I) recovers
  (1 - t^-1) A + (1 - t) A^T, which is why the clover form computes both
  the Alexander polynomial and the signature function.

Each function above takes a raw matrix or a ``Knot``, which validates it
once and derives Delta and the clover form once, Delta by integer
arithmetic alone.  ``Knot.betas(ps)``, |H_1| of the p-fold branched covers,
is |det| of Seifert's presentation Gamma^p - (Gamma - I)^p, Gamma = A (A -
A^T)^-1, read as a square of a norm in Z[s]/E, E of degree g from Delta,
a norm that a run of at least 3 2^g consecutive p replaces by one step of
an integer linear recurrence of order 2^g per knot; its
oracles in the tests are the matrix powers of Gamma, the norm in Z[x]/chi
for chi = det(xI - Gamma) and the resultant.

Knot records (name + Seifert matrix + optional 2-loop class) are the JSON
interchange format; a small bundled corpus ships with the package.
"""

from __future__ import annotations

import bisect
import json
import math
import operator
import random
from fractions import Fraction
from functools import cached_property
from importlib import resources
from itertools import groupby, islice, zip_longest
from typing import Iterable, Iterator, Sequence

from .exactalg import (LaurentPoly, SingularEvaluation, _json_object, _monic_mod, _mul_rows,
                       _mulx_mod, _poly_mul, _power, _trace_poly, circle_roots)
from .lambdamat import (
    AtOne,
    LambdaMatrix,
    NotHermitian,
    _bareiss,
    _inertia,
    complex_signature,
    rational_det,
)
from .theta import ThetaClass

__all__ = [
    "OddSize",
    "NotUnimodularAtOne",
    "validate_seifert",
    "Knot",
    "alexander",
    "clover_matrix",
    "congruence_identity_check",
    "signature_function",
    "random_seifert",
    "KnotRecord",
    "corpus_records",
]

_RANDOM_BOUND = 3  # random_seifert's symmetric entries lie in -3..3
_TURN_SLACK = 2.0 ** -48  # relative widening of a root's turns: 2^5 x their rounding


class OddSize(ValueError):
    """Seifert matrices must have even size."""


class NotUnimodularAtOne(ValueError):
    """det(A - A^T) must be exactly 1."""


def validate_seifert(A: Sequence[Sequence[int]]) -> list[list[int]]:
    """Check and normalize a Seifert matrix: square, even size, integer
    entries, det(A - A^T) = 1.  Returns the matrix as lists of ints."""
    rows = [list(r) for r in A]
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("Seifert matrix must be square")
        for x in r:
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise ValueError("Seifert matrix must be integral")
            elif not isinstance(x, int) or isinstance(x, bool):
                raise ValueError("Seifert matrix entries must be ints")
    rows = [[int(x) for x in r] for r in rows]
    if n % 2 != 0:
        raise OddSize("Seifert matrix has odd size %d" % n)
    skew = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
    if rational_det(skew) != 1:
        raise NotUnimodularAtOne("det(A - A^T) != 1")
    return rows


class Knot:
    """A validated Seifert matrix with the values the per-cover invariants
    read from it, each derived on first use and kept: the Alexander
    polynomial ``delta`` and its ``half_charpoly`` behind ``betas``, the
    clover form ``clover``, the signature function's table ``arcs`` (or its
    refusal), and beta_2, the power sums and the recurrence of ``betas``.
    Nothing else is kept: ``betas`` holds no state between calls.
    Functions taking a matrix coerce it with ``Knot.of``."""

    def __init__(self, A: Sequence[Sequence[int]]):
        self.seifert = validate_seifert(A)
        self._arcs_refusal: SingularEvaluation | None = None

    @classmethod
    def of(cls, A: "KnotLike") -> "Knot":
        return A if isinstance(A, Knot) else cls(A)

    @property
    def genus(self) -> int:
        return len(self.seifert) // 2

    @cached_property
    def delta(self) -> LaurentPoly:
        """t^-g det(A - t A^T); see ``alexander``: the Seifert pencil as its
        coefficient matrices C_0 = A and C_1 = -A^T, and its determinant by
        ``LambdaMatrix.det``, one Kronecker-packed integer Bareiss."""
        A = self.seifert
        pencil = LambdaMatrix.from_coeffs({0: A, 1: [[-a for a in col] for col in zip(*A)]}, len(A))
        d = pencil.det().shift(-self.genus)
        if d.eval_one() != 1 or not d.is_bar_symmetric:
            raise ArithmeticError("t^-g det(A - t A^T) must be bar-symmetric with value 1 at t = 1")
        return d

    @cached_property
    def clover(self) -> LambdaMatrix:
        """The Hermitian clover form C_-1 t^-1 + C_0 + C_1 t, each C_e
        written from the blocks of A; see ``clover_matrix``."""
        A, g = self.seifert, self.genus
        x, y = A[:g], A[g:]  # the rows of the generators x_i and y_i
        I = [[int(i == j) for j in range(g)] for i in range(g)]
        W = LambdaMatrix.from_coeffs({
            -1: [[0] * g + [-a for a in r[g:]] for r in A],
            0: [r[:g] + [a - d for a, d in zip(r[g:], e)] for r, e in zip(x, I)]
            + [r[:g] + [2 * a for a in r[g:]] for r in y],
            1: [[0] * 2 * g] * g
            + [[-a - d for a, d in zip(r[:g], e)] + [-a for a in r[g:]] for r, e in zip(y, I)],
        }, 2 * g)
        if not W.is_hermitian:
            raise NotHermitian(
                "Seifert matrix is not in a banded surface basis; clover form degenerates"
            )
        if abs(rational_det(W.eval_at_one())) != 1:
            raise ArithmeticError("clover form must be unimodular at 1")
        return W

    @cached_property
    def arcs(self) -> tuple[list[tuple[float, float]], list[int]]:
        """The signature function, constant between the circle roots of Delta
        and symmetric under k/p -> 1 - k/p: the roots in (0, 1/2) as brackets
        (lo, hi) of turns, ascending (``circle_roots``, mapped by
        acos(u/2)/2 pi and widened past the rounding of that map, of k/p and
        of p x), and its exact value on each arc from 0 to 1/2 between them.
        Arc 0, from t = 1 to the first root, is 0 by theory: as s -> 0 the
        scaled form s (A + A^T) + i (A - A^T) tends to i (A - A^T), which is
        unimodular with signature 0.  Every later arc is ``_arc_signature``
        at its ``_simplest_tangent`` (w = -1 on the last).  Built once: a
        SingularEvaluation refusing it is kept and raised on every read."""
        if self._arcs_refusal is not None:
            raise SingularEvaluation(*self._arcs_refusal.args)
        try:
            brackets = circle_roots(self.delta)[::-1]  # descending in u, so ascending in turns
        except SingularEvaluation as refusal:
            self._arcs_refusal = refusal
            raise
        # arc j, 0 < j < len(brackets), lies in u above bracket j, below bracket j - 1
        points = [_simplest_tangent(b, a) for (_, b), (a, _) in zip(brackets[1:], brackets)]
        points += [(1, 0)] if brackets else []
        roots = [(math.acos(b / 2) / (2 * math.pi) * (1 - _TURN_SLACK),
                  math.acos(a / 2) / (2 * math.pi) * (1 + _TURN_SLACK)) for a, b in brackets]
        return roots, [0] + [_arc_signature(self.seifert, a, b) for a, b in points]

    @cached_property
    def signature_average(self) -> float:
        """Average of the signature function over the unit circle: each arc
        of ``arcs`` weighted by its length, its ends the bracket centres."""
        roots, sigs = self.arcs
        ends = [0.0] + [(lo + hi) / 2 for lo, hi in roots] + [0.5]
        return 2 * sum(sig * (b - a) for sig, a, b in zip(sigs, ends, ends[1:]))

    def sigma_p(self, p: int) -> int:
        """The signature function summed over the p-th roots of unity, from
        ``arcs``: floor(p hi) of the k >= 1 lie below a root bracket (lo, hi),
        so each arc counts its k < p/2 in O(1), doubled for k > p/2, plus
        k = p/2 for even p.  No regularity test; SingularEvaluation naming
        p and k when a k >= 1 falls in a bracket (a bracket from turn 0
        holds k = 0, which is no root of Delta)."""
        roots, sigs = self.arcs
        below = []
        for lo, hi in roots:
            k = max(1, math.ceil(p * lo))
            if k <= p * hi:
                raise SingularEvaluation("a p-th root of unity is numerically singular at the"
                                         " root k = %d of p = %d, by a root of Delta" % (k, p))
            below.append(k - 1)
        counts = [b - a for a, b in zip([0] + below, below + [(p - 1) // 2])]
        return 2 * sum(s * c for s, c in zip(sigs, counts)) + (sigs[-1] if p % 2 == 0 else 0)

    @cached_property
    def half_charpoly(self) -> list[int]:
        """E(s) = s^g D(2 - 1/s), ascending, D the trace polynomial of ``delta``
        (Delta(t) = D(t + 1/t)): monic of degree g, as D(2) = Delta(1) = 1, its
        roots s = lambda (1 - lambda) over Gamma's eigenvalue pairs lambda, 1 - lambda.
        Horner on sum_k d_k (2s - 1)^k s^(m - k) = s^m D(2 - 1/s), m = deg D."""
        D, E = _trace_poly(self.delta), []
        for d in reversed(D):  # E <- (2s - 1) E + d s^(m - k)
            E = [2 * a - b for a, b in zip([0] + E, E + [0])]
            E[-1] += d
        E = [0] * (self.genus + 1 - len(D)) + E
        if E[-1] != 1:
            raise ArithmeticError("s^g D(2 - 1/s) must be monic, for D(2) = Delta(1) = 1")
        return E

    def beta(self, p: int) -> int:
        """beta_p alone: ``betas`` on the one degree p, a jump."""
        return self.betas([p])[0]

    def betas(self, ps: Iterable[int]) -> list[int]:
        """|det(Gamma^p - (Gamma - I)^p)| for each p in ps, the order of H_1
        of the p-fold branched cover (Seifert 1935; Rolfsen, *Knots and
        Links*, ch. 8), in any basis; 0 exactly when p is irregular.

        A square, or beta_2 times one (Plans 1953), from the signed norm N of
        Z[s]/E, E = ``half_charpoly``: x^p = a + b x in (Z[s]/E)[x]/(x^2 - x + s),
        whose x is lambda or 1 - lambda over each root s, so x^p - (x - 1)^p
        is 2a + b for odd p and b (2x - 1) for even p, (2x - 1)^2 = 1 - 4s:
        beta_p = u_p^2 or beta_2 z_p^2, u_p = N(2a + b), z_p = N(b) and
        beta_2 = |N(1 - 4s)| per knot.

        u_p is the power sum over S of mu_S^p, mu_S the product of lambda_i
        over i in S and of 1 - lambda_i over the rest, and z_p a fixed
        combination of the same powers, so both obey one linear recurrence of
        order n = 2^g (``_recurrence``; Pierce 1916, Hillar 2005).  The
        distinct degrees are walked once, ascending, in runs of consecutive p:

        * a run's first p is a jump, a square and multiply of general
          products; each later p the linear step (a, b) -> (-s b, a + b);
        * a run shorter than 3n pays one g x g norm per p;
        * a run of at least 3n degrees seeds a window, u and z at its first
          n degrees, and takes each later p by one recurrence step, two dot
          products of length n and no norm.  The window reads u_p for p <= n
          from ``_powersums``, the n norms behind ``_recurrence``, and pays
          one norm for each other value: with them a run from p = 1 pays 2n
          norms in all, one from p = 2 pays 2n + 1, one from past n 3n.

        At 3n degrees a norm per p took 0.90-1.54x as long as the
        recurrence at genus 1-6, from p = 2 and from p = 1000 (README), so
        3n is about their break-even there, and the rule does not look at
        the genus.  Past genus 6 it is untested: at genus 8, on one knot's
        p = 1..768, a norm per p took 0.83-0.87x as long.  One more norm,
        for beta_2, on any even p."""
        ps = list(ps)
        if any(p < 1 for p in ps):
            raise ValueError("p must be a positive integer")
        if not self.genus:
            return [1] * len(ps)
        E, n, got = self.half_charpoly, 2 ** self.genus, {}
        for _, run in groupby(enumerate(sorted(set(ps))), lambda ip: ip[1] - ip[0]):
            run = [p for _, p in run]
            steps = zip(run, _uzs(run[0], E))
            if len(run) < 3 * n:
                ws = [_norm(uz[1 - p % 2], E) for p, uz in steps]
            else:
                us, zs = [], []
                for p, (u, z) in islice(steps, n):
                    us.append(self._powersums[p - 1] if p <= n else _norm(u, E))
                    zs.append(_norm(z, E))
                for _ in run[n:]:
                    for seq in (us, zs):
                        seq.append(sum(map(operator.mul, self._recurrence, seq[-n:])))
                ws = [z if p % 2 == 0 else u for p, u, z in zip(run, us, zs)]
            got.update((p, self._beta2 * w ** 2 if p % 2 == 0 else w ** 2) for p, w in zip(run, ws))
        return [got[p] for p in ps]

    @cached_property
    def _beta2(self) -> int:
        """beta_2 = |N(1 - 4s)| of ``betas``: odd, so never 0."""
        return abs(_norm([1, -4], self.half_charpoly))

    @cached_property
    def _powersums(self) -> list[int]:
        """u_1..u_n of ``betas``, n = 2^g, one norm each: the power sums of
        the n values mu_S."""
        E = self.half_charpoly
        return [_norm(u, E) for u, _ in islice(_uzs(1, E), 2 ** self.genus)]

    @cached_property
    def _recurrence(self) -> list[int]:
        """c_n, ..., c_1 of w_p = sum_k c_k w_(p-k), which u and z of ``betas``
        obey: the characteristic polynomial X^n - sum_k c_k X^(n-k) has the
        n = 2^g values mu_S as its roots, whose power sums are u_1..u_n
        (``_powersums``), so Newton's identities give k c_k = u_k -
        sum_(j<k) c_j u_(k-j), each division exact.  Reversed for a dot
        product with the window, oldest first."""
        us, coeffs = self._powersums, []
        for k, u in enumerate(us, 1):
            c, r = divmod(u - sum(map(operator.mul, coeffs, reversed(us[:k - 1]))), k)
            if r:
                raise ArithmeticError("Newton's identities must divide exactly")
            coeffs.append(c)
        return coeffs[::-1]


def _xmul(u: tuple, v: tuple, E: list) -> tuple:
    """(a + b x)(c + d x) in (Z[s]/E)[x]/(x^2 - x + s): (ac - s bd) +
    ((a + b)(c + d) - ac) x."""
    (a, b), (c, d) = u, v
    ac, bd = _poly_mul(a, c), _poly_mul(b, d)
    cross = _poly_mul(_padd(a, b), _padd(c, d))
    return (_monic_mod(_padd(ac, [0] + [-y for y in bd]), E),
            _monic_mod(_padd(cross, [-y for y in ac]), E))


def _xstep(xp: tuple, E: list) -> tuple:
    """x (a + b x) = -s b + (a + b) x, s b mod E by ``_mulx_mod``."""
    a, b = xp
    b = b + [0] * (len(E) - 1 - len(b))
    return [-c for c in _mulx_mod(b, E)], _padd(a, b)


def _uzs(p: int, E: list) -> Iterator[tuple[list, list]]:
    """2a + b and b of x^q = a + b x for q = p, p + 1, ..., whose norms are
    u_q and z_q of ``Knot.betas``: a jump to x^(p-1), then the linear step."""
    xp = _power(([], [1]), p - 1, lambda u, v: _xmul(u, v, E), ([1], []))
    while True:
        a, b = xp = _xstep(xp, E)
        yield _padd(a, a, b), b


def _norm(f: list, E: list) -> int:
    """The signed norm of f in Z[s]/E: det of multiplication by f, one
    g x g integer Bareiss."""
    return _bareiss(_mul_rows(_monic_mod(f, E), E))


def _padd(*polys: list) -> list:
    """The sum of ascending coefficient lists of any lengths."""
    return [sum(cs) for cs in zip_longest(*polys, fillvalue=0)]


def _simplest_tangent(lo: "float | Fraction", hi: "float | Fraction") -> tuple[int, int]:
    """(a, b) for the simplest s = a/b > 0 with lo < u(s) < hi, where
    u(s) = 2 (b^2 - a^2)/(a^2 + b^2) = 2 cos(2 pi x) at s = tan(pi x) falls
    from 2 to -2: Stern-Brocot descent from 0/1 and 1/0, a run of steps one
    way (a partial quotient of s) taken in doubling strides.  lo and hi are
    exact rationals, compared with u(s) as cross products of integers."""
    if not lo < hi:  # circle_roots leaves floats between its brackets, so never in ``arcs``
        raise SingularEvaluation("an empty arc between circle roots of Delta")
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()

    def side(base, k, step):  # s = base + k step: -1 below the arc (u >= hi), 1 above, 0 on it
        a, b = base[0] + k * step[0], base[1] + k * step[1]
        u, w = 2 * (b * b - a * a), a * a + b * b  # u(s) = u / w, w > 0
        return -1 if u * hd >= hn * w else 1 if u * ld <= ln * w else 0

    below, above = (0, 1), (1, 0)
    while where := side(below, 1, above):
        base, step = (below, above) if where < 0 else (above, below)
        k = 1  # a stride of 2^j steps with base + k step still on that side
        while side(base, 2 * k, step) == where:
            k *= 2
        moved = (base[0] + k * step[0], base[1] + k * step[1])
        below, above = (moved, above) if where < 0 else (below, moved)
    return below[0] + above[0], below[1] + above[1]


def _arc_signature(A: list[list[int]], a: int, b: int) -> int:
    """The signature of (1 - conj(w)) A + (1 - w) A^T at w = e^(2 pi i x),
    0 < x <= 1/2, tan(pi x) = a/b (b = 0 at w = -1), from its positive
    multiple H = a S + i b K, S = A + A^T, K = A - A^T: ``_inertia`` of S at
    w = -1, else half that of H's real form R, each entry p + iq a 2 x 2
    block [[p, -q], [q, p]], since R is unitarily similar to H + conj(H)
    and conj(H) = H^T has the inertia of H.  ArithmeticError if H is
    singular.  This row order eliminates a quarter to a third faster than
    the block order [[a S, -b K], [b K, a S]] on torus knots of genus 21-36."""
    H = [[(a * (x + y), b * (x - y)) for x, y in zip(row, col)] for row, col in zip(A, zip(*A))]
    if b:
        M = [row for h in H for row in ([v for p, q in h for v in (p, -q)],
                                         [v for p, q in h for v in (q, p)])]
    else:
        M = [[p for p, _ in h] for h in H]
    plus, minus, zero = _inertia(M)
    if zero:
        raise ArithmeticError("the Seifert form is singular on an arc between circle roots")
    return (plus - minus) // (2 if b else 1)


KnotLike = Knot | Sequence[Sequence[int]]


def alexander(A: KnotLike) -> LaurentPoly:
    """Symmetrized Alexander polynomial t^-g det(A - t A^T); det(A - A^T) = 1
    makes it bar-symmetric with value 1 at t = 1, no unit fixing needed.
    The determinant of the Seifert pencil (see ``Knot.delta``); the clover
    form's determinant ``normalized_determinant``, by the same kernel on
    another matrix, is the oracle route."""
    return Knot.of(A).delta


def clover_matrix(A: KnotLike) -> LambdaMatrix:
    """Hermitian clover form of a banded-basis Seifert matrix, as its
    coefficient matrices: with L the blocks of A and Lyx = Ayx + I,
    C_0 = [[Axx, Axy - I], [Ayx, 2 Ayy]], C_1 = [[0, 0], [-Lyx, -Ayy]] and
    C_-1 = C_1^T = [[0, -Axy], [0, -Ayy]].

    Raises NotHermitian when A is valid but not in the banded basis
    (the construction needs Axy^T = Ayx + I and symmetric diagonal
    blocks).
    """
    return Knot.of(A).clover


def congruence_identity_check(A: KnotLike) -> bool:
    """Exact check that P W P-bar^T equals (1 - t^-1) A + (1 - t) A^T for
    the clover form W of A and P = diag((1 - t) I, I), all three built as
    coefficient matrices and multiplied over the integers."""
    knot = Knot.of(A)
    A, g = knot.seifert, knot.genus
    n = 2 * g
    P = LambdaMatrix.from_coeffs({0: [[int(i == j) for j in range(n)] for i in range(n)],
                                  1: [[-int(i == j < g) for j in range(n)] for i in range(n)]}, n)
    At = [list(col) for col in zip(*A)]
    rhs = LambdaMatrix.from_coeffs({-1: [[-a for a in row] for row in A],
                                    0: [[a + b for a, b in zip(r, s)] for r, s in zip(A, At)],
                                    1: [[-a for a in row] for row in At]}, n)
    return P @ knot.clover @ P.bar_transpose() == rhs


def sigma_at_omega(A: KnotLike, omega: "complex | np.ndarray") -> "int | np.ndarray":
    """Signature of (1 - conj(w)) A + (1 - w) A^T at a unit-circle w != 1,
    the oracle of ``Knot.arcs``: an int for a scalar w, an int array for
    an array of w, all of whose forms go through one stacked eigensolve."""
    import numpy as np

    A = Knot.of(A).seifert
    M = np.array(A, dtype=float).reshape(len(A), len(A))
    w = np.asarray(omega, dtype=complex)[..., None, None]
    return complex_signature((1 - w.conj()) * M + (1 - w) * M.T)


def signature_function(A: KnotLike, k: int, p: int) -> int:
    """Equivariant signature at w = e^(2 pi i k / p), read off ``Knot.arcs``.

    Raises AtOne for k = 0 mod p (the form vanishes identically there)
    and SingularEvaluation at (or within rounding of) a root of Delta.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if k % p == 0:
        raise AtOne("signature function is excluded at w = 1")
    roots, sigs = Knot.of(A).arcs
    x = min(k % p, -k % p) / p
    j = bisect.bisect(roots, x, key=lambda bracket: bracket[0])
    if j and x <= roots[j - 1][1]:
        raise SingularEvaluation("k/p = %d/%d is within rounding of a root of Delta" % (k, p))
    return sigs[j]


def random_seifert(g: int, rng: random.Random) -> list[list[int]]:
    """Random valid banded-basis Seifert matrix of genus g.

    The skew part is pinned to the standard symplectic form by starting
    from the strictly-upper block [[0, I], [0, 0]] and adding a random
    symmetric integer matrix, so det(A - A^T) = 1 holds by construction
    and the clover form is Hermitian.
    """
    n = 2 * g
    S = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-_RANDOM_BOUND, _RANDOM_BOUND)
            S[i][j] = v
            S[j][i] = v
    for i in range(g):
        S[i][g + i] += 1
    return S


# ---------------------------------------------------------------------------
# knot records and the bundled corpus


class KnotRecord:
    """A named knot presented by a Seifert matrix, with an optional
    2-loop class used by the Casson-Walker computations.  The matrix is
    validated once, into ``knot``, which holds its normalized rows as
    ``knot.seifert``."""

    def __init__(self, name: str, seifert: list[list[int]],
                 q2loop: "ThetaClass | None" = None, provenance: str | None = None):
        self.name = name
        self.knot = Knot(seifert)
        self.q2loop = q2loop
        self.provenance = provenance

    def to_json(self) -> dict:
        obj: dict = {"name": self.name, "seifert": self.knot.seifert}
        if self.q2loop is not None:
            obj["q2loop"] = self.q2loop.to_json()
        if self.provenance is not None:
            obj["provenance"] = self.provenance
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "KnotRecord":
        keys = ("name", "seifert", "q2loop", "provenance")
        q = _json_object(obj, "a knot record", keys, required=("name", "seifert")).get("q2loop")
        return cls(
            name=str(obj["name"]),
            seifert=obj["seifert"],
            q2loop=ThetaClass.from_json(q) if q is not None else None,
            provenance=obj.get("provenance"),
        )


def _corpus_json() -> list[dict]:
    """The raw JSON of every bundled record, standard knots first."""
    pkg = resources.files(__package__) / "corpus"
    out = []
    for entry in sorted(pkg.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            data = json.loads(entry.read_text(encoding="utf-8"))
            out.extend(data if isinstance(data, list) else [data])
    order = {"unknot": 0, "trefoil": 1, "figure8": 2}
    out.sort(key=lambda r: (order.get(r["name"], 10), r["name"]))
    return out


def corpus_records() -> list[KnotRecord]:
    """All knot records bundled with the package, standard knots first."""
    return [KnotRecord.from_json(r) for r in _corpus_json()]


def corpus_record(name: str) -> KnotRecord:
    """The bundled record called ``name``; only that one is validated."""
    objs = {obj["name"]: obj for obj in _corpus_json()}
    if name not in objs:
        raise ValueError("unknown corpus knot %r (have: %s)" % (name, ", ".join(objs)))
    return KnotRecord.from_json(objs[name])
