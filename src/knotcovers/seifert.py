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
  bar-symmetric and takes the value 1 at t = 1; ``Knot.delta`` reads it
  off the characteristic polynomial of Seifert's integer matrix Gamma.
* ``signature_function(A, k, p)`` is the signature of
  (1 - conj(w)) A + (1 - w) A^T at w = e^(2 pi i k / p); w = 1 is a
  removable but excluded point (AtOne).  It, sigma_p and the signature
  average are read off one table of exact inertias per knot, ``Knot.arcs``;
  the float eigensolve ``sigma_at_omega`` is an oracle only.
* ``clover_matrix(A)`` is the 2g x 2g Hermitian Lambda-matrix
  [[Lxx, (1 - t^-1) Lxy - I], [(1 - t) Lyx - I, (2 - t - t^-1) Lyy]]
  built from the block decomposition L of A with Lyx = Ayx + I.
  ``congruence_identity_check`` verifies, exactly, that conjugating the
  clover form by diag((1 - t) I, I) recovers
  (1 - t^-1) A + (1 - t) A^T, which is why the clover form computes both
  the Alexander polynomial and the signature function.

Each function above takes a raw matrix or a ``Knot``, which validates it
once and derives Gamma, its characteristic polynomial chi, Delta and the
clover form once, Gamma, chi and Delta by integer arithmetic alone.
``Knot.beta(p)``, |H_1| of the p-fold branched cover, is |det| of Seifert's
presentation Gamma^p - (Gamma - I)^p, read as a square of a norm in Z[s]/E,
E of degree g from Delta; its oracles in the tests are the matrix powers,
the norm in Z[x]/chi and the resultant.

Knot records (name + Seifert matrix + optional 2-loop class) are the JSON
interchange format; a small bundled corpus ships with the package.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from importlib import resources
from itertools import zip_longest
from typing import Sequence

import numpy as np

from .exactalg import (LaurentPoly, _charpoly, _mat_mul, _mul_rows, _poly_divmod, _poly_mul,
                       _power, _trace_poly, circle_roots)
from .lambdamat import (
    AtOne,
    LambdaMatrix,
    NotHermitian,
    SingularEvaluation,
    _bareiss,
    _GaussInt,
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
    "KnotLike",
    "alexander",
    "clover_matrix",
    "congruence_identity_check",
    "signature_function",
    "sigma_at_omega",
    "random_seifert",
    "KnotRecord",
    "corpus_records",
    "corpus_record",
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
    read from it, each derived on first use and kept: the integer matrix
    ``gamma``, its characteristic polynomial ``charpoly``, the Alexander
    polynomial ``delta`` and its ``half_charpoly`` behind ``beta``, the clover
    form ``clover``, the signature function's table ``arcs`` (or its
    refusal) and the last p with its residue pair behind ``beta(p)``.
    Functions taking a matrix coerce it with ``Knot.of``."""

    def __init__(self, A: Sequence[Sequence[int]]):
        self.seifert = validate_seifert(A)
        # (p, x^p as its two residues a, b mod E, beta_p), and beta_2 once known
        self._ladder: tuple | None = None
        self._beta2 = 0
        self._arcs_refusal: SingularEvaluation | None = None

    @classmethod
    def of(cls, A: "KnotLike") -> "Knot":
        return A if isinstance(A, Knot) else cls(A)

    @property
    def genus(self) -> int:
        return len(self.seifert) // 2

    @cached_property
    def charpoly(self) -> list[int]:
        """chi = det(xI - Gamma), monic, ascending integer coefficients; the
        one characteristic polynomial, behind ``delta`` and so ``beta``."""
        return _charpoly(self.gamma)

    @cached_property
    def delta(self) -> LaurentPoly:
        """t^-g det(A - t A^T); see ``alexander``.  A - t A^T equals
        ((1 - t) Gamma + t I) S with det S = 1, so for chi = det(xI - Gamma)
        it is t^-g sum_k chi_k t^k (t - 1)^(2g - k)."""
        chi = self.charpoly
        n = len(chi) - 1
        coeffs = [(-1) ** (n - e) * sum(chi[k] * math.comb(n - k, e - k) for k in range(e + 1))
                  for e in range(n + 1)]
        d = LaurentPoly.from_coeffs(coeffs, -self.genus)
        if d.eval_one() != 1 or not d.is_bar_symmetric:
            raise ArithmeticError("t^-g det(A - t A^T) must be bar-symmetric with value 1 at t = 1")
        return d

    @cached_property
    def clover(self) -> LambdaMatrix:
        """The Hermitian clover form; see ``clover_matrix``."""
        A = self.seifert
        g = self.genus
        t = LaurentPoly.t()
        ti = t ** -1
        one = LaurentPoly.one()
        lxx = [[LaurentPoly.const(A[i][j]) for j in range(g)] for i in range(g)]
        lxy = [[A[i][g + j] for j in range(g)] for i in range(g)]
        lyx = [[A[g + i][j] + (1 if i == j else 0) for j in range(g)] for i in range(g)]
        lyy = [[A[g + i][g + j] for j in range(g)] for i in range(g)]
        rows = []
        for i in range(g):
            row = list(lxx[i])
            for j in range(g):
                e = (one - ti) * lxy[i][j]
                if i == j:
                    e = e - one
                row.append(e)
            rows.append(row)
        for i in range(g):
            row = []
            for j in range(g):
                e = (one - t) * lyx[i][j]
                if i == j:
                    e = e - one
                row.append(e)
            for j in range(g):
                row.append((2 - t - ti) * lyy[i][j])
            rows.append(row)
        W = LambdaMatrix(rows)
        if not W.is_hermitian:
            raise NotHermitian(
                "Seifert matrix is not in a banded surface basis; clover form degenerates"
            )
        if abs(rational_det(W.eval_at_one())) != 1:
            raise ArithmeticError("clover form must be unimodular at 1")
        return W

    @cached_property
    def gamma(self) -> list[list[int]]:
        """Seifert's Gamma = A S^-1 with S = A - A^T, by fraction-free
        Gauss-Jordan on the integer block [S | I]; every division by the
        previous pivot is exact, and it ends at [d I | d S^-1], d = +-det S."""
        A = self.seifert
        n = len(A)
        M = [[A[i][j] - A[j][i] for j in range(n)] + [int(i == j) for j in range(n)]
             for i in range(n)]
        d = 1
        for k in range(n):
            piv = next(i for i in range(k, n) if M[i][k])
            M[k], M[piv] = M[piv], M[k]
            prow, pk = M[k], M[k][k]
            M = [prow if i == k else [(pk * x - r[k] * y) // d for x, y in zip(r, prow)]
                 for i, r in enumerate(M)]
            d = pk
        if abs(d) != 1:
            raise ArithmeticError("(A - A^T)^-1 must be integral when det(A - A^T) = 1")
        return _mat_mul(A, [[d * x for x in row[n:]] for row in M])

    @cached_property
    def arcs(self) -> tuple[list[tuple[float, float]], list[int]]:
        """The signature function, constant between the circle roots of Delta
        and symmetric under k/p -> 1 - k/p: the roots in (0, 1/2) as brackets
        (lo, hi) of turns, ascending (``circle_roots``, mapped by
        acos(u/2)/2 pi and widened past the rounding of that map, of k/p and
        of p x), and its exact value on each arc from 0 to 1/2 between them,
        ``_arc_signature`` at the arc's ``_simplest_tangent`` (w = -1 on the
        last).  Built once: a SingularEvaluation refusing it is kept and
        raised on every read."""
        if self._arcs_refusal is not None:
            raise SingularEvaluation(*self._arcs_refusal.args)
        try:
            brackets = circle_roots(self.delta)[::-1]  # descending in u, so ascending in turns
            # arc j < len(brackets) lies in u above bracket j, below bracket j - 1 (or u = 2)
            points = [_simplest_tangent(Fraction(lo), Fraction(hi)) for lo, hi in
                      zip([b for _, b in brackets], [2.0] + [a for a, _ in brackets])]
        except SingularEvaluation as refusal:
            self._arcs_refusal = refusal
            raise
        roots = [(math.acos(b / 2) / (2 * math.pi) * (1 - _TURN_SLACK),
                  math.acos(a / 2) / (2 * math.pi) * (1 + _TURN_SLACK)) for a, b in brackets]
        return roots, [_arc_signature(self.seifert, a, b) for a, b in points + [(1, 0)]]

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
        p and k when a k/p falls in a bracket."""
        roots, sigs = self.arcs
        below = []
        for lo, hi in roots:
            k = math.ceil(p * lo)
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
        roots s = lambda (1 - lambda) over Gamma's eigenvalue pairs lambda, 1 - lambda."""
        g = self.genus
        E = [(-1) ** (g - i) * sum(d * math.comb(k, i + k - g) << i + k - g
                                   for k, d in enumerate(_trace_poly(self.delta)) if i + k >= g)
             for i in range(g + 1)]
        if E[-1] != 1:
            raise ArithmeticError("s^g D(2 - 1/s) must be monic, for D(2) = Delta(1) = 1")
        return E

    def beta(self, p: int) -> int:
        """|det(Gamma^p - (Gamma - I)^p)|, the order of H_1 of the p-fold
        branched cover (Seifert 1935; Rolfsen, *Knots and Links*, ch. 8), in
        any basis; 0 exactly when p is irregular.

        A square, or beta_2 times one (Plans 1953), from the norm N of Z[s]/E,
        E = ``half_charpoly``: x^p = a + b x in (Z[s]/E)[x]/(x^2 - x + s),
        whose x is lambda or 1 - lambda over each root s, so x^p - (x - 1)^p
        is 2a + b for odd p and b (2x - 1) for even p, (2x - 1)^2 = 1 - 4s:
        beta_p = N(2a + b)^2 or beta_2 N(b)^2, beta_2 = |N(1 - 4s)| per knot.
        The last p, x^p and beta_p are kept: p + 1 and p + 2 cost one
        multiplication by x or x^2, any other p a square and multiply."""
        if p < 1:
            raise ValueError("p must be a positive integer")
        if not self.genus:
            return 1
        E, last = self.half_charpoly, self._ladder
        steps = {1: ([], [1]), 2: ([0, -1], [1])}  # x and x^2 = x - s

        def mul(u, v):  # (ac - s bd) + ((a + b)(c + d) - ac) x
            (a, b), (c, d) = u, v
            ac, bd = _poly_mul(a, c), _poly_mul(b, d)
            cross = _poly_mul(_padd(a, b), _padd(c, d))
            return (_poly_divmod(_padd(ac, [0] + [-y for y in bd]), E)[1],
                    _poly_divmod(_padd(cross, [-y for y in ac]), E)[1])

        def norm(f):  # |det| of multiplication by f on Z[s]/E, one g x g Bareiss
            return abs(_bareiss(_mul_rows(_poly_divmod(f, E)[1], E)))

        if last and last[0] == p:
            return last[2]
        if last and p - last[0] in steps:
            xp = mul(last[1], steps[p - last[0]])
        else:
            xp = _power(steps[1], p, mul, ([1], []))
        a, b = xp
        if p % 2:
            beta = norm(_padd(a, a, b)) ** 2
        else:
            self._beta2 = self._beta2 or norm([1, -4])  # odd, so never 0
            beta = self._beta2 * norm(b) ** 2
        self._ladder = (p, xp, beta)
        return beta


def _padd(*polys: list) -> list:
    """The sum of ascending coefficient lists of any lengths."""
    return [sum(cs) for cs in zip_longest(*polys, fillvalue=0)]


def _simplest_tangent(lo: Fraction, hi: Fraction) -> tuple[int, int]:
    """(a, b) for the simplest s = a/b > 0 with lo < u(s) < hi, where
    u(s) = 2 (b^2 - a^2)/(a^2 + b^2) = 2 cos(2 pi x) at s = tan(pi x) falls
    from 2 to -2: Stern-Brocot descent from 0/1 and 1/0, a run of steps one
    way (a partial quotient of s) taken in doubling strides."""
    if not lo < hi:  # only next to u = 2: circle_roots leaves floats between its brackets
        raise SingularEvaluation("a circle root of Delta too close to t = 1 for floats to separate")

    def side(base, k, step):  # s = base + k step: -1 below the arc (u >= hi), 1 above, 0 on it
        a, b = base[0] + k * step[0], base[1] + k * step[1]
        u = Fraction(2 * (b * b - a * a), a * a + b * b)
        return -1 if u >= hi else 1 if u <= lo else 0

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
    0 < x <= 1/2, tan(pi x) = a/b (b = 0 at w = -1): ``_inertia`` of its
    positive multiple a (A + A^T) + i b (A - A^T), a Hermitian matrix of
    Gaussian integers.  ArithmeticError if that is singular."""
    M = [[_GaussInt(a * (x + y), b * (x - y)) if b else a * (x + y) for x, y in zip(row, col)]
         for row, col in zip(A, zip(*A))]
    plus, minus, zero = _inertia(M)
    if zero:
        raise ArithmeticError("the Seifert form is singular on an arc between circle roots")
    return plus - minus


KnotLike = Knot | Sequence[Sequence[int]]


def alexander(A: KnotLike) -> LaurentPoly:
    """Symmetrized Alexander polynomial t^-g det(A - t A^T); det(A - A^T) = 1
    makes it bar-symmetric with value 1 at t = 1, no unit fixing needed.
    Derived from ``Knot.gamma`` (see ``Knot.delta``); the clover form's
    Bareiss determinant ``normalized_determinant`` is the oracle route."""
    return Knot.of(A).delta


def clover_matrix(A: KnotLike) -> LambdaMatrix:
    """Hermitian clover form of a banded-basis Seifert matrix.

    Raises NotHermitian when A is valid but not in the banded basis
    (the construction needs Axy^T = Ayx + I and symmetric diagonal
    blocks).
    """
    return Knot.of(A).clover


def congruence_identity_check(A: KnotLike) -> bool:
    """Exact check that diag((1-t) I, I) W diag((1-t^-1) I, I) equals
    (1 - t^-1) A + (1 - t) A^T for the clover form W of A."""
    knot = Knot.of(A)
    A = knot.seifert
    n = len(A)
    g = knot.genus
    W = knot.clover
    t = LaurentPoly.t()
    ti = t ** -1
    one = LaurentPoly.one()
    zero = LaurentPoly.zero()
    P = LambdaMatrix(
        [
            [(one - t if i < g else one) if i == j else zero for j in range(n)]
            for i in range(n)
        ]
    )
    lhs = P @ W @ P.bar_transpose()
    rhs = LambdaMatrix(
        [
            [(one - ti) * A[i][j] + (one - t) * A[j][i] for j in range(n)]
            for i in range(n)
        ]
    )
    return lhs == rhs


def sigma_at_omega(A: KnotLike, omega: "complex | np.ndarray") -> "int | np.ndarray":
    """Signature of (1 - conj(w)) A + (1 - w) A^T at a unit-circle w != 1,
    the oracle of ``Knot.arcs``: an int for a scalar w, an int array for
    an array of w, all of whose forms go through one stacked eigensolve."""
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
    j = bisect.bisect([lo for lo, _ in roots], x)
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


@dataclass
class KnotRecord:
    """A named knot presented by a Seifert matrix, with an optional
    2-loop class used by the Casson-Walker computations.  The matrix is
    validated once, into ``knot``, whose normalized rows ``seifert`` then
    holds."""

    name: str
    seifert: list[list[int]]
    q2loop: "ThetaClass | None" = None
    provenance: str | None = None
    knot: Knot = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.knot = Knot(self.seifert)
        self.seifert = self.knot.seifert

    def to_json(self) -> dict:
        obj: dict = {"name": self.name, "seifert": self.seifert}
        if self.q2loop is not None:
            obj["q2loop"] = self.q2loop.to_json()
        if self.provenance is not None:
            obj["provenance"] = self.provenance
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "KnotRecord":
        q = obj.get("q2loop")
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
