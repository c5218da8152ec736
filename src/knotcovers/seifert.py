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
  removable but excluded point (AtOne).
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
``Knot.beta(p)`` reads |H_1| of the p-fold branched cover off Seifert's
integer presentation Gamma^p - (Gamma - I)^p, as the norm of
x^p - (x - 1)^p in Z[x]/chi: the same chi as Delta, and no matrix power;
the matrix-power determinant is its oracle in the tests.

Knot records (name + Seifert matrix + optional 2-loop class) are the JSON
interchange format; a small bundled corpus ships with the package.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from importlib import resources
from typing import Sequence

import numpy as np

from .exactalg import LaurentPoly, _charpoly, _mat_mul, _mulx_mod, _powmod, _squarefree_parts
from .lambdamat import (
    AtOne,
    LambdaMatrix,
    NotHermitian,
    SingularEvaluation,
    _bareiss,
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
    ``gamma``, its characteristic polynomial ``charpoly`` (shared by
    ``delta`` and ``beta``), the Alexander polynomial ``delta``, the clover
    form ``clover``, the ``signature_average`` and the last p with its
    residue pair behind ``beta(p)``.  Functions taking a matrix coerce it
    with ``Knot.of``."""

    def __init__(self, A: Sequence[Sequence[int]]):
        self.seifert = validate_seifert(A)
        self._float = np.array(self.seifert, dtype=float).reshape(2 * self.genus, 2 * self.genus)
        # (p, x^p mod chi, (x - 1)^p mod chi, beta_p), residues as 2g ints
        self._ladder: tuple | None = None

    @classmethod
    def of(cls, A: "KnotLike") -> "Knot":
        return A if isinstance(A, Knot) else cls(A)

    @property
    def genus(self) -> int:
        return len(self.seifert) // 2

    @cached_property
    def charpoly(self) -> list[int]:
        """chi = det(xI - Gamma), monic, ascending integer coefficients; the
        one characteristic polynomial behind both ``delta`` and ``beta``."""
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
    def signature_average(self) -> float:
        """Average of the signature function over the unit circle.

        The function is constant on each arc between consecutive distinct
        roots of Delta (and vanishes on the arcs adjacent to 1), so the
        integral is exact-by-structure: evaluate at one midpoint per arc, all
        in one stacked call, and weight by arc length over 2 pi.  Root
        locations are numeric."""
        angles = _unit_circle_root_angles(self.delta)
        if not angles:
            return 0.0
        bounds = [0.0] + angles + [2.0 * math.pi]
        arcs = list(zip(bounds, bounds[1:]))
        sigs = sigma_at_omega(self, np.exp(1j * np.array([(lo + hi) / 2.0 for lo, hi in arcs])))
        return sum(int(s) * (hi - lo) for s, (lo, hi) in zip(sigs, arcs)) / (2.0 * math.pi)

    def beta(self, p: int) -> int:
        """|det(Gamma^p - (Gamma - I)^p)|, the order of H_1 of the p-fold
        branched cover (Seifert 1935; Rolfsen, *Knots and Links*, ch. 8), in
        any basis; 0 exactly when p is irregular.

        Computed in Z[x]/chi, chi = ``charpoly``: by Cayley-Hamilton
        r_p = x^p - (x - 1)^p mod chi has r_p(Gamma) = Gamma^p - (Gamma - I)^p,
        so beta_p = |prod r_p(lambda_i)| is |det| of multiplication by r_p,
        one integer Bareiss on the 2g rows x^i r_p mod chi.  The last p, its
        residues x^p, (x - 1)^p mod chi and beta_p are kept: p + 1 costs one
        shift and reduction of each, and any other p starts again from 1 by
        square and multiply mod chi."""
        if p < 1:
            raise ValueError("p must be a positive integer")
        if not self.genus:
            return 1
        chi = self.charpoly
        n = len(chi) - 1
        last = self._ladder
        if last and last[0] == p:
            return last[3]
        if last and last[0] == p - 1:
            xq, hq = _mulx_mod(last[1], chi), _mulx_mod(last[2], chi)
            hq = [a - b for a, b in zip(hq, last[2])]
        else:
            xq, hq = (_powmod(base, p, chi) for base in ([0, 1], [-1, 1]))
            xq, hq = xq + [0] * (n - len(xq)), hq + [0] * (n - len(hq))
        rows = [[a - b for a, b in zip(xq, hq)]]
        while len(rows) < n:
            rows.append(_mulx_mod(rows[-1], chi))
        beta = abs(_bareiss(rows))
        self._ladder = (p, xq, hq, beta)
        return beta


KnotLike = Knot | Sequence[Sequence[int]]

# a root of the square-free part of Delta this close to |t| = 1 is on it
_ON_CIRCLE = 1e-8


def _unit_circle_root_angles(delta: LaurentPoly) -> list[float]:
    """Sorted angles in (0, 2 pi) of the distinct unit-circle roots of
    delta (numeric, on its square-free part; delta(1) = 1 excludes 0)."""
    return sorted(
        math.atan2(z.imag, z.real) % (2.0 * math.pi)
        for part in _squarefree_parts(delta)[:1]
        for z in np.roots([float(c) for c in reversed(part)])
        if abs(abs(z) - 1.0) < _ON_CIRCLE
    )


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
    """Signature of (1 - conj(w)) A + (1 - w) A^T at a unit-circle w != 1:
    an int for a scalar w, an int array for an array of w, all of whose
    forms go through one stacked eigensolve."""
    M = Knot.of(A)._float
    w = np.asarray(omega, dtype=complex)[..., None, None]
    return complex_signature((1 - w.conj()) * M + (1 - w) * M.T)


def signature_function(A: KnotLike, k: int, p: int) -> int:
    """Equivariant signature at w = e^(2 pi i k / p).

    Raises AtOne for k = 0 mod p (the form vanishes identically there)
    and SingularEvaluation at roots of the Alexander polynomial.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if k % p == 0:
        raise AtOne("signature function is excluded at w = 1")
    return sigma_at_omega(A, cmath.exp(2j * cmath.pi * (k % p) / p))


def random_seifert(g: int, rng: random.Random, bound: int = 3) -> list[list[int]]:
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
            v = rng.randint(-bound, bound)
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
