"""Hermitian matrices over the Laurent ring and their signatures.

A Lambda-matrix is a square matrix W(t) of Laurent polynomials.  W is
Hermitian when conjugate-transposition with respect to the bar involution
t -> t^-1 fixes it; then W(w) is an ordinary Hermitian complex matrix for
every w on the unit circle, and W(1) is rational symmetric.

The two substitutions that drive branched-cover computations both replace
t by a p-th root of the identity in matrix form:

* ``cycle_matrix(p)`` -- the permutation matrix T with ones on the
  superdiagonal and in the lower-left corner; T^p = I, and T^-1 = T^T.
  ``subst_cycle(W, p)`` yields an np x np rational symmetric matrix.
* ``twisted_cycle_matrix(p)`` -- the same shape but with t in the corner;
  (T_t)^p = t I and the inverse is the bar-conjugate transpose.
  ``subst_twisted(W, p)`` stays a Hermitian Lambda-matrix.

Signatures of rational symmetric matrices are computed exactly by
congruence (diagonalization with symmetric pivoting and hyperbolic 2x2
blocks), so every signature here is an honest integer.  Evaluation at
points of the unit circle other than +-1 is a numeric path: W(z) comes
from a float coefficient tensor, and ``complex_signature`` counts
eigenvalue signs above a fixed floor ``_EIG_FLOOR`` for one matrix or a
stack of them in one numpy eigensolve.  The production
``branched.total_sigma_p`` sums such signatures in stacks of roots, and
the exact cycle substitution ``varsigma_p`` is its oracle.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactalg import LaurentPoly, SingularAtOne

__all__ = [
    "NotHermitian",
    "SingularEvaluation",
    "AtOne",
    "SymRatMatrix",
    "LambdaMatrix",
    "signature_exact",
    "rational_det",
    "cycle_matrix",
    "twisted_cycle_matrix",
    "subst_cycle",
    "subst_twisted",
    "normalized_determinant",
    "varsigma_at",
    "varsigma_p",
    "complex_signature",
]


_EIG_FLOOR = 1e-9  # |eigenvalue| at or below this counts as zero: the form is singular


class NotHermitian(ValueError):
    """The matrix is not fixed by bar-conjugate transposition."""


class SingularEvaluation(ValueError):
    """A signature was requested at a point where the form degenerates."""


class AtOne(ValueError):
    """Evaluation at t = 1 was requested where it is excluded."""


# ---------------------------------------------------------------------------
# exact rational symmetric matrices


def rational_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a rational matrix by fraction-free Bareiss elimination.

    Integer inputs stay integer throughout (the one-step divisions are
    exact), which keeps the large block determinants fast.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    allint = all(
        (isinstance(x, int) or (isinstance(x, Fraction) and x.denominator == 1))
        for row in rows
        for x in row
    )
    if allint:
        M = [[int(x) for x in row] for row in rows]
        prev = 1
        sign = 1
        for k in range(n - 1):
            if M[k][k] == 0:
                for i in range(k + 1, n):
                    if M[i][k] != 0:
                        M[k], M[i] = M[i], M[k]
                        sign = -sign
                        break
                else:
                    return Fraction(0)
            pk = M[k][k]
            for i in range(k + 1, n):
                mik = M[i][k]
                row_i = M[i]
                row_k = M[k]
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] * pk - mik * row_k[j]) // prev
            prev = pk
        return Fraction(sign * M[n - 1][n - 1])
    M = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    sign = 1
    for k in range(n):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pk = M[k][k]
        det *= pk
        for i in range(k + 1, n):
            f = M[i][k] / pk
            if f:
                for j in range(k, n):
                    M[i][j] -= f * M[k][j]
    return sign * det


class SymRatMatrix:
    """Symmetric matrix over Q; rows are tuples of Fractions."""

    __slots__ = ("n", "entries")

    def __init__(self, rows: Sequence[Sequence[Fraction]]):
        n = len(rows)
        ent = tuple(tuple(Fraction(x) for x in row) for row in rows)
        for row in ent:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(i):
                if ent[i][j] != ent[j][i]:
                    raise ValueError("matrix must be symmetric")
        self.n = n
        self.entries = ent

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymRatMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return "SymRatMatrix(%r)" % [[str(x) for x in row] for row in self.entries]


def signature_exact(S: "SymRatMatrix | Sequence[Sequence[Fraction]]") -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a rational symmetric matrix.

    Congruence diagonalization over Q: nonzero diagonal entries are used
    as 1x1 pivots (Schur complement update); when the active diagonal is
    all zero but some off-diagonal entry b survives, the hyperbolic block
    [[0, b], [b, d]] has determinant -b^2 < 0 and contributes one plus and
    one minus.  Congruence preserves inertia, so the count is exact.
    """
    if isinstance(S, SymRatMatrix):
        rows = S.entries
    else:
        rows = S
    n = len(rows)
    M = [[Fraction(x) for x in row] for row in rows]
    for i in range(n):
        for j in range(i):
            if M[i][j] != M[j][i]:
                raise ValueError("signature_exact needs a symmetric matrix")
    plus = minus = zero = 0
    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if M[i][i] != 0), None)
        if piv is not None:
            _sym_swap(M, k, piv)
            d = M[k][k]
            if d > 0:
                plus += 1
            else:
                minus += 1
            col = [M[i][k] for i in range(k + 1, n)]
            for i in range(k + 1, n):
                ci = col[i - k - 1]
                if not ci:
                    continue
                for j in range(i, n):
                    upd = M[i][j] - ci * col[j - k - 1] / d
                    M[i][j] = upd
                    M[j][i] = upd
            for i in range(k + 1, n):
                M[i][k] = M[k][i] = Fraction(0)
            k += 1
            continue
        off = None
        for i in range(k, n):
            for j in range(i + 1, n):
                if M[i][j] != 0:
                    off = (i, j)
                    break
            if off:
                break
        if off is None:
            zero += n - k
            break
        i, j = off
        # k <= i < j, so after moving row/col i to k the witness sits at
        # (k, j) with j >= k + 1, and the second swap parks it at (k, k+1)
        _sym_swap(M, k, i)
        _sym_swap(M, k + 1, j)
        b = M[k][k + 1]
        d = M[k + 1][k + 1]
        if M[k][k] != 0 or b == 0:
            raise ArithmeticError("hyperbolic pivot must be [[0, b], [b, d]] with b != 0")
        plus += 1
        minus += 1
        us = [M[i2][k] for i2 in range(k + 2, n)]
        vs = [M[i2][k + 1] for i2 in range(k + 2, n)]
        for a in range(k + 2, n):
            ua, va = us[a - k - 2], vs[a - k - 2]
            for bcol in range(a, n):
                ub, vb = us[bcol - k - 2], vs[bcol - k - 2]
                upd = M[a][bcol] - (va * ub + ua * vb) / b + d * ua * ub / (b * b)
                M[a][bcol] = upd
                M[bcol][a] = upd
        for a in range(k + 2, n):
            M[a][k] = M[k][a] = Fraction(0)
            M[a][k + 1] = M[k + 1][a] = Fraction(0)
        k += 2
    if plus + minus + zero != n:
        raise ArithmeticError("inertia must count every dimension once")
    return plus, minus, zero


def _sym_swap(M, a, b):
    if a == b:
        return
    M[a], M[b] = M[b], M[a]
    for row in M:
        row[a], row[b] = row[b], row[a]


# ---------------------------------------------------------------------------
# Lambda-matrices


class LambdaMatrix:
    """Square matrix of Laurent polynomials; keeps, once computed, whether
    it is Hermitian, sigma(W(+-1)) and its float coefficient tensor."""

    __slots__ = ("n", "entries", "_hermitian", "_sigma_exact", "_float_coeffs")

    def __init__(self, rows: Sequence[Sequence]):
        ent = []
        for row in rows:
            out = []
            for x in row:
                if not isinstance(x, LaurentPoly):
                    x = LaurentPoly.const(x)
                out.append(x)
            ent.append(tuple(out))
        n = len(ent)
        for row in ent:
            if len(row) != n:
                raise ValueError("matrix must be square")
        self.n = n
        self.entries = tuple(ent)
        self._hermitian: bool | None = None
        self._sigma_exact: dict[int, int | None] = {}  # w = +-1 -> sigma(W(w)), None if singular
        self._float_coeffs: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def identity(cls, n: int) -> "LambdaMatrix":
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __add__(self, other: "LambdaMatrix") -> "LambdaMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return LambdaMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.n)]
                for i in range(self.n)
            ]
        )

    def __sub__(self, other: "LambdaMatrix") -> "LambdaMatrix":
        return self + (other * LaurentPoly.const(-1))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return LambdaMatrix([[e * other for e in row] for row in self.entries])
        return NotImplemented

    __rmul__ = __mul__

    def __matmul__(self, other: "LambdaMatrix") -> "LambdaMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        n = self.n
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = LaurentPoly.zero()
                for k in range(n):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.is_zero or b.is_zero:
                        continue
                    acc = acc + a * b
                row.append(acc)
            rows.append(row)
        return LambdaMatrix(rows)

    def __pow__(self, m: int) -> "LambdaMatrix":
        if m < 0:
            raise ValueError("negative matrix power not supported")
        out = LambdaMatrix.identity(self.n)
        base = self
        while m:
            if m & 1:
                out = out @ base
            base = base @ base
            m >>= 1
        return out

    def bar_transpose(self) -> "LambdaMatrix":
        return LambdaMatrix(
            [[self.entries[j][i].bar() for j in range(self.n)] for i in range(self.n)]
        )

    @property
    def is_hermitian(self) -> bool:
        if self._hermitian is None:
            E, n = self.entries, self.n
            self._hermitian = all(E[i][j] == E[j][i].bar() for i in range(n) for j in range(n))
        return self._hermitian

    def det(self) -> LaurentPoly:
        """Exact determinant via fraction-free Bareiss over the Laurent ring."""
        n = self.n
        if n == 0:
            return LaurentPoly.one()
        M = [list(row) for row in self.entries]
        sign = 1
        prev = LaurentPoly.one()
        for k in range(n - 1):
            if M[k][k].is_zero:
                for i in range(k + 1, n):
                    if not M[i][k].is_zero:
                        M[k], M[i] = M[i], M[k]
                        sign = -sign
                        break
                else:
                    return LaurentPoly.zero()
            pk = M[k][k]
            for i in range(k + 1, n):
                mik = M[i][k]
                for j in range(k + 1, n):
                    num = M[i][j] * pk - mik * M[k][j]
                    M[i][j] = num.divexact(prev) if not num.is_zero else LaurentPoly.zero()
            prev = pk
        d = M[n - 1][n - 1]
        return d if sign == 1 else -d

    def eval_at_one(self) -> list[list[Fraction]]:
        return [[e.eval_one() for e in row] for row in self.entries]

    def eval_complex(self, z: complex) -> np.ndarray:
        """W(z) = sum_e C_e z^e from the float tensor C[e, i, j], built once
        (stored with i, j flattened)."""
        if self._float_coeffs is None:
            exps = sorted({e for row in self.entries for x in row for e in x.coeffs})
            C = [[float(x.coeff(e)) for row in self.entries for x in row] for e in exps]
            self._float_coeffs = (np.array(exps, dtype=int), np.reshape(C, (len(exps), self.n**2)))
        exps, C = self._float_coeffs
        return (complex(z) ** exps @ C).reshape(self.n, self.n)

    def eval_unit(self, k: int, p: int) -> np.ndarray:
        return self.eval_complex(cmath.exp(2j * cmath.pi * (k % p) / p))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "entries": [[e.to_json() for e in row] for row in self.entries],
        }

    @classmethod
    def from_json(cls, obj) -> "LambdaMatrix":
        n = int(obj["n"])
        ent = obj["entries"]
        if len(ent) != n:
            raise ValueError("entry grid does not match n")
        return cls([[LaurentPoly.from_json(e) for e in row] for row in ent])

    def __repr__(self) -> str:
        return "LambdaMatrix(%r)" % [[str(e) for e in row] for row in self.entries]


def normalized_determinant(W: LambdaMatrix) -> LaurentPoly:
    """det(W) scaled so the value at t = 1 is 1 (raises SingularAtOne)."""
    d = W.det()
    d1 = d.eval_one()
    if d1 == 0:
        raise SingularAtOne("determinant vanishes at t = 1")
    return d * (1 / d1)


# ---------------------------------------------------------------------------
# cycle substitutions


def cycle_matrix(p: int) -> list[list[int]]:
    """The p-cycle permutation matrix: ones on the superdiagonal and in the
    lower-left corner.  Its p-th power is the identity."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    T = [[0] * p for _ in range(p)]
    for i in range(p - 1):
        T[i][i + 1] = 1
    T[p - 1][0] = 1
    return T


def twisted_cycle_matrix(p: int) -> LambdaMatrix:
    """Like cycle_matrix but the wrap-around entry is t, so the p-th power
    is t times the identity and the inverse is the bar-transpose."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    zero = LaurentPoly.zero()
    rows = [[zero] * p for _ in range(p)]
    for i in range(p - 1):
        rows[i][i + 1] = LaurentPoly.one()
    rows[p - 1][0] = LaurentPoly.t()
    return LambdaMatrix(rows)


def _require_hermitian(W: LambdaMatrix):
    if not W.is_hermitian:
        raise NotHermitian("matrix is not bar-Hermitian")


def subst_cycle(W: LambdaMatrix, p: int) -> SymRatMatrix:
    """Substitute the p-cycle matrix for t in a Hermitian W.

    Block (i, j) becomes w_ij(T); since T^m is the permutation shifting
    indices by m mod p, entry (a, b) of that block collects the
    coefficients of w_ij in exponents congruent to b - a mod p.
    """
    _require_hermitian(W)
    if p < 1:
        raise ValueError("p must be a positive integer")
    n = W.n
    N = n * p
    rows = [[Fraction(0)] * N for _ in range(N)]
    for i in range(n):
        for j in range(n):
            residues = [Fraction(0)] * p
            for e, c in W.entries[i][j].coeffs.items():
                residues[e % p] += c
            for a in range(p):
                for b in range(p):
                    rows[i * p + a][j * p + b] = residues[(b - a) % p]
    return SymRatMatrix(rows)


def subst_twisted(W: LambdaMatrix, p: int) -> LambdaMatrix:
    """Substitute the twisted cycle matrix for t in a Hermitian W.

    (T_t^m) has entry t^((a + m - b)/p) at (a, b) when p divides
    a + m - b, for every integer m, so each Laurent coefficient lands in
    one position per block row with a power of t recording the winding.
    The result is again Hermitian.
    """
    _require_hermitian(W)
    if p < 1:
        raise ValueError("p must be a positive integer")
    n = W.n
    N = n * p
    zero = LaurentPoly.zero()
    rows = [[zero] * N for _ in range(N)]
    for i in range(n):
        for j in range(n):
            for e, c in W.entries[i][j].coeffs.items():
                for a in range(p):
                    b = (a + e) % p
                    w = (a + e - b) // p
                    rows[i * p + a][j * p + b] = rows[i * p + a][j * p + b] + LaurentPoly(
                        {w: c}
                    )
    out = LambdaMatrix(rows)
    if not out.is_hermitian:
        raise ArithmeticError("twisted substitution of a Hermitian matrix must be Hermitian")
    return out


# ---------------------------------------------------------------------------
# signatures


def complex_signature(H: np.ndarray) -> "int | np.ndarray":
    """Signature of a complex Hermitian matrix (numeric path): an int for
    one n x n matrix, an int array for an (m, n, n) stack in one eigensolve.
    Raises NotHermitian / SingularEvaluation when any slice would (an
    eigenvalue within _EIG_FLOOR of 0 is singular)."""
    Hs = (H + np.conj(np.swapaxes(H, -1, -2))) / 2.0
    # np.allclose(H, Hs, atol=1e-8) over every slice at once
    if not (np.abs(H - Hs) <= 1e-8 + 1e-5 * np.abs(Hs)).all():
        raise NotHermitian("numeric matrix is not Hermitian")
    eigs = np.linalg.eigvalsh(Hs)
    if (np.abs(eigs) <= _EIG_FLOOR).any():
        raise SingularEvaluation("eigenvalue within tolerance of zero")
    sig = (eigs > 0).sum(axis=-1) - (eigs < 0).sum(axis=-1)
    return int(sig) if sig.ndim == 0 else sig


def _sigma_exact_at(W: LambdaMatrix, w: int) -> int:
    """sigma(W(w)) at w = +-1 by exact congruence, kept on W (a singular
    W(w) too, so that every call raises SingularEvaluation)."""
    if w not in W._sigma_exact:
        S = SymRatMatrix([[e.evaluate(w) for e in row] for row in W.entries])
        plus, minus, null = signature_exact(S)
        W._sigma_exact[w] = None if null else plus - minus
    sig = W._sigma_exact[w]
    if sig is None:
        raise SingularEvaluation("W(%d) is singular" % w)
    return sig


def varsigma_at(W: LambdaMatrix, k: int, p: int) -> int:
    """sigma(W(w)) - sigma(W(1)) for w = e^(2 pi i k/p).

    At w = 1 the difference is identically zero, so k = 0 mod p returns 0.
    At w = -1 both signatures are exact; other roots go through the
    numeric Hermitian eigensolver.  The exact route (varsigma_p) sums
    these over all p-th roots at once.
    """
    _require_hermitian(W)
    if k % p == 0:
        return 0
    base = _sigma_exact_at(W, 1)
    if 2 * (k % p) == p:
        return _sigma_exact_at(W, -1) - base
    return complex_signature(W.eval_unit(k, p)) - base


def varsigma_p(W: LambdaMatrix, p: int) -> int:
    """Total p-th signature: sigma(W(T)) - p * sigma(W(1)), all exact.

    Equals the sum of varsigma_at over all p-th roots of unity because the
    cycle substitution block-diagonalizes over those roots.  Raises
    SingularEvaluation when the substituted form is degenerate (W fails to
    be invertible at some p-th root).
    """
    _require_hermitian(W)
    S = subst_cycle(W, p)
    plus, minus, null = signature_exact(S)
    if null:
        raise SingularEvaluation("W(T) is singular: some p-th root is not regular")
    return (plus - minus) - p * _sigma_exact_at(W, 1)
