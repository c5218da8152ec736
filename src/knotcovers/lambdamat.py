"""Hermitian matrices over the Laurent ring and their signatures.

A Lambda-matrix is a square matrix W(t) of Laurent polynomials, stored as
its integer (or rational) coefficient matrices, W = sum_e C_e t^e.  W is
Hermitian when conjugate-transposition with respect to the bar involution
t -> t^-1 fixes it, C_-e = C_e^T; then W(w) is an ordinary Hermitian
complex matrix for every w on the unit circle, and W(1) = sum_e C_e is
rational symmetric.  Every operation reads the C_e, with no Laurent
arithmetic entry by entry.

Two substitutions build the p-fold cover's forms; sigma_p and beta_p are
read off ``seifert.Knot``, so these are the oracles of criteria 3, 4 and 12:

* ``subst_cycle(W, p)`` puts the p-cycle permutation matrix T (T^p = I,
  T^-1 = T^T) in for t: the rows of an np x np rational symmetric matrix,
  integer rows for W over Z[t, t^-1].
* ``twisted_cycle_matrix(p)`` is T with t in the corner;
  (T_t)^p = t I and the inverse is the bar-conjugate transpose.
  ``subst_twisted(W, p)`` stays a Hermitian Lambda-matrix.

Every exact determinant is one fraction-free kernel over the integers,
``_bareiss``: ``rational_det`` scales a rational matrix by the lcm of its
denominators, and ``LambdaMatrix.det`` evaluates a Laurent matrix at
t = 2^B past Hadamard's bound and reads the coefficients off the digits
(Kronecker substitution).
Every inertia is one fraction-free kernel too, ``_inertia``, over the
integers, for ``signature_exact`` and for the arc table
``seifert.Knot.arcs``, which hands it each arc's Hermitian form as a real
integer matrix: every signature in production is an honest integer, with
no threshold.  The production
``branched.total_sigma_p`` reads that arc table; the exact cycle
substitution ``varsigma_p`` and the per-root sum of ``varsigma_at`` are
its oracles.  Floats serve only oracles: ``varsigma_at`` evaluates W(z)
from a float coefficient tensor at ``root_of_unity``, the package's one
float formula for e^(2 pi i k/p), and ``complex_signature`` counts
eigenvalue signs above a fixed floor ``_EIG_FLOOR`` for one matrix or a
stack of them in one numpy eigensolve.  These four float functions
(``eval_complex``, ``complex_signature``, ``root_of_unity``,
``varsigma_at``) import numpy themselves; the exact kernels never load it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import chain
from typing import Mapping, Sequence

from .exactalg import LaurentPoly, SingularAtOne, SingularEvaluation, _frac, _power, _qdiv

__all__ = [
    "NotHermitian",
    "AtOne",
    "LambdaMatrix",
    "signature_exact",
    "twisted_cycle_matrix",
    "subst_cycle",
    "subst_twisted",
    "normalized_determinant",
    "varsigma_at",
    "varsigma_p",
]


_EIG_FLOOR = 1e-9  # |eigenvalue| at or below this counts as zero: the form is singular


class NotHermitian(ValueError):
    """The matrix is not fixed by bar-conjugate transposition."""


class AtOne(ValueError):
    """Evaluation at t = 1 was requested where it is excluded."""


# ---------------------------------------------------------------------------
# exact determinants and inertia


def _bareiss(M: list[list[int]]) -> int:
    """Determinant of the square integer list-of-lists M (n >= 0) by
    fraction-free Bareiss elimination, in place: each one-step division by
    the previous pivot is exact, so every entry stays an integer.  The
    package's one determinant kernel; ``LambdaMatrix.det`` reaches it by
    Kronecker substitution.

    A row whose multiplier is 0 would only be rescaled by pivot / prev, and
    over a run of such steps these factors telescope: the row is kept as it
    is, with ``base`` the pivot it was last current for, and is brought up
    to date, times prev / base, only when it is next used."""
    n = len(M)
    sign, prev = 1, 1
    base = [1] * n
    for k in range(n - 1):
        if not M[k][k]:  # rescaling keeps zeros, so a stale row is read as it is
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    base[k], base[i] = base[i], base[k]
                    sign = -sign
                    break
            else:
                return 0  # a zero column
        row_k = M[k]
        if base[k] != prev:
            q = base[k]
            for j in range(k, n):
                row_k[j] = row_k[j] * prev // q
        pk = row_k[k]
        for i in range(k + 1, n):
            row_i = M[i]
            if row_i[k]:
                q = base[i]
                if q != prev:
                    for j in range(k, n):
                        row_i[j] = row_i[j] * prev // q
                mik = row_i[k]
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] * pk - mik * row_k[j]) // prev
                base[i] = pk
        prev = pk
    return sign * (M[n - 1][n - 1] * prev // base[n - 1]) if n else 1


def _all_int(rows: Sequence[Sequence]) -> bool:
    return set(map(type, chain.from_iterable(rows))) <= {int}


def _integral(rows: Sequence[Sequence], name: str) -> tuple[list[list[int]], int]:
    """(L * rows as int lists, L) for a square rational matrix, L the lcm
    of its denominators; integer input is copied as it is (L = 1)."""
    if _all_int(rows):
        M, L = [list(row) for row in rows], 1
    else:
        M = [[_frac(x) for x in row] for row in rows]
        L = math.lcm(*(x.denominator for row in M for x in row))
        if L != 1:
            M = [[int(x * L) for x in row] for row in M]
    if any(len(row) != len(M) for row in M):
        raise ValueError("%s needs a square matrix" % name)
    return M, L


def rational_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a rational matrix by ``_bareiss`` over the integers,
    of the matrix scaled by the lcm L of its denominators, divided by L^n."""
    M, L = _integral(rows, "rational_det")
    return Fraction(_bareiss(M), L ** len(M))


def signature_exact(rows: Sequence[Sequence[Fraction]]) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a rational symmetric matrix:
    ``_inertia`` of it scaled by the lcm L > 0 of its denominators."""
    M, _ = _integral(rows, "signature_exact")
    if [list(col) for col in zip(*M)] != M:
        raise ValueError("signature_exact needs a symmetric matrix")
    return _inertia(M)


def _inertia(M: list[list[int]]) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a symmetric integer matrix,
    eliminated in place: the package's one inertia kernel.

    Symmetric fraction-free Bareiss with 1x1 pivots on the upper triangle
    (M[i][j], i > j, is read as M[j][i]): every active entry stays a
    bordered minor, divided exactly by the previous pivot.  The pivots d_k
    are leading principal minors of a congruent matrix, so by Sylvester's
    law of inertia the k-th LDL^T pivot has the sign of d_k d_(k-1),
    d_0 = 1.  A zero corner is made a pivot by subtracting c times a later
    row j and its column, a determinant-1 congruence that adds bordered
    minors to bordered minors: the corner becomes M[j][j] - 2 c M[k][j],
    nonzero for c = 1 or c = -1.  A zero active row counts once in n_zero
    and is passed over.  A row whose multiplier is 0 is rescaled lazily, as
    in ``_bareiss``: brought up to date, times prev / base, when next read.
    """
    n = len(M)
    plus = minus = zero = 0
    prev = 1
    base = [1] * n
    for k in range(n):
        for i in [k] if M[k][k] else range(k, n):  # a zero corner's repair reads every row
            q, row_i = base[i], M[i]
            if q != prev:
                for j in range(i, n):
                    row_i[j] = row_i[j] * prev // q
                base[i] = prev
        row_k = M[k]
        if not row_k[k]:
            j = next((j for j in range(k + 1, n) if M[j][j] or row_k[j]), None)
            if j is None:
                zero += 1
                continue
            c = 1 if M[j][j] - 2 * row_k[j] else -1
            for m in range(k, n):
                row_k[m] -= (M[j][m] if m >= j else M[m][j]) * c
            row_k[k] -= row_k[j] * c
        d = row_k[k]
        if (d > 0) == (prev > 0):
            plus += 1
        else:
            minus += 1
        for i in range(k + 1, n):
            r, row_i = row_k[i], M[i]
            if r:
                q = base[i]
                if q != prev:
                    for j in range(i, n):
                        row_i[j] = row_i[j] * prev // q
                for j in range(i, n):
                    row_i[j] = (row_i[j] * d - r * row_k[j]) // prev
                base[i] = d
        prev = d
    return plus, minus, zero


# ---------------------------------------------------------------------------
# Lambda-matrices


class LambdaMatrix:
    """Square n x n matrix W = sum_e C_e t^e over Q[t, t^-1], stored as its
    coefficient matrices: ``coeffs`` maps each exponent e to C_e, a tuple
    of n rows of exact scalars (an int when integral, else a Fraction),
    in ascending e with zero matrices dropped, so that == is structural.
    It keeps nothing else: whether W is Hermitian, sigma(W(+-1)) and its
    float coefficient tensor are computed where they are read."""

    __slots__ = ("n", "coeffs")

    def __init__(self, rows: Sequence[Sequence]):
        """From rows of LaurentPoly, int or Fraction entries."""
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        ent = [[x._c if isinstance(x, LaurentPoly) else {0: _frac(x)} for x in row] for row in rows]
        exps = {e for row in ent for x in row for e in x}
        self._fill({e: [[x.get(e, 0) for x in row] for row in ent] for e in exps}, n)

    def _fill(self, coeffs: Mapping[int, Sequence[Sequence]], n: int) -> None:
        self.n = n
        self.coeffs = {e: tuple(map(tuple, C)) if _all_int(C) else
                       tuple(tuple(map(_frac, row)) for row in C)
                       for e, C in sorted(coeffs.items()) if any(map(any, C))}

    @classmethod
    def from_coeffs(cls, coeffs: Mapping[int, Sequence[Sequence]], n: int) -> "LambdaMatrix":
        """sum_e coeffs[e] t^e, each coeffs[e] n rows of n ints or Fractions."""
        W = cls.__new__(cls)
        W._fill(coeffs, n)
        return W

    @classmethod
    def identity(cls, n: int) -> "LambdaMatrix":
        return cls.from_coeffs({0: [[int(i == j) for j in range(n)] for i in range(n)]}, n)

    @property
    def entries(self) -> tuple[tuple[LaurentPoly, ...], ...]:
        """The rows of Laurent polynomial entries, derived from ``coeffs``."""
        return tuple(tuple(LaurentPoly({e: C[i][j] for e, C in self.coeffs.items()})
                           for j in range(self.n)) for i in range(self.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LambdaMatrix):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __add__(self, other: "LambdaMatrix") -> "LambdaMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        acc = dict(self.coeffs)
        for e, D in other.coeffs.items():
            C = acc.get(e)
            acc[e] = D if C is None else [[a + b for a, b in zip(r, s)] for r, s in zip(C, D)]
        return LambdaMatrix.from_coeffs(acc, self.n)

    def __mul__(self, other):
        """W times a scalar: an int, a Fraction or a LaurentPoly."""
        if not isinstance(other, (int, Fraction, LaurentPoly)):
            return NotImplemented
        n = self.n
        return self @ LambdaMatrix([[other if i == j else 0 for j in range(n)] for i in range(n)])

    def __matmul__(self, other: "LambdaMatrix") -> "LambdaMatrix":
        """sum_(e, f) C_e D_f t^(e + f), each product over the nonzero
        entries of C_e's rows and D_f's rows alone."""
        n = self.n
        if n != other.n:
            raise ValueError("size mismatch")
        sparse = [(f, [[(j, b) for j, b in enumerate(row) if b] for row in D])
                  for f, D in other.coeffs.items()]
        acc = defaultdict(lambda: [[0] * n for _ in range(n)])
        for e, C in self.coeffs.items():
            for f, D in sparse:
                for row, out in zip(C, acc[e + f]):
                    for a, nonzero in zip(row, D):
                        if a:
                            for j, b in nonzero:
                                out[j] += a * b
        return LambdaMatrix.from_coeffs(acc, n)

    def __pow__(self, m: int) -> "LambdaMatrix":
        if m < 0:
            raise ValueError("negative matrix power not supported")
        return _power(self, m, LambdaMatrix.__matmul__, LambdaMatrix.identity(self.n))

    def bar_transpose(self) -> "LambdaMatrix":
        return LambdaMatrix.from_coeffs({-e: list(zip(*C)) for e, C in self.coeffs.items()},
                                        self.n)

    @property
    def is_hermitian(self) -> bool:
        """C_-e is the transpose of C_e for every e."""
        C = self.coeffs
        return all(C.get(-e) == tuple(zip(*M)) for e, M in C.items())

    def det(self) -> LaurentPoly:
        """Exact determinant by Kronecker substitution into ``_bareiss``.

        The matrix is scaled by the lcm L of its denominators and each row,
        then each column, shifted by a power of t to polynomials of least
        degree: an integer polynomial matrix P with det W = t^s det P / L^n,
        s the sum of the shifts (a zero row or column gives 0).  A
        coefficient of det P is at most the maximum of |det P| on |t| = 1,
        so at most H, Hadamard's bound prod_i (sum_j ||p_ij||_1^2)^(1/2).
        With B = bitlen(H) + 2 the integer det P(2^B), one integer Bareiss,
        has the coefficients as its signed base-2^B digits: entry (i, j) is
        the sum of the scaled C_e[i][j] 2^(B (e - r_i - s_j)), r_i and s_j
        the shifts."""
        n, C = self.n, self.coeffs
        L = math.lcm(*{x.denominator for M in C.values() for row in M for x in row})
        if L != 1:
            C = {e: [[int(x * L) for x in row] for row in M] for e, M in C.items()}
        lows = [[math.inf] * n for _ in range(n)]
        norms = [[0] * n for _ in range(n)]
        for e in reversed(C):  # ascending exponents: the last write is the least
            for row, low, norm in zip(C[e], lows, norms):
                for j, c in enumerate(row):
                    if c:
                        low[j] = e
                        norm[j] += abs(c)
        rlow = [min(low) for low in lows]
        clow = [min(col) for col in zip(*[[e - r for e in low] for low, r in zip(lows, rlow)])]
        if math.inf in rlow or math.inf in clow:
            return LaurentPoly.zero()
        H2 = math.prod([sum([x * x for x in norm]) for norm in norms])
        B = (math.isqrt(H2 - 1) + 1).bit_length() + 2
        P = [[0] * n for _ in range(n)]
        for e, M in C.items():
            for row, out, r in zip(M, P, rlow):
                for j, c in enumerate(row):
                    if c:
                        out[j] += c << (e - r - clow[j]) * B
        v = _bareiss(P)
        coeffs, e, mask, half = {}, sum(rlow) + sum(clow), (1 << B) - 1, 1 << (B - 1)
        while v:  # B >= 2, so |v| falls at every digit
            c = v & mask
            if c >= half:
                c -= 1 << B
            if c:
                coeffs[e] = c if L == 1 else Fraction(c, L ** n)
            v = (v - c) >> B
            e += 1
        return LaurentPoly(coeffs)

    def eval_at_one(self) -> list[list[int | Fraction]]:
        return self._at_sign(1)

    def _at_sign(self, w: int) -> list[list[int | Fraction]]:
        """W(w) at w = +-1: the sum of the C_e w^e."""
        out = [[0] * self.n for _ in range(self.n)]
        for e, C in self.coeffs.items():
            out = [[a + w ** (e % 2) * c for a, c in zip(o, row)] for o, row in zip(out, C)]
        return out

    def eval_complex(self, z: "complex | np.ndarray") -> np.ndarray:
        """W(z) = sum_e C_e z^e from the float tensor C[e, i, j] (with i, j
        flattened): one n x n matrix for a scalar z, a stack of shape
        z.shape + (n, n) for an array of z."""
        import numpy as np

        exps = np.array(list(self.coeffs), dtype=int)
        C = np.array(list(self.coeffs.values()), dtype=float).reshape(len(exps), self.n ** 2)
        z = np.asarray(z, dtype=complex)
        return (z[..., None] ** exps @ C).reshape(z.shape + (self.n, self.n))

    def __repr__(self) -> str:
        return "LambdaMatrix(%r)" % [[str(e) for e in row] for row in self.entries]


def normalized_determinant(W: LambdaMatrix) -> LaurentPoly:
    """det(W) scaled so the value at t = 1 is 1 (raises SingularAtOne)."""
    d = W.det()
    d1 = d.eval_one()
    if d1 == 0:
        raise SingularAtOne("determinant vanishes at t = 1")
    return d * _qdiv(1, d1)


# ---------------------------------------------------------------------------
# cycle substitutions


def twisted_cycle_matrix(p: int) -> LambdaMatrix:
    """Ones on the superdiagonal and t in the lower-left corner: the p-th
    power is t times the identity and the inverse is the bar-transpose."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    return LambdaMatrix.from_coeffs({0: [[int(j == i + 1) for j in range(p)] for i in range(p)],
                                     1: [[0] * p] * (p - 1) + [[1] + [0] * (p - 1)]}, p)


def _require_hermitian(W: LambdaMatrix):
    if not W.is_hermitian:
        raise NotHermitian("matrix is not bar-Hermitian")


def subst_cycle(W: LambdaMatrix, p: int) -> tuple[tuple[Fraction, ...], ...]:
    """Substitute the p-cycle matrix for t in a Hermitian W: the rows of an
    np x np rational symmetric matrix, of ints when W is integral.

    Block (i, j) becomes w_ij(T); since T^m is the permutation shifting
    indices by m mod p, entry (a, b) of that block collects the
    coefficients C_e[i][j] with e congruent to b - a mod p.
    """
    _require_hermitian(W)
    if p < 1:
        raise ValueError("p must be a positive integer")
    N = W.n * p
    out = [[0] * N for _ in range(N)]
    for e, C in W.coeffs.items():
        for i, row in enumerate(C):
            for j, c in enumerate(row):
                if c:
                    for a in range(p):
                        out[i * p + a][j * p + (a + e) % p] += c
    out = tuple(map(tuple, out))
    if tuple(zip(*out)) != out:
        raise ArithmeticError("cycle substitution of a Hermitian matrix must be symmetric")
    return out


def subst_twisted(W: LambdaMatrix, p: int) -> LambdaMatrix:
    """Substitute the twisted cycle matrix for t in a Hermitian W.

    (T_t^m) has entry t^((a + m - b)/p) at (a, b) when p divides
    a + m - b, for every integer m, so each coefficient C_e[i][j] lands in
    one position per block row a, of the coefficient matrix of t^w with
    w recording the winding.  The result is again Hermitian.
    """
    _require_hermitian(W)
    if p < 1:
        raise ValueError("p must be a positive integer")
    N = W.n * p
    acc = defaultdict(lambda: [[0] * N for _ in range(N)])
    for e, C in W.coeffs.items():
        for a in range(p):
            w, b = divmod(a + e, p)
            for i, row in enumerate(C):
                out = acc[w][i * p + a]
                for j, c in enumerate(row):
                    if c:
                        out[j * p + b] += c
    out = LambdaMatrix.from_coeffs(acc, N)
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
    import numpy as np

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
    """sigma(W(w)) at w = +-1 by exact inertia; SingularEvaluation when
    W(w) is singular.  W(1) sums the coefficient matrices, W(-1) sums them
    with alternating signs."""
    plus, minus, null = signature_exact(W._at_sign(w))
    if null:
        raise SingularEvaluation("W(%d) is singular" % w)
    return plus - minus


def root_of_unity(k: "int | np.ndarray", p: "int | np.ndarray") -> "complex | np.ndarray":
    """e^(2 pi i k/p) as complex floats, for ints or int arrays k, p (or
    float turns k with p = 1): the package's one formula for a numeric
    point of the unit circle, so that every oracle that compares
    signatures evaluates at the same floats."""
    import numpy as np

    return np.exp(1j * (2 * np.pi * k / p))


def varsigma_at(W: LambdaMatrix, k: "int | np.ndarray", p: "int | np.ndarray"
                ) -> "int | np.ndarray":
    """sigma(W(w)) - sigma(W(1)) for w = e^(2 pi i k/p).

    k and p are ints or int arrays (int64) that broadcast together: an
    int for scalars, an int array of the broadcast shape otherwise.  At
    w = 1 the difference is identically zero, so k = 0 mod p gives 0.  At
    w = -1 (k = p/2 mod p) both signatures are exact; every other root
    goes into one stacked numeric Hermitian eigensolve.
    SingularEvaluation if any root is singular.  The exact route
    (varsigma_p) sums these over all p-th roots at once.
    """
    import numpy as np

    _require_hermitian(W)
    k, p = np.broadcast_arrays(np.asarray(k, dtype=np.int64), np.asarray(p, dtype=np.int64))
    if (p < 1).any():
        raise ValueError("p must be a positive integer")
    r = k % p
    out = np.zeros(r.shape, dtype=int)
    if r.any():
        base = _sigma_exact_at(W, 1)
        half = r == p - r  # 2r = p without overflow
        if half.any():
            out[half] = _sigma_exact_at(W, -1) - base
        rest = (r != 0) & ~half
        if rest.any():
            out[rest] = complex_signature(W.eval_complex(root_of_unity(r[rest], p[rest]))) - base
    return int(out) if out.ndim == 0 else out


def varsigma_p(W: LambdaMatrix, p: int) -> int:
    """Total p-th signature: sigma(W(T)) - p * sigma(W(1)), all exact.

    Equals the sum of varsigma_at over all p-th roots of unity because the
    cycle substitution block-diagonalizes over those roots.  Raises
    SingularEvaluation when the substituted form is degenerate (W fails to
    be invertible at some p-th root).
    """
    _require_hermitian(W)
    plus, minus, null = signature_exact(subst_cycle(W, p))
    if null:
        raise SingularEvaluation("W(T) is singular: some p-th root is not regular")
    return (plus - minus) - p * _sigma_exact_at(W, 1)
