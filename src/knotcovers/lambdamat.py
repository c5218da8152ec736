"""Hermitian matrices over the Laurent ring and their signatures.

A Lambda-matrix is a square matrix W(t) of Laurent polynomials.  W is
Hermitian when conjugate-transposition with respect to the bar involution
t -> t^-1 fixes it; then W(w) is an ordinary Hermitian complex matrix for
every w on the unit circle, and W(1) is rational symmetric.

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
(Kronecker substitution).  Products reuse ``exactalg._mat_mul``, powers
``exactalg._mat_pow`` (the package's one square and multiply,
``exactalg._power``).
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
from fractions import Fraction
from typing import Sequence

from .exactalg import (LaurentPoly, SingularAtOne, SingularEvaluation, _frac, _mat_mul, _mat_pow,
                       _qdiv)

__all__ = [
    "NotHermitian",
    "SingularEvaluation",
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


def _integral(rows: Sequence[Sequence], name: str) -> tuple[list[list[int]], int]:
    """(L * rows as int lists, L) for a square rational matrix, L the lcm
    of its denominators; integer input is copied as it is (L = 1)."""
    if all(type(x) is int for row in rows for x in row):
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
    and is passed over.
    """
    n = len(M)
    plus = minus = zero = 0
    prev = 1
    for k in range(n):
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
            for j in range(i, n):
                row_i[j] = (row_i[j] * d - r * row_k[j]) // prev
        prev = d
    return plus, minus, zero


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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return LambdaMatrix([[e * other for e in row] for row in self.entries])
        return NotImplemented

    def __matmul__(self, other: "LambdaMatrix") -> "LambdaMatrix":
        if self.n != other.n:
            raise ValueError("size mismatch")
        return LambdaMatrix(_mat_mul(self.entries, other.entries))

    def __pow__(self, m: int) -> "LambdaMatrix":
        return LambdaMatrix(_mat_pow(self.entries, m))

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
        """Exact determinant by Kronecker substitution into ``_bareiss``.

        The matrix is scaled by the lcm L of its denominators and each row,
        then each column, shifted by a power of t to polynomials of least
        degree: an integer polynomial matrix P with det W = t^s det P / L^n,
        s the sum of the shifts (a zero row or column gives 0).  A
        coefficient of det P is at most the maximum of |det P| on |t| = 1,
        so at most H, Hadamard's bound prod_i (sum_j ||p_ij||_1^2)^(1/2).
        With B = bitlen(H) + 2 the integer det P(2^B), one integer Bareiss,
        has the coefficients as its signed base-2^B digits."""
        n, rows = self.n, [[x._c for x in row] for row in self.entries]
        L = math.lcm(*{c.denominator for row in rows for x in row for c in x.values()})
        if L != 1:
            rows = [[{e: int(c * L) for e, c in x.items()} for x in row] for row in rows]
        lows = [[min(x) if x else math.inf for x in row] for row in rows]
        rlow = [min(low) for low in lows]
        clow = [min(col) for col in zip(*[[e - r for e in low] for low, r in zip(lows, rlow)])]
        if math.inf in rlow or math.inf in clow:
            return LaurentPoly.zero()
        H2 = math.prod([sum([sum(map(abs, x.values())) ** 2 for x in row]) for row in rows])
        B = (math.isqrt(H2 - 1) + 1).bit_length() + 2
        v = _bareiss([[sum([c << (e - r - s) * B for e, c in x.items()]) for x, s in zip(row, clow)]
                      for row, r in zip(rows, rlow)])
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

    def eval_at_one(self) -> list[list[Fraction]]:
        return [[e.eval_one() for e in row] for row in self.entries]

    def eval_complex(self, z: "complex | np.ndarray") -> np.ndarray:
        """W(z) = sum_e C_e z^e from the float tensor C[e, i, j], built once
        (stored with i, j flattened): one n x n matrix for a scalar z, a
        stack of shape z.shape + (n, n) for an array of z."""
        import numpy as np

        if self._float_coeffs is None:
            exps = sorted({e for row in self.entries for x in row for e in x.coeffs})
            C = [[float(x.coeff(e)) for row in self.entries for x in row] for e in exps]
            self._float_coeffs = (np.array(exps, dtype=int), np.reshape(C, (len(exps), self.n**2)))
        exps, C = self._float_coeffs
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
    zero = LaurentPoly.zero()
    rows = [[zero] * p for _ in range(p)]
    for i in range(p - 1):
        rows[i][i + 1] = LaurentPoly.one()
    rows[p - 1][0] = LaurentPoly.t()
    return LambdaMatrix(rows)


def _require_hermitian(W: LambdaMatrix):
    if not W.is_hermitian:
        raise NotHermitian("matrix is not bar-Hermitian")


def subst_cycle(W: LambdaMatrix, p: int) -> tuple[tuple[Fraction, ...], ...]:
    """Substitute the p-cycle matrix for t in a Hermitian W: the rows of an
    np x np rational symmetric matrix, of ints when W is integral.

    Block (i, j) becomes w_ij(T); since T^m is the permutation shifting
    indices by m mod p, entry (a, b) of that block collects the
    coefficients of w_ij in exponents congruent to b - a mod p: row a of
    the block is those residues rotated right by a.
    """
    _require_hermitian(W)
    if p < 1:
        raise ValueError("p must be a positive integer")
    blocks = []
    for row in W.entries:
        residue_row = []
        for x in row:
            residues = [0] * p
            for e, c in x.coeffs.items():
                residues[e % p] += c
            residue_row.append(residues)
        blocks.append(residue_row)
    out = tuple(
        tuple(c for res in residue_row for c in res[p - a:] + res[:p - a])
        for residue_row in blocks
        for a in range(p)
    )
    if tuple(zip(*out)) != out:
        raise ArithmeticError("cycle substitution of a Hermitian matrix must be symmetric")
    return out


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
    """sigma(W(w)) at w = +-1 by exact inertia, kept on W (a singular W(w)
    too, so that every call raises SingularEvaluation).  W(1) sums each
    entry's coefficients, W(-1) sums them with alternating signs."""
    if w not in W._sigma_exact:
        rows = W.eval_at_one() if w == 1 else [
            [sum(-c if e % 2 else c for e, c in x.coeffs.items()) for x in row]
            for row in W.entries
        ]
        plus, minus, null = signature_exact(rows)
        W._sigma_exact[w] = None if null else plus - minus
    sig = W._sigma_exact[w]
    if sig is None:
        raise SingularEvaluation("W(%d) is singular" % w)
    return sig


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
