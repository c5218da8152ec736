"""Matrices over Laurent polynomials, exact signatures, cycle substitutions."""

import cmath
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

import knotcovers.lambdamat as lambdamat
from knotcovers.exactalg import LaurentPoly, SingularEvaluation
from knotcovers.lambdamat import (
    LambdaMatrix,
    NotHermitian,
    _inertia,
    complex_signature,
    normalized_determinant,
    rational_det,
    signature_exact,
    subst_cycle,
    subst_twisted,
    twisted_cycle_matrix,
    varsigma_at,
    varsigma_p,
)
from knotcovers.seifert import (Knot, clover_matrix, congruence_identity_check, corpus_records,
                                random_seifert)

t = LaurentPoly.t()
one = LaurentPoly.one()
zero = LaurentPoly.zero()


# ---------------------------------------------------------------------------
# entrywise oracles: each LambdaMatrix operation entry by entry in the
# Laurent ring, on rows of LaurentPoly, apart from the coefficient matrices


def _laurent_product(X, Y):
    n = len(X)
    return [[sum((X[i][k] * Y[k][j] for k in range(n)), zero) for j in range(n)]
            for i in range(n)]


def _laurent_bar_transpose(X):
    return [[X[j][i].bar() for j in range(len(X))] for i in range(len(X))]


def _laurent_is_hermitian(X):
    return X == _laurent_bar_transpose(X)


def _laurent_at_sign(X, w):
    """X(w) at w = +-1, each entry's coefficients summed with sign w^e."""
    return [[sum(c * w ** (e % 2) for e, c in x.coeffs.items()) for x in row] for row in X]


def _laurent_subst_cycle(X, p):
    """Block (i, j), row a: the residues mod p of X_ij's coefficients,
    rotated right by a."""
    blocks = []
    for row in X:
        residue_row = []
        for x in row:
            residues = [0] * p
            for e, c in x.coeffs.items():
                residues[e % p] += c
            residue_row.append(residues)
        blocks.append(residue_row)
    return tuple(tuple(c for res in residue_row for c in res[p - a:] + res[:p - a])
                 for residue_row in blocks for a in range(p))


def _laurent_subst_twisted(X, p):
    """Each coefficient c t^e of X_ij lands at (i p + a, j p + b),
    b = a + e mod p, as c t^((a + e - b)/p)."""
    n = len(X)
    rows = [[zero] * (n * p) for _ in range(n * p)]
    for i in range(n):
        for j in range(n):
            for e, c in X[i][j].coeffs.items():
                for a in range(p):
                    b = (a + e) % p
                    rows[i * p + a][j * p + b] += LaurentPoly({(a + e - b) // p: c})
    return rows


def _laurent_twisted_cycle(p):
    rows = [[zero] * p for _ in range(p)]
    for i in range(p - 1):
        rows[i][i + 1] = one
    rows[p - 1][0] = t
    return rows


def _laurent_clover(A):
    """[[Axx, (1 - t^-1) Axy - I], [(1 - t) (Ayx + I) - I, (2 - t - t^-1) Ayy]]
    in Laurent arithmetic."""
    g = len(A) // 2
    ti = t ** -1
    rows = []
    for i in range(g):
        rows.append([LaurentPoly.const(A[i][j]) for j in range(g)]
                    + [(one - ti) * A[i][g + j] - int(i == j) for j in range(g)])
    for i in range(g):
        rows.append([(one - t) * (A[g + i][j] + (i == j)) - int(i == j) for j in range(g)]
                    + [(2 - t - ti) * A[g + i][g + j] for j in range(g)])
    return rows


def _laurent_congruence(A, W):
    """P W P-bar^T == (1 - t^-1) A + (1 - t) A^T, P = diag((1 - t) I, I),
    for rows W, in Laurent arithmetic."""
    n, g = len(A), len(A) // 2
    P = [[(one - t if i < g else one) if i == j else zero for j in range(n)] for i in range(n)]
    lhs = _laurent_product(_laurent_product(P, W), _laurent_bar_transpose(P))
    return lhs == [[(one - t.bar()) * A[i][j] + (one - t) * A[j][i] for j in range(n)]
                   for i in range(n)]


def _random_lambda_rows(rng, n, rational):
    """n x n LaurentPoly rows, exponents -3..3, integer or rational
    coefficients; a zero row and a zero column each half the time."""
    def coeff():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rational else rng.randint(-4, 4)

    rows = [[LaurentPoly({e: coeff() for e in range(-3, 4) if rng.random() < 0.4})
             for _ in range(n)] for _ in range(n)]
    if n and rng.random() < 0.5:
        rows[rng.randrange(n)] = [zero] * n
    if n and rng.random() < 0.5:
        k = rng.randrange(n)
        for row in rows:
            row[k] = zero
    return rows


def _cases(rng, trials=6):
    """Random rows for n = 0..4, integer and rational, each with a
    Hermitian form M + M-bar^T beside it."""
    for _ in range(trials):
        for n in range(5):
            for rational in (False, True):
                M = _random_lambda_rows(rng, n, rational)
                H = [[x + y for x, y in zip(r, s)] for r, s in zip(M, _laurent_bar_transpose(M))]
                yield M, H


def _as_tuples(rows):
    return tuple(map(tuple, rows))


def _corpus_seiferts():
    rng = random.Random(33)
    return ([rec.knot.seifert for rec in corpus_records()]
            + [random_seifert(g, rng) for g in (1, 1, 2, 2, 3, 4, 5, 7)])


class TestCoefficientMatrices:
    """Every LambdaMatrix operation reads the coefficient matrices C_e of
    W = sum_e C_e t^e; each one against its entrywise route."""

    def test_rows_round_trip_and_canonical_coefficients(self, rng):
        for M, H in _cases(rng):
            for rows in (M, H):
                W = LambdaMatrix(rows)
                assert W.entries == _as_tuples(rows) and W.n == len(rows)
                assert list(W.coeffs) == sorted(W.coeffs)
                for C in W.coeffs.values():
                    assert any(map(any, C)) and len(C) == W.n
                    assert all(type(x) is int or x.denominator != 1 for row in C for x in row)
        assert LambdaMatrix([]).coeffs == {} and LambdaMatrix([[0]]).coeffs == {}
        assert LambdaMatrix([[Fraction(4, 2), 1]] * 2).coeffs == {0: ((2, 1), (2, 1))}
        assert LambdaMatrix.from_coeffs({3: [[0, 0], [0, 0]], -1: [[1, 0], [0, Fraction(2)]]},
                                        2).coeffs == {-1: ((1, 0), (0, 2))}
        with pytest.raises(ValueError, match="square"):
            LambdaMatrix([[one, one]])

    def test_product_sum_scalar_and_power(self, rng):
        for M, H in _cases(rng, trials=3):
            N = _random_lambda_rows(rng, len(M), rng.random() < 0.5)
            X, Y = LambdaMatrix(M), LambdaMatrix(N)
            assert (X @ Y).entries == _as_tuples(_laurent_product(M, N))
            assert (X + Y).entries == _as_tuples([[x + y for x, y in zip(r, s)]
                                                  for r, s in zip(M, N)])
            for c in (0, 3, Fraction(-1, 2), one - t ** -2):
                assert (X * c).entries == _as_tuples([[x * c for x in row] for row in M]), c
            power = [[one if i == j else zero for j in range(len(H))] for i in range(len(H))]
            for m in range(4):
                assert (LambdaMatrix(H) ** m).entries == _as_tuples(power), m
                power = _laurent_product(power, H)

    def test_bar_transpose_and_hermitian_test(self, rng):
        verdicts = []
        for M, H in _cases(rng):
            for rows in (M, H):
                W = LambdaMatrix(rows)
                assert W.bar_transpose().entries == _as_tuples(_laurent_bar_transpose(rows))
                assert W.is_hermitian == _laurent_is_hermitian(rows)
            assert LambdaMatrix(H).is_hermitian
            verdicts.append(LambdaMatrix(M).is_hermitian)
        assert any(verdicts) and not all(verdicts)

    def test_values_at_plus_and_minus_one(self, rng):
        for M, H in _cases(rng):
            for rows in (M, H):
                W = LambdaMatrix(rows)
                assert W.eval_at_one() == _laurent_at_sign(rows, 1)
                assert W._at_sign(-1) == _laurent_at_sign(rows, -1)

    def test_cycle_substitutions(self, rng):
        forms = [H for _, H in _cases(rng, trials=2)]
        forms += [_laurent_clover(A) for A in _corpus_seiferts()]
        for H in forms:
            W = LambdaMatrix(H)
            for p in range(1, 6):
                assert subst_cycle(W, p) == _laurent_subst_cycle(H, p), (H, p)
                assert subst_twisted(W, p).entries == _as_tuples(_laurent_subst_twisted(H, p))

    def test_twisted_cycle_matrix(self):
        for p in range(1, 9):
            assert twisted_cycle_matrix(p).entries == _as_tuples(_laurent_twisted_cycle(p))

    def test_clover_forms_and_congruence_identity(self):
        for A in _corpus_seiferts():
            rows = _laurent_clover(A)
            knot = Knot(A)
            assert knot.clover.entries == _as_tuples(rows)
            assert congruence_identity_check(knot) is True is _laurent_congruence(A, rows)
            if not knot.genus:
                continue
            # a clover form off by t + t^-1 in one diagonal entry fails both routes
            rows[0][0] = rows[0][0] + t + t.bar()
            knot.clover = LambdaMatrix(rows)
            assert congruence_identity_check(knot) is False is _laurent_congruence(A, rows)



class TestRationalDet:
    def test_small_cases(self):
        assert rational_det([]) == 1
        assert rational_det([[Fraction(3)]]) == 3
        assert rational_det([[1, 2], [3, 4]]) == -2

    def test_matches_numpy_on_random_integer_matrices(self, rng):
        for _ in range(25):
            n = rng.randint(1, 6)
            M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            want = round(float(np.linalg.det(np.array(M, dtype=float))))
            assert rational_det(M) == want

    def test_fraction_entries(self):
        M = [[Fraction(1, 2), 1], [1, Fraction(1, 3)]]
        assert rational_det(M) == Fraction(1, 6) - 1

    def test_rejects_non_square_lists(self):
        for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]]):
            with pytest.raises(ValueError, match="rational_det needs a square matrix"):
                rational_det(rows)


def _leibniz(M):
    """Determinant as the signed sum over permutations (1 for n = 0)."""
    n = len(M)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for i in range(n):
            term = term * M[i][perm[i]]
        total = total + term
    return total


def _random_square(rng, n, entry, zero, shape):
    """A random n x n matrix with some zero entries; shape "pivot" zeroes
    the first column above its last row, so elimination must swap rows,
    "singular" repeats the first row and "column" zeroes the first column."""
    M = [[entry() if rng.random() < 0.7 else zero for _ in range(n)] for _ in range(n)]
    if shape == "pivot" and n >= 2:
        for i in range(n - 1):
            M[i][0] = zero
        M[-1][0] = entry() or 1
    elif shape == "singular" and n >= 2:
        M[-1] = list(M[0])
    elif shape == "column":
        for row in M:
            row[0] = zero
    return M


def _random_laurent(rng):
    return LaurentPoly({e: Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                        for e in range(-2, 3) if rng.random() < 0.5})


SHAPES = ("dense", "pivot", "singular", "column")


def _laurent_bareiss(M):
    """Oracle for ``LambdaMatrix.det``: fraction-free Bareiss elimination
    over the Laurent ring itself, each one-step division a ``divexact``
    by the previous pivot (the production route before Kronecker
    substitution).  M is a list of lists of LaurentPoly, eliminated in
    place."""
    n = len(M)
    sign, prev = 1, LaurentPoly.one()
    for k in range(n - 1):
        if not M[k][k]:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero()
        pk, row_k = M[k][k], M[k]
        for i in range(k + 1, n):
            mik, row_i = M[i][k], M[i]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pk - mik * row_k[j]).divexact(prev)
        prev = pk
    return sign * M[n - 1][n - 1] if n else LaurentPoly.one()


class TestDeterminantKernel:
    """rational_det and LambdaMatrix.det share one integer Bareiss
    elimination, the latter by Kronecker substitution; the Leibniz
    permutation sum and Bareiss over the Laurent ring are the independent
    routes."""

    def test_integer_and_fraction_matrices(self, rng):
        entries = [lambda: rng.randint(-5, 5),
                   lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4))]
        for _ in range(40):
            for shape in SHAPES:
                for entry in entries:
                    M = _random_square(rng, rng.randint(0, 4), entry, 0, shape)
                    want = _leibniz(M)
                    assert rational_det(M) == want

    def test_laurent_matrices(self, rng):
        for _ in range(15):
            for shape in SHAPES:
                M = _random_square(rng, rng.randint(0, 4), lambda: _random_laurent(rng), zero, shape)
                assert LambdaMatrix(M).det() == _leibniz(M)

    def test_kronecker_det_matches_leibniz_up_to_five(self, rng):
        # integer and rational coefficients, negative exponents, every shape
        entries = [lambda: LaurentPoly({e: rng.randint(-9, 9) for e in range(-3, 3)
                                        if rng.random() < 0.5}),
                   lambda: _random_laurent(rng),
                   lambda: LaurentPoly({rng.randint(-4, 4): Fraction(rng.randint(-9, 9), 7)})]
        for n in range(6):
            for shape in SHAPES:
                for entry in entries:
                    M = _random_square(rng, n, entry, zero, shape)
                    assert LambdaMatrix(M).det() == _leibniz(M)

    def test_kronecker_det_of_the_empty_and_zero_matrices(self):
        assert LambdaMatrix([]).det() == one
        for n in range(1, 5):
            assert LambdaMatrix([[LaurentPoly.zero()] * n for _ in range(n)]).det() == 0

    @pytest.mark.parametrize("c", [1, -1, 2, -3, 255, -256, Fraction(-5, 3)])
    def test_kronecker_det_where_hadamard_is_attained(self, c):
        # det(c t^k I) = c^n t^(nk) is the bound H itself: the one digit of
        # det P(2^B) is as large as the digits may get, with either sign
        for n in range(1, 6):
            for k in (-2, 0, 3):
                M = [[LaurentPoly({k: c}) if i == j else LaurentPoly.zero() for j in range(n)]
                     for i in range(n)]
                assert LambdaMatrix(M).det() == LaurentPoly({n * k: c ** n}) == _leibniz(M)

    def test_kronecker_det_with_large_digits_of_both_signs(self, rng):
        # one sign per row and large entries: negative digits next to
        # positive ones, so det P(2^B) borrows across digit boundaries
        for _ in range(40):
            n = rng.randint(1, 4)
            s = [rng.choice((1, -1)) for _ in range(n)]
            M = [[LaurentPoly({e: s[i] * rng.randint(5, 9) for e in range(-1, 2)})
                  for _ in range(n)] for i in range(n)]
            M = [[M[i][j] if i == j else M[i][j] * rng.choice((0, 1)) for j in range(n)]
                 for i in range(n)]
            assert LambdaMatrix(M).det() == _leibniz(M)

    @pytest.mark.parametrize("g", range(1, 11))
    def test_kronecker_det_matches_laurent_bareiss_on_clover_forms(self, g):
        rng = random.Random(1000 + g)
        for _ in range(3 if g <= 6 else 1):
            W = Knot(random_seifert(g, rng)).clover
            assert W.det() == _laurent_bareiss([list(row) for row in W.entries])

    def test_sparse_integer_matrices_against_the_laurent_oracle(self, rng):
        # most multipliers are 0, so most rows are rescaled lazily, some over
        # many steps, before they are used
        for _ in range(30):
            n = rng.randint(1, 18)
            M = [[rng.choice((0, 0, 0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                M[i][i] = rng.choice((1, -1, 2, 3, 5))
            want = _laurent_bareiss([[LaurentPoly.const(x) for x in row] for row in M])
            assert rational_det(M) == want.eval_one()


class TestProductAndPower:
    def test_matmul_and_pow_match_the_entrywise_definition(self, rng):
        for _ in range(8):
            n = rng.randint(1, 3)
            A, B = (_random_square(rng, n, lambda: _random_laurent(rng), zero, "dense")
                    for _ in range(2))
            assert LambdaMatrix(A) @ LambdaMatrix(B) == LambdaMatrix(_laurent_product(A, B))
            power = [[one if i == j else zero for j in range(n)] for i in range(n)]
            for m in range(6):
                if m in (0, 1, 5):
                    assert LambdaMatrix(A) ** m == LambdaMatrix(power), m
                power = _laurent_product(power, A)

    def test_pow_starts_from_the_first_factor(self, monkeypatch):
        # ** is exactalg._power over @: p = 1 and 2 cost no and one product,
        # 5 = 101b two squares and one product
        products = []
        matmul = LambdaMatrix.__matmul__

        def counted(X, Y):
            products.append(X.n)
            return matmul(X, Y)

        monkeypatch.setattr(LambdaMatrix, "__matmul__", counted)
        M = LambdaMatrix([[1, 2 * t], [3, 4]])
        powers = [M ** p for p in (0, 1, 2, 5)]
        assert powers[0] == LambdaMatrix.identity(2) and powers[1] is M
        assert products == [2] * (0 + 0 + 1 + 3)
        assert powers[3] == matmul(matmul(powers[2], powers[2]), M)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="negative matrix power not supported"):
            LambdaMatrix.identity(2) ** -1


def _fraction_congruence(rows):
    """Inertia by congruence diagonalization over Q (the oracle): 1x1
    pivots with Schur complement updates in Fractions, and a zero active
    diagonal repaired by adding row and column j to row and column i."""
    n = len(rows)
    M = [[Fraction(x) for x in row] for row in rows]
    plus = minus = 0
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if M[i][j]), None)
            if off is None:
                return plus, minus, n - k
            piv, j = off
            for c in range(k, n):
                M[piv][c] += M[j][c]
            for row in M[k:]:
                row[piv] += row[j]
        M[k], M[piv] = M[piv], M[k]
        for row in M:
            row[k], row[piv] = row[piv], row[k]
        row_k = M[k]
        d = row_k[k]
        plus, minus = (plus + 1, minus) if d > 0 else (plus, minus + 1)
        for i in range(k + 1, n):
            if not row_k[i]:
                continue
            r, row_i = row_k[i] / d, M[i]
            for j in range(i, n):
                row_i[j] -= r * row_k[j]
                M[j][i] = row_i[j]
    return plus, minus, 0


class TestSignatureExact:
    def test_rejects_non_square_and_non_symmetric_lists(self):
        for rows in ([[1, 2], [2]], [[1, 2, 3], [2, 1, 0]]):
            with pytest.raises(ValueError, match="square"):
                signature_exact(rows)
        with pytest.raises(ValueError, match="symmetric"):
            signature_exact([[1, 2], [3, 1]])

    def test_diagonal(self):
        S = [[2, 0, 0], [0, -3, 0], [0, 0, 0]]
        assert signature_exact(S) == (1, 1, 1)

    def test_hyperbolic_block(self):
        assert signature_exact([[0, 5], [5, 0]]) == (1, 1, 0)
        assert signature_exact([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) == (1, 1, 1)

    @staticmethod
    def _numpy_inertia(S):
        eigs = np.linalg.eigvalsh(np.array(S, dtype=float))
        return (
            int((eigs > 1e-8).sum()),
            int((eigs < -1e-8).sum()),
            int((np.abs(eigs) <= 1e-8).sum()),
        )

    def test_matches_numpy_inertia_on_random_matrices(self, rng):
        for _ in range(40):
            n = rng.randint(1, 7)
            B = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            S = [[B[i][j] + B[j][i] for j in range(n)] for i in range(n)]
            assert signature_exact(S) == self._numpy_inertia(S)

    def test_matches_numpy_inertia_with_zero_diagonals(self, rng):
        # a zero diagonal forces the row-and-column addition before a pivot;
        # half the matrices have rational entries, a third are sparse
        for trial in range(600):
            n = rng.randint(2, 8)
            den = (lambda: rng.randint(1, 5)) if trial % 2 else (lambda: 1)
            S = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if trial % 3 or rng.random() < 0.3:
                        S[i][j] = S[j][i] = Fraction(rng.randint(-4, 4), den())
            assert signature_exact(S) == self._numpy_inertia(S), S

    def test_integer_bareiss_matches_fraction_congruence_and_numpy(self, rng):
        # zero diagonals force the repair, rational entries the scaling by
        # the lcm of the denominators, a repeated row and column a kernel
        for trial in range(1500):
            n = rng.randint(1, 8)
            den = (lambda: rng.randint(1, 6)) if trial % 2 else (lambda: 1)
            S = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.6 and (i != j or trial % 3):
                        S[i][j] = S[j][i] = Fraction(rng.randint(-5, 5), den())
            if trial % 5 == 0 and n >= 2:
                S[-1] = list(S[0])
                for i in range(n):
                    S[i][-1] = S[-1][i]
            want = _fraction_congruence(S)
            assert signature_exact(S) == want == self._numpy_inertia(S), S

    def test_corpus_cycle_substitutions_match_fraction_congruence(self):
        # irregular p leave a kernel, so singular matrices are covered too
        for rec in corpus_records():
            W = rec.knot.clover
            if not W.n:
                assert signature_exact(subst_cycle(W, 3)) == (0, 0, 0)  # the unknot
                continue
            for p in range(1, 11):
                S = subst_cycle(W, p)
                assert signature_exact(S) == _fraction_congruence(S) == self._numpy_inertia(S), (
                    rec.name, p)

    def test_exact_signs_at_plus_and_minus_one_match_eigenvalues(self, rng):
        # sigma(W(1)) from eval_at_one, sigma(W(-1)) from the alternating
        # coefficient sum, on Hermitian forms with rational coefficients
        checked = 0
        for _ in range(60):
            n = rng.randint(1, 4)
            M = LambdaMatrix([[_random_laurent(rng) for _ in range(n)] for _ in range(n)])
            W = M + M.bar_transpose()
            for w in (1, -1):
                eigs = np.linalg.eigvalsh(W.eval_complex(w))
                if np.abs(eigs).min() < 1e-9:
                    with pytest.raises(SingularEvaluation):
                        lambdamat._sigma_exact_at(W, w)
                    continue
                want = int((eigs > 0).sum()) - int((eigs < 0).sum())
                assert lambdamat._sigma_exact_at(W, w) == want
                checked += 1
        assert checked > 60


def _gaussian_rows(H):
    """_inertia's input for a Hermitian H = X + iY with integer parts: its
    real form R = [[X, -Y], [Y, X]], unitarily similar to H + conj(H), so
    each count of R is twice that of H."""
    X = [[int(z.real) for z in row] for row in H]
    Y = [[int(z.imag) for z in row] for row in H]
    return ([x + [-y for y in v] for x, v in zip(X, Y)]
            + [v + x for x, v in zip(X, Y)])


def _halved(counts):
    """H's inertia from its real form's: each count is even."""
    if any(c % 2 for c in counts):
        raise AssertionError("odd count %r from a real form" % (counts,))
    return tuple(c // 2 for c in counts)


def _random_gaussian_hermitian(rng, n, diagonal=True, real=True, density=1.0):
    """A Hermitian n x n matrix with integer parts in -4..4 (a zero
    diagonal unless ``diagonal``, zero real parts off it unless ``real``),
    each off-diagonal entry nonzero with probability about ``density``."""
    H = np.zeros((n, n), dtype=complex)
    for i in range(n):
        H[i, i] = rng.randint(-4, 4) if diagonal else 0
        for j in range(i + 1, n):
            if rng.random() < density:
                H[i, j] = complex(rng.randint(-4, 4) if real else 0, rng.randint(-4, 4))
                H[j, i] = H[i, j].conjugate()
    return H


class TestGaussianInertia:
    """Hermitian inertia through the integer kernel on the real form, against
    numpy's Hermitian eigensolve."""

    @staticmethod
    def _numpy_inertia(H):
        eigs = np.linalg.eigvalsh(np.asarray(H, dtype=complex))
        return (int((eigs > 1e-8).sum()), int((eigs < -1e-8).sum()),
                int((np.abs(eigs) <= 1e-8).sum()))

    def test_matches_numpy_on_random_hermitian_matrices(self, rng):
        for _ in range(300):
            H = _random_gaussian_hermitian(rng, rng.randint(1, 8), density=rng.choice([0.3, 1.0]))
            assert _halved(_inertia(_gaussian_rows(H))) == self._numpy_inertia(H), H

    def test_zero_corner_branches(self):
        # on the real form a zero corner takes c = 1 (M[j][j] - 2 M[k][j] != 0)
        # or c = -1 (M[j][j] = 2 M[k][j] != 0); a purely imaginary entry such
        # as 2i lies in R's off-diagonal blocks and takes c = 1
        for H, want in (([[0, 3], [3, 0]], (1, 1, 0)), ([[0, 1 + 2j], [1 - 2j, 0]], (1, 1, 0)),
                        ([[0, 1], [1, 2]], (1, 1, 0)), ([[0, 2 - 1j], [2 + 1j, 4]], (1, 1, 0)),
                        ([[0, 2j], [-2j, 0]], (1, 1, 0)), ([[0, -5j], [5j, 0]], (1, 1, 0)),
                        ([[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]], (1, 1, 1)),
                        ([[0, 0], [0, 0]], (0, 0, 2)), ([[0, 0], [0, -3]], (0, 1, 1))):
            assert _halved(_inertia(_gaussian_rows(H))) == want == self._numpy_inertia(H), H

    def test_zero_diagonals_with_real_and_imaginary_entries(self, rng):
        # every corner of the real form starts zero; with real parts off
        # each repair pairs a row of X with a row of Y, with them on mostly
        # a row of X
        for trial in range(400):
            H = _random_gaussian_hermitian(rng, rng.randint(2, 8), diagonal=False,
                                           real=trial % 2 == 0, density=rng.choice([0.3, 1.0]))
            assert _halved(_inertia(_gaussian_rows(H))) == self._numpy_inertia(H), H

    def test_singular_matrices(self, rng):
        # H = C^H D C, C of k < n rows and full rank k, D = diag(+-1): the
        # inertia of D plus n - k zeros
        checked = 0
        for _ in range(200):
            n = rng.randint(2, 7)
            k = rng.randint(1, n - 1)
            C = np.array([[complex(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
                          for _ in range(k)])
            if np.linalg.matrix_rank(C) < k:
                continue
            D = [rng.choice([1, -1]) for _ in range(k)]
            H = C.conj().T @ np.diag(D) @ C
            want = (D.count(1), D.count(-1), n - k)
            assert _halved(_inertia(_gaussian_rows(H))) == want == self._numpy_inertia(H), H
            checked += 1
        assert checked > 150

    def test_real_gaussian_matrix_matches_the_integer_case(self, rng):
        # Y = 0: R is S twice over, block diagonal, with twice its inertia
        for _ in range(100):
            n = rng.randint(1, 7)
            B = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            S = [[B[i][j] + B[j][i] for j in range(n)] for i in range(n)]
            H = [[complex(x, 0) for x in row] for row in S]
            assert _halved(_inertia(_gaussian_rows(H))) == signature_exact(S)


class TestIntegerEntries:
    """Over Z[t, t^-1] the exact kernels build no Fraction."""

    def test_det_and_cycle_substitution_keep_int_entries(self, rng):
        for _ in range(30):
            M = _random_square(rng, rng.randint(1, 4),
                               lambda: LaurentPoly({e: rng.randint(-3, 3) for e in range(-2, 3)}),
                               zero, rng.choice(SHAPES))
            d = LambdaMatrix(M).det()
            assert d == _leibniz(M)
            assert all(type(c) is int for c in d.coeffs.values())
        for rec in corpus_records():
            W = rec.knot.clover
            assert all(type(c) is int for C in W.coeffs.values() for row in C for c in row)
            assert all(type(c) is int for c in W.det().coeffs.values())
            for p in (2, 5):
                assert all(type(x) is int for row in subst_cycle(W, p) for x in row)


class TestLambdaMatrix:
    def test_pow_and_unitarity_of_twisted_cycle(self):
        T = twisted_cycle_matrix(3)
        assert T ** 3 == LambdaMatrix.identity(3) * t
        assert T @ T.bar_transpose() == LambdaMatrix.identity(3)

    def test_hermitian_detection(self):
        W = LambdaMatrix([[one, t], [t.bar(), one]])
        assert W.is_hermitian
        assert not LambdaMatrix([[one, t], [t, one]]).is_hermitian

    def test_det_with_laurent_entries(self):
        W = LambdaMatrix([[t, one], [one, 2 * t.bar()]])
        assert W.det() == one  # 2 t t^-1 - 1

    def test_det_needs_row_swaps(self):
        Z = LaurentPoly.zero()
        W = LambdaMatrix([[Z, one], [one, Z]])
        assert W.det() == -one

    def test_eval_complex_matches_entries(self):
        W = LambdaMatrix([[t, one], [one, t.bar()]])
        M = W.eval_complex(2j)
        assert M[0][0] == pytest.approx(2j)
        assert M[1][1] == pytest.approx(1 / 2j)

    def test_eval_complex_matches_per_entry_evaluation(self, rng):
        for _ in range(25):
            n = rng.randint(0, 5)
            W = LambdaMatrix(
                [
                    [
                        LaurentPoly(
                            {
                                e: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                for e in range(-3, 4)
                                if rng.random() < 0.5
                            }
                        )
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
            )
            off_circle = complex(rng.uniform(0.5, 2), rng.uniform(-2, 2))
            for z in (cmath.exp(1j * rng.uniform(0, 7)), off_circle):
                want = np.array([[e.evaluate(z) for e in row] for row in W.entries], dtype=complex)
                got = W.eval_complex(z)
                assert got.shape == (n, n)
                scale = max(1.0, np.abs(want).max(initial=0.0))
                assert np.abs(got - want).max(initial=0.0) <= 1e-12 * scale

    def test_non_hermitian_reads_false_on_every_read(self):
        W = LambdaMatrix([[one, t], [t, one]])
        for _ in range(2):
            assert W.is_hermitian is False
            W.eval_complex(1j)
            with pytest.raises(NotHermitian):
                varsigma_at(W, 1, 3)
        assert LambdaMatrix([[one, t], [t.bar(), one]]).is_hermitian is True


class TestCoefficientsAlone:
    """A LambdaMatrix is its size and its coefficient matrices: every
    derived fact is computed where it is read, and no read writes to W."""

    def test_slots_are_the_size_and_the_coefficients(self):
        assert LambdaMatrix.__slots__ == ("n", "coeffs")
        assert not hasattr(LambdaMatrix.identity(2), "__dict__")

    def test_reads_leave_both_slots_as_they_were(self, trefoil):
        W = clover_matrix(trefoil)
        n, coeffs = W.n, W.coeffs
        reads = [
            lambda: W.is_hermitian,
            W.eval_at_one,
            W.det,
            lambda: W.eval_complex(np.array([1j, -1.0])).tolist(),
            lambda: varsigma_at(W, 1, 2),  # w = -1, exact
            lambda: varsigma_at(W, 0, 5),  # w = 1
            lambda: varsigma_at(W, np.arange(5), 5).tolist(),  # numeric roots
            lambda: varsigma_p(W, 3),
            lambda: subst_cycle(W, 4),
            lambda: normalized_determinant(W),
        ]
        for read in reads:
            first = read()
            assert W.n is n and W.coeffs is coeffs
            assert W == LambdaMatrix.from_coeffs(W.coeffs, W.n)
            assert read() == first  # recomputed, and the same


def _random_hermitian_stack(np_rng, m, n):
    X = np_rng.normal(size=(m, n, n)) + 1j * np_rng.normal(size=(m, n, n))
    return X + np.conj(np.swapaxes(X, -1, -2))


class TestStackedComplexSignature:
    def test_stack_equals_loop_over_slices(self):
        np_rng = np.random.default_rng(7)
        for m, n in ((1, 1), (5, 2), (40, 4), (200, 6), (3, 0)):
            H = _random_hermitian_stack(np_rng, m, n)
            got = complex_signature(H)
            assert isinstance(got, np.ndarray) and got.shape == (m,)
            want = [complex_signature(H[i]) for i in range(m)]
            assert all(isinstance(x, int) for x in want)
            assert got.tolist() == want

    def test_one_bad_slice_raises(self):
        np_rng = np.random.default_rng(11)
        for bad in (0, 17, 39):
            H = _random_hermitian_stack(np_rng, 40, 4)
            skew = H.copy()
            skew[bad, 0, 1] += 1e-3
            with pytest.raises(NotHermitian):
                complex_signature(skew[bad])
            with pytest.raises(NotHermitian):
                complex_signature(skew)
            singular = H.copy()
            singular[bad] = 0.0
            singular[bad, 1, 1] = 1.0
            with pytest.raises(SingularEvaluation):
                complex_signature(singular[bad])
            with pytest.raises(SingularEvaluation):
                complex_signature(singular)
            assert complex_signature(np.delete(singular, bad, axis=0)).shape == (39,)


class TestCycleSubstitution:
    def test_subst_cycle_block_structure(self):
        # entry (i p + a, j p + b) collects the coefficients c_m of W_ij
        # with m = b - a mod p
        W = LambdaMatrix([[2 * one + t + t.bar()]])
        S = subst_cycle(W, 3)
        assert S == (
            (Fraction(2), Fraction(1), Fraction(1)),
            (Fraction(1), Fraction(2), Fraction(1)),
            (Fraction(1), Fraction(1), Fraction(2)),
        )

    def test_twisted_matches_cycle_at_one(self, rng):
        for _ in range(10):
            n = rng.randint(1, 3)
            M = LambdaMatrix(
                [
                    [LaurentPoly({e: rng.randint(-2, 2) for e in range(-2, 3)}) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            W = M + M.bar_transpose()
            p = rng.choice([2, 3, 4])
            Tw = subst_twisted(W, p)
            assert Tw.is_hermitian
            assert tuple(tuple(r) for r in Tw.eval_at_one()) == subst_cycle(W, p)


class TestSignaturesOfCloverForms:
    def test_trefoil_varsigma_values(self, trefoil):
        W = clover_matrix(trefoil)
        assert varsigma_p(W, 2) == -2
        assert varsigma_p(W, 3) == -4

    def test_varsigma_at_zero_is_zero(self, trefoil):
        W = clover_matrix(trefoil)
        assert varsigma_at(W, 0, 5) == 0

    def test_per_root_sum_equals_exact(self, trefoil, figure8):
        for A in (trefoil, figure8):
            W = clover_matrix(A)
            for p in (2, 3, 4, 5, 7):
                assert varsigma_p(W, p) == sum(varsigma_at(W, k, p) for k in range(p))

    def test_singular_root_raises(self, trefoil):
        W = clover_matrix(trefoil)
        with pytest.raises(SingularEvaluation):
            varsigma_at(W, 1, 6)  # primitive 6th root kills the trefoil form

    def test_exact_evaluation_at_minus_one(self, figure8):
        W = clover_matrix(figure8)
        # p even, k = p/2: the exact rational route must agree with eigenvalues
        got = varsigma_at(W, 1, 2)
        H = W.eval_complex(cmath.exp(1j * cmath.pi))
        eigs = np.linalg.eigvalsh(np.array(H, dtype=complex))
        assert got == int((eigs > 0).sum()) - int((eigs < 0).sum())

    @pytest.mark.parametrize("k,p", [(1, 2), (2, 4), (3, 6)])
    def test_singular_minus_one_raises_on_every_call(self, k, p):
        W = LambdaMatrix([[2 * one + t + t.bar()]])  # 4 at t = 1, 0 at t = -1
        for _ in range(3):
            with pytest.raises(SingularEvaluation):
                varsigma_at(W, k, p)
        assert varsigma_at(W, 1, 3) == 0

    def test_singular_one_raises_on_every_call(self):
        W = LambdaMatrix([[2 * one - t - t.bar()]])  # 0 at t = 1
        for k, p in ((1, 3), (1, 2), (1, 3), (2, 5), (1, 2)):
            with pytest.raises(SingularEvaluation):
                varsigma_at(W, k, p)
        with pytest.raises(SingularEvaluation):
            varsigma_at(W, np.array([1, 2]), np.array([3, 4]))
        assert varsigma_at(W, 0, 3) == 0  # w = 1 itself reads no signature

    def test_array_equals_scalar_root_by_root(self, rng):
        # mixed p = 2..12 in one call, k = 0 mod p and 2k = p included
        ks = np.concatenate([np.arange(-1, p + 2) for p in range(2, 13)])
        ps = np.concatenate([np.full(p + 3, p) for p in range(2, 13)])
        knots = [rec.knot for rec in corpus_records()]
        knots += [Knot(random_seifert(rng.randint(1, 3), rng)) for _ in range(50)]
        singular_seen = 0
        for K in knots:
            W = K.clover
            want, regular = [], []
            for k, p in zip(ks.tolist(), ps.tolist()):
                try:
                    want.append(varsigma_at(W, k, p))
                    regular.append(True)
                except SingularEvaluation:
                    regular.append(False)
            regular = np.array(regular)
            got = varsigma_at(W, ks[regular], ps[regular])
            assert isinstance(got, np.ndarray) and got.tolist() == want
            assert all(type(x) is int for x in want)
            if not regular.all():
                singular_seen += 1
                with pytest.raises(SingularEvaluation):
                    varsigma_at(W, ks, ps)
        assert singular_seen > 0

    def test_array_shapes_broadcast(self, trefoil):
        W = clover_matrix(trefoil)
        assert varsigma_at(W, np.arange(5), 5).tolist() == [0, -2, -2, -2, -2]
        grid = varsigma_at(W, np.arange(4)[:, None], np.array([4, 5, 7]))
        assert grid.shape == (4, 3)
        for k in range(4):
            assert grid[k].tolist() == [varsigma_at(W, k, p) for p in (4, 5, 7)]
        assert varsigma_at(W, np.array([], dtype=int), 5).shape == (0,)
        assert type(varsigma_at(W, np.int64(1), np.int64(3))) is int
        with pytest.raises(ValueError, match="positive"):
            varsigma_at(W, np.arange(3), np.array([3, 0, 3]))
        # int64 throughout: the half root of p = 2^62 is found without overflow
        assert varsigma_at(W, 3 * 2 ** 61, 2 ** 62) == varsigma_at(W, 1, 2) == -2
        with pytest.raises(OverflowError):
            varsigma_at(W, 1, 2 ** 63)

    def test_one_singular_root_in_an_array_raises(self, trefoil):
        W = clover_matrix(trefoil)
        ks, ps = np.array([1, 2, 1, 3, 4]), np.array([5, 5, 6, 7, 9])  # 1/6 kills the trefoil form
        with pytest.raises(SingularEvaluation):
            varsigma_at(W, ks, ps)
        keep = np.arange(5) != 2
        assert varsigma_at(W, ks[keep], ps[keep]).tolist() == [-2, -2, -2, -2]

    def test_eval_complex_stacks(self, figure8):
        W = clover_matrix(figure8)
        zs = np.exp(1j * np.linspace(0.1, 6.0, 12)).reshape(3, 4)
        stack = W.eval_complex(zs)
        assert stack.shape == (3, 4, W.n, W.n)
        for idx in np.ndindex(3, 4):  # one matmul against many: equal up to summation order
            assert np.abs(stack[idx] - W.eval_complex(zs[idx])).max() <= 1e-13

    def test_normalized_determinant_is_symmetric_and_one_at_one(self, figure8):
        d = normalized_determinant(clover_matrix(figure8))
        assert d.is_bar_symmetric
        assert d.eval_one() == 1

    def test_complex_signature_rejects_singular(self):
        with pytest.raises(SingularEvaluation):
            complex_signature(np.array([[0.0]]))
