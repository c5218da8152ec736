"""Matrices over Laurent polynomials, exact signatures, cycle substitutions."""

import cmath
from fractions import Fraction

import numpy as np
import pytest

from knotcovers.exactalg import LaurentPoly
from knotcovers.lambdamat import (
    LambdaMatrix,
    NotHermitian,
    SingularEvaluation,
    SymRatMatrix,
    complex_signature,
    cycle_matrix,
    normalized_determinant,
    rational_det,
    signature_exact,
    subst_cycle,
    subst_twisted,
    twisted_cycle_matrix,
    varsigma_at,
    varsigma_p,
)
from knotcovers.seifert import clover_matrix

t = LaurentPoly.t()
one = LaurentPoly.one()


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


class TestSignatureExact:
    def test_diagonal(self):
        S = SymRatMatrix([[2, 0, 0], [0, -3, 0], [0, 0, 0]])
        assert signature_exact(S) == (1, 1, 1)

    def test_hyperbolic_block(self):
        S = SymRatMatrix([[0, 5], [5, 0]])
        assert signature_exact(S) == (1, 1, 0)

    def test_matches_numpy_inertia_on_random_matrices(self, rng):
        for _ in range(40):
            n = rng.randint(1, 7)
            B = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            S = [[B[i][j] + B[j][i] for j in range(n)] for i in range(n)]
            eigs = np.linalg.eigvalsh(np.array(S, dtype=float))
            want = (
                int((eigs > 1e-8).sum()),
                int((eigs < -1e-8).sum()),
                int((np.abs(eigs) <= 1e-8).sum()),
            )
            assert signature_exact(SymRatMatrix(S)) == want


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

    def test_json_roundtrip(self):
        W = LambdaMatrix([[t ** -2, one], [3 * t, t.bar() - one]])
        assert LambdaMatrix.from_json(W.to_json()) == W

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

    def test_cached_hermitian_check_stays_false(self):
        W = LambdaMatrix([[one, t], [t, one]])
        for _ in range(2):
            assert W.is_hermitian is False
            W.eval_complex(1j)
            with pytest.raises(NotHermitian):
                varsigma_at(W, 1, 3)
        assert LambdaMatrix([[one, t], [t.bar(), one]]).is_hermitian is True


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
    def test_plain_cycle_matrix_is_cyclic_permutation(self):
        T = cycle_matrix(4)
        arr = np.array(T)
        assert (np.linalg.matrix_power(arr, 4) == np.eye(4, dtype=int)).all()
        assert (np.linalg.matrix_power(arr, 2) != np.eye(4, dtype=int)).any()

    def test_subst_cycle_block_structure(self):
        # entry (i p + a, j p + b) collects the coefficients c_m of W_ij
        # with m = b - a mod p
        W = LambdaMatrix([[2 * one + t + t.bar()]])
        S = subst_cycle(W, 3)
        assert S.entries == (
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
            assert tuple(tuple(r) for r in Tw.eval_at_one()) == subst_cycle(W, p).entries


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
        for k, p in ((1, 3), (1, 2), (1, 3)):
            with pytest.raises(SingularEvaluation):
                varsigma_at(W, k, p)

    def test_normalized_determinant_is_symmetric_and_one_at_one(self, figure8):
        d = normalized_determinant(clover_matrix(figure8))
        assert d.is_bar_symmetric
        assert d.eval_one() == 1

    def test_complex_signature_rejects_singular(self):
        with pytest.raises(SingularEvaluation):
            complex_signature(np.array([[0.0]]))
