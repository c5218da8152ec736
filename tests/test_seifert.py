"""Seifert matrices, Alexander polynomials, clover forms, the corpus."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import knotcovers.seifert
from knotcovers.branched import total_sigma_p
from knotcovers.exactalg import (LaurentPoly, _mat_mul, _mat_pow, _mul_rows, _powmod,
                                 circle_roots, cyclotomic_norm)
from knotcovers.lambdamat import (
    AtOne,
    LambdaMatrix,
    NotHermitian,
    SingularEvaluation,
    _bareiss,
    rational_det,
    root_of_unity,
    varsigma_p,
)
from knotcovers.seifert import (
    Knot,
    KnotRecord,
    NotUnimodularAtOne,
    OddSize,
    alexander,
    clover_matrix,
    congruence_identity_check,
    corpus_records,
    random_seifert,
    sigma_at_omega,
    signature_function,
    validate_seifert,
)
from knotcovers.seifert import _simplest_tangent

t = LaurentPoly.t()
one = LaurentPoly.one()


def canonical_symmetric(f):
    """The representative of f's unit class { +-t^k f } that is
    bar-symmetric with positive value at 1; the oracle that centres a
    determinant computed up to a unit.  Raises if none exists."""
    s = f.min_exp + f.max_exp
    if s % 2 != 0:
        raise ValueError("no symmetric representative: odd exponent span")
    g = f.shift(-s // 2)
    if g.eval_one() < 0:
        g = -g
    if not g.is_bar_symmetric:
        raise ValueError("unit class contains no bar-symmetric element")
    return g


class TestValidation:
    def test_accepts_trefoil(self, trefoil):
        assert validate_seifert(trefoil) == [[-1, 1], [0, -1]]

    def test_rejects_odd_size(self):
        with pytest.raises(OddSize):
            validate_seifert([[1]])

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularAtOne):
            validate_seifert([[1, 0], [0, 1]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            validate_seifert([[1, 0]])

    def test_accepts_integral_fractions(self):
        A = validate_seifert([[Fraction(-1), Fraction(1)], [Fraction(0), Fraction(-1)]])
        assert A == [[-1, 1], [0, -1]]

    def test_empty_matrix_is_the_unknot(self):
        assert validate_seifert([]) == []
        assert alexander([]) == one

    def test_random_seifert_is_always_valid(self, rng):
        for g in (1, 2, 3):
            for _ in range(20):
                A = random_seifert(g, rng)
                assert len(A) == 2 * g
                validate_seifert(A)


class TestAlexander:
    def test_trefoil(self, trefoil):
        assert str(alexander(trefoil)) == "t^-1 - 1 + t"

    def test_figure8(self, figure8):
        assert str(alexander(figure8)) == "-t^-1 + 3 - t"

    def test_normalization(self, rng):
        for _ in range(30):
            A = random_seifert(rng.choice([1, 2]), rng)
            d = alexander(A)
            assert d.eval_one() == 1
            assert d.is_bar_symmetric

    def test_genus(self, trefoil):
        assert Knot(trefoil).genus == 1
        assert Knot([]).genus == 0

    def test_canonical_symmetric_centers_and_signs(self):
        f = (one + t) * (one + t)  # centered rep is t^-1 + 2 + t
        g = canonical_symmetric(-(t ** 3) * f)
        assert g == t ** -1 + 2 * one + t
        with pytest.raises(ValueError):
            canonical_symmetric(one + t)  # odd span: no symmetric representative


class TestKnot:
    def test_derives_each_value_once_and_functions_accept_it(self, figure8):
        knot = Knot(figure8)
        assert Knot.of(knot) is knot
        assert alexander(knot) is knot.delta == alexander(figure8)
        assert clover_matrix(knot) is knot.clover == clover_matrix(figure8)
        # |H_1| of the 2- and 3-fold covers of the figure-8: 5 and 16
        assert [knot.beta(p) for p in (2, 3)] == [5, 16]
        assert sigma_at_omega(knot, -1) == sigma_at_omega(figure8, -1)

    def test_validates_on_construction(self):
        with pytest.raises(OddSize):
            Knot([[1]])

    def test_a_refused_arc_table_is_raised_again_without_a_second_search(self, monkeypatch):
        # the block sum of [[a, 1], [0, 1]] at a = 2^26 and 2^26 + 1 has two
        # circle roots too close for floats to separate; a second read of
        # the table raises the kept refusal and searches no roots again
        calls = []
        real = knotcovers.seifert.circle_roots
        monkeypatch.setattr(knotcovers.seifert, "circle_roots",
                            lambda f: calls.append(f) or real(f))
        a = 2 ** 26
        knot = Knot([[a, 1, 0, 0], [0, 1, 0, 0], [0, 0, a + 1, 1], [0, 0, 0, 1]])
        messages = []
        for _ in range(2):
            with pytest.raises(SingularEvaluation, match="too close for floats") as refusal:
                knot.arcs
            messages.append(str(refusal.value))
        assert messages[0] == messages[1] and len(calls) == 1


def resultant_beta(A, p):
    """Oracle for Knot.beta: |cyclotomic norm of the Alexander polynomial|."""
    return abs(cyclotomic_norm(alexander(A), p))


def matrix_beta(A, p):
    """Oracle for Knot.beta: Seifert's presentation matrix itself,
    |det(Gamma^p - (Gamma - I)^p)| by matrix powers and ``rational_det``."""
    G = Knot(A).gamma
    H = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(G)]
    Gp, Hp = _mat_pow(G, p), _mat_pow(H, p)
    return abs(int(rational_det([[a - b for a, b in zip(r, s)] for r, s in zip(Gp, Hp)])))


def chi_beta(A, p):
    """Oracle for Knot.beta: the norm of r_p = x^p - (x - 1)^p in Z[x]/chi,
    chi = det(xI - Gamma).  By Cayley-Hamilton r_p(Gamma) = Gamma^p -
    (Gamma - I)^p, so beta_p is |det| of multiplication by r_p mod chi, one
    2g x 2g integer Bareiss on the rows x^i r_p mod chi."""
    chi = Knot(A).charpoly
    if len(chi) == 1:
        return 1  # g = 0: the zero ring
    xp, hp = _powmod([0, 1], p, chi), _powmod([-1, 1], p, chi)
    xp, hp = (r + [0] * (len(chi) - 1 - len(r)) for r in (xp, hp))
    return abs(_bareiss(_mul_rows([a - b for a, b in zip(xp, hp)], chi)))


LADDERS = {
    "ascending": list(range(1, 41)),
    "descending": list(range(40, 0, -3)),
    "repeated": [7, 7, 8, 8, 8, 3, 3, 1, 1],
    "jumping": [1, 2, 64, 65, 500, 1000, 999, 1000, 2],
    "steps of two": [9, 11, 13, 11, 9, 7, 8, 10, 12, 10, 8],
    "interleaved parities": [20, 21, 20, 22, 21, 23, 24, 26, 25, 27],
    "jump after a long ladder": list(range(1, 90)) + [3, 600, 601, 4, 89],
}


class TestSeifertPresentation:
    @pytest.mark.parametrize("g", [0, 1, 2, 3, 4])
    def test_matches_the_matrix_power_route_on_every_ladder(self, g, rng):
        for A in (random_seifert(g, rng), random_seifert(g, rng)):
            B = conjugate(A, random_unimodular(2 * g, rng))  # not banded
            want = {p: matrix_beta(A, p) for ps in LADDERS.values() for p in ps}
            assert want[2] == resultant_beta(A, 2) and want[1] == 1
            for name, ps in LADDERS.items():
                for M in (A, B):
                    knot = Knot(M)
                    assert [knot.beta(p) for p in ps] == [want[p] for p in ps], (g, name)

    def test_delta_and_beta_share_one_charpoly(self, figure8, monkeypatch):
        calls = []
        charpoly = knotcovers.seifert._charpoly

        def counted(M):
            calls.append(len(M))
            return charpoly(M)

        monkeypatch.setattr(knotcovers.seifert, "_charpoly", counted)
        knot = Knot(figure8)
        ps = (3, 2, 40, 41)
        assert [knot.beta(p) for p in ps] == [matrix_beta(figure8, p) for p in ps]
        assert knot.delta == alexander(figure8) and knot.charpoly == [-1, -1, 1]
        assert calls == [2, 2]  # this knot's once, then the fresh alexander(figure8)

    def test_any_basis_gives_the_same_beta(self, rng):
        # A -> P^T A P with a unimodular P that mixes x_1 into y_1 and
        # swaps x_2, y_2: still a Seifert matrix of the same knot, not banded
        A = random_seifert(2, rng)
        P = [[1, 0, 0, 0], [0, 0, 0, 1], [2, 0, 1, 0], [0, 1, 0, 0]]
        B = [[sum(P[k][i] * A[k][l] * P[l][j] for k in range(4) for l in range(4))
              for j in range(4)] for i in range(4)]
        with pytest.raises(NotHermitian):
            clover_matrix(B)
        knot = Knot(B)
        assert [knot.beta(p) for p in range(1, 16)] == [resultant_beta(A, p) for p in range(1, 16)]
        # sigma_p needs no banded basis either: the exact oracle on A's clover form
        W = clover_matrix(A)
        for p in range(1, 16):
            if knot.beta(p):
                assert total_sigma_p(knot, p) == varsigma_p(W, p), p

    def test_large_p_on_genus_three(self, rng):
        A = random_seifert(3, rng)
        knot = Knot(A)
        for p in (257, 1000):
            assert knot.beta(p) == resultant_beta(A, p)

    def test_ladder_restarts_out_of_order_and_repeats(self, trefoil, figure8, rng):
        for A in (trefoil, figure8, random_seifert(2, rng)):
            knot = Knot(A)
            ps = [5, 9, 9, 3, 12, 12, 1, 7, 2, 30]
            assert [knot.beta(p) for p in ps] == [resultant_beta(A, p) for p in ps]

    def test_unknot_and_p_one(self, trefoil):
        assert [Knot([]).beta(p) for p in (1, 2, 7)] == [1, 1, 1]
        # a genus-1 surface of the unknot: Gamma is singular, x^2 = x mod chi
        knot = Knot([[0, 1], [0, 0]])
        assert knot.charpoly == [0, -1, 1]
        assert [knot.beta(p) for p in (1, 2, 50, 51, 7)] == [1] * 5
        assert Knot(trefoil).beta(1) == 1
        with pytest.raises(ValueError):
            Knot(trefoil).beta(0)


def lucas_fibonacci(n):
    """Lucas and Fibonacci numbers L_0..L_n and F_0..F_n."""
    L, F = [2, 1], [0, 1]
    while len(L) <= n:
        L.append(L[-1] + L[-2])
        F.append(F[-1] + F[-2])
    return L, F


def is_square(n):
    return n >= 0 and math.isqrt(n) ** 2 == n


class TestBetaFromTheory:
    """Frozen values from theory, none from the package: beta_p of the
    figure-8 is L_(2p) - 2 = L_p^2 for odd p and 5 F_p^2 for even p
    (L_n^2 - 5 F_n^2 = 4 (-1)^n), the trefoil's repeats with period 6, and
    Plans (1953): H_1 of the p-fold cover is G + G for odd p and
    H_1(Sigma_2) + G + G for even p."""

    PS = list(range(1, 61)) + [1001, 1002]

    def test_figure8_is_lucas_squared_or_five_fibonacci_squared(self, figure8):
        L, F = lucas_fibonacci(1002)
        knot = Knot(figure8)
        want = [L[p] ** 2 if p % 2 else 5 * F[p] ** 2 for p in self.PS]
        assert [knot.beta(p) for p in self.PS] == want

    def test_trefoil_repeats_with_period_six(self, trefoil):
        knot = Knot(trefoil)
        assert [knot.beta(p) for p in self.PS] == [(1, 3, 4, 3, 1, 0)[(p - 1) % 6] for p in self.PS]

    def test_plans_squares(self, rng):
        mats = [r.seifert for r in corpus_records()]
        mats += [random_seifert(g, rng) for g in range(1, 6) for _ in range(2)]
        mats += [conjugate(random_seifert(2, rng), random_unimodular(4, rng))]
        for A in mats:
            knot = Knot(A)
            beta2 = knot.beta(2)
            for p in range(1, 61):
                beta = knot.beta(p)
                if p % 2:
                    assert is_square(beta), (A, p)
                else:
                    assert beta % beta2 == 0 and is_square(beta // beta2), (A, p)


class TestHalfNorm:
    """Knot.beta in Z[s]/E against the norm in Z[x]/chi it replaced."""

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_matches_the_chi_norm(self, g, rng):
        for A in (random_seifert(g, rng), conjugate(random_seifert(g, rng),
                                                    random_unimodular(2 * g, rng))):
            knot = Knot(A)
            assert [knot.beta(p) for p in range(1, 61)] == [chi_beta(A, p) for p in range(1, 61)]

    def test_every_oracle_at_irregular_p_and_genus_zero(self, trefoil, figure8):
        # Delta of degree < g ([[0, 1], [0, 0]]: E = s), repeated circle roots
        # (the trefoil twice) and the empty matrix; p = 6k is irregular for
        # every knot with a trefoil summand
        for A in ([], [[0, 1], [0, 0]], trefoil, block_sum(trefoil, trefoil),
                  block_sum(trefoil, figure8)):
            knot = Knot(A)
            got = [knot.beta(p) for p in range(1, 31)]
            for oracle in (chi_beta, matrix_beta, resultant_beta):
                assert got == [oracle(A, p) for p in range(1, 31)], (A, oracle.__name__)
            assert (0 in got) == (A not in ([], [[0, 1], [0, 0]]))

    def test_large_p_on_random_g3_a(self):
        (A,) = [r.seifert for r in corpus_records() if r.name == "random-g3-a"]
        assert Knot(A).beta(10007) == chi_beta(A, 10007)

    def test_every_ladder_state(self, trefoil, rng):
        for A in (trefoil, [[0, 1], [0, 0]], random_seifert(2, rng), random_seifert(3, rng)):
            want = {p: chi_beta(A, p) for ps in LADDERS.values() for p in ps}
            for name, ps in LADDERS.items():
                knot = Knot(A)
                assert [knot.beta(p) for p in ps] == [want[p] for p in ps], name

    def test_half_charpoly_halves_chi(self, rng):
        # chi(x) = (-1)^g E(x - x^2): Gamma's eigenvalues pair as lambda, 1 - lambda
        for A in [r.seifert for r in corpus_records()] + [[[0, 1], [0, 0]], random_seifert(4, rng)]:
            knot = Knot(A)
            E, g = knot.half_charpoly, knot.genus
            assert len(E) == g + 1 and E[-1] == 1
            comp = sum((c * (t - t * t) ** i for i, c in enumerate(E)), LaurentPoly.zero())
            assert comp * (-1) ** g == LaurentPoly.from_coeffs(knot.charpoly), A

    def test_non_monic_half_charpoly_raises(self, trefoil, monkeypatch):
        # a trace polynomial with D(2) = 2 would make E non-monic
        monkeypatch.setattr(knotcovers.seifert, "_trace_poly", lambda f: [0, 1])
        with pytest.raises(ArithmeticError, match="monic"):
            Knot(trefoil).beta(5)


def laurent_bareiss(A):
    """Oracle for Knot.delta: t^-g det(A - t A^T) by the Laurent-ring Bareiss."""
    n = len(A)
    M = LambdaMatrix([[A[i][j] - t * A[j][i] for j in range(n)] for i in range(n)])
    return M.det().shift(-(n // 2))


def conjugate(A, P):
    """P^T A P: the Seifert matrix of the same knot in another basis."""
    return _mat_mul(_mat_mul([list(col) for col in zip(*P)], A), P)


def random_unimodular(n, rng):
    """An integer matrix of determinant +-1 from random column operations."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for row in P:
            row[j] += c * row[i]
        if rng.random() < 0.3:
            for row in P:
                row[i], row[j] = row[j], row[i]
    return P


def block_sum(*mats):
    """Seifert matrix of the connected sum, in a basis that is not banded."""
    n = sum(len(A) for A in mats)
    out = [[0] * n for _ in range(n)]
    off = 0
    for A in mats:
        for i, row in enumerate(A):
            out[off + i][off:off + len(A)] = row
        off += len(A)
    return out


def torus_seifert(a, b):
    """-V_a (x) V_b, the Seifert form of x^a + y^b (Sebastiani-Thom), with
    V_k the (k-1) x (k-1) matrix with 1 on the diagonal and -1 above it."""
    def V(k):
        return [[1 if i == j else -1 if j == i + 1 else 0 for j in range(k - 1)] for i in range(k - 1)]

    Va, Vb, m = V(a), V(b), b - 1
    n = (a - 1) * m
    return [[-Va[i // m][j // m] * Vb[i % m][j % m] for j in range(n)] for i in range(n)]


class TestDeltaFromGamma:
    def test_matches_bareiss_on_corpus(self):
        for rec in corpus_records():
            assert rec.knot.delta == laurent_bareiss(rec.seifert), rec.name

    @pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
    def test_matches_bareiss_on_random_banded(self, g, rng):
        for _ in range(8):
            A = random_seifert(g, rng)
            assert Knot(A).delta == laurent_bareiss(A)

    def test_matches_bareiss_on_non_banded_conjugates(self, rng):
        for _ in range(12):
            A = random_seifert(rng.choice([1, 2, 3]), rng)
            B = conjugate(A, random_unimodular(len(A), rng))
            assert Knot(B).delta == laurent_bareiss(B) == Knot(A).delta

    def test_matches_bareiss_on_block_sums(self, trefoil, figure8):
        dt, df = alexander(trefoil), alexander(figure8)
        for mats, want in (((trefoil, trefoil), dt * dt), ((trefoil, figure8), dt * df)):
            A = block_sum(*mats)
            assert Knot(A).delta == laurent_bareiss(A) == want

    def test_gamma_is_an_integer_solution(self, rng):
        mats = [rec.seifert for rec in corpus_records()]
        mats += [conjugate(A, random_unimodular(len(A), rng))
                 for A in (random_seifert(g, rng) for g in (1, 2, 3))]
        for A in mats:
            G = Knot(A).gamma
            S = [[A[i][j] - A[j][i] for j in range(len(A))] for i in range(len(A))]
            assert all(type(x) is int for row in G for x in row)
            assert _mat_mul(G, S) == A

    def test_delta_makes_no_laurent_determinant(self, monkeypatch):
        calls = []
        det = LambdaMatrix.det

        def counted_det(M):
            calls.append(M.n)
            return det(M)

        monkeypatch.setattr(LambdaMatrix, "det", counted_det)
        for A in [rec.seifert for rec in corpus_records()] + [torus_seifert(3, 4)]:
            Knot(A).delta
        assert calls == []
        laurent_bareiss(torus_seifert(3, 4))  # the counter does see the oracle
        assert calls == [6]


@pytest.mark.parametrize("a, b", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (5, 6), (7, 8)])
def test_torus_knots_match_theory(a, b):
    knot = Knot(torus_seifert(a, b))
    assert knot.genus == (a - 1) * (b - 1) // 2
    num = (t ** (a * b) - one) * (t - one)
    den = (t ** a - one) * (t ** b - one)
    assert knot.delta == canonical_symmetric(num.divexact(den))
    # Sigma(a, b, p) is a homology sphere when a, b and p are pairwise coprime
    ps = [p for p in range(2, 14) if math.gcd(p, a) == 1 == math.gcd(p, b)]
    assert ps and [knot.beta(p) for p in ps] == [1] * len(ps)


@pytest.mark.parametrize("a, b, roots", [(5, 6, 10), (7, 8, 21), (9, 10, 36)])
def test_torus_signature_average_from_certified_arcs(a, b, roots):
    # -(a^2 - 1)(b^2 - 1)/(3ab): -28/3, -18 and -88/3, with every one of the
    # g circle roots (all roots of Delta, all distinct) certified
    knot = Knot(torus_seifert(a, b))
    assert len(circle_roots(knot.delta)) == roots == knot.genus
    want = Fraction(-(a * a - 1) * (b * b - 1), 3 * a * b)
    assert knot.signature_average == pytest.approx(float(want), abs=1e-9)


class TestSimplestTangent:
    @staticmethod
    def _u(a, b):
        return Fraction(2 * (b * b - a * a), a * a + b * b)

    def test_a_root_2_to_the_minus_40_below_u_2(self):
        # s = 1/b has u = 2 - 4/(b^2 + 1), past 2 - 2^-40 from b = 2^21 on,
        # and a/b with a >= 2 needs b >= 2^22: a run of 2^21 Stern-Brocot steps
        assert _simplest_tangent(Fraction(2 - 2.0 ** -40), Fraction(2)) == (1, 2 ** 21)

    def test_no_simpler_fraction_lies_between(self, rng):
        checked = 0
        for _ in range(400):
            lo = rng.uniform(-2, 2)
            hi = lo + rng.choice([rng.uniform(0, 1e-3), rng.uniform(0, 2 - lo)])
            lo, hi = Fraction(lo), Fraction(hi)
            if not lo < hi:
                continue
            a, b = _simplest_tangent(lo, hi)
            assert lo < self._u(a, b) < hi
            if a <= 60 and b <= 60:
                checked += 1
                assert not any(lo < self._u(c, d) < hi for c in range(1, a + 1)
                               for d in range(1, b + 1) if (c, d) != (a, b)), (lo, hi)
        assert checked > 200

    def test_an_empty_gap_is_refused(self):
        with pytest.raises(SingularEvaluation):
            _simplest_tangent(Fraction(2), Fraction(2))


class TestCloverForm:
    def test_hermitian_and_unimodular_at_one(self, rng):
        for _ in range(20):
            A = random_seifert(rng.choice([1, 2, 3]), rng)
            W = clover_matrix(A)
            assert W.is_hermitian
            assert abs(W.det().eval_one()) == 1

    def test_rejects_unbanded_basis(self):
        # valid Seifert matrix (det(A - A^T) = 1) whose band runs the wrong
        # way: Axy - Ayx = -1 instead of +1
        A = [[0, 0], [1, 0]]
        validate_seifert(A)
        with pytest.raises(NotHermitian):
            clover_matrix(A)

    def test_congruence_identity_on_corpus(self, trefoil, figure8, rng):
        assert congruence_identity_check(trefoil)
        assert congruence_identity_check(figure8)
        for _ in range(10):
            assert congruence_identity_check(random_seifert(rng.choice([1, 2]), rng))


class TestSignatureFunction:
    def test_trefoil_at_minus_one(self, trefoil):
        assert signature_function(trefoil, 1, 2) == -2

    def test_at_one_raises(self, trefoil):
        with pytest.raises(AtOne):
            signature_function(trefoil, 0, 5)
        with pytest.raises(AtOne):
            signature_function(trefoil, 5, 5)

    def test_singular_root_raises(self, trefoil):
        with pytest.raises(SingularEvaluation):
            signature_function(trefoil, 1, 6)

    def test_sigma_at_omega_matches(self, figure8):
        import cmath

        for k, p in ((1, 3), (2, 5), (3, 7)):
            w = cmath.exp(2j * cmath.pi * k / p)
            assert sigma_at_omega(figure8, w) == signature_function(figure8, k, p)

    def test_evaluates_at_the_one_root_float(self):
        # signature rows, the branched per-root sum and selftest's stacked
        # oracles all read e^(2 pi i k/p) from root_of_unity
        for p in range(2, 31):
            ks = np.arange(1, p)
            ws = root_of_unity(ks, p)
            assert [root_of_unity(k, p) for k in range(1, p)] == ws.tolist()
            for rec in corpus_records():
                K = rec.knot
                for k, w in zip(ks.tolist(), ws):
                    try:
                        want = signature_function(K, k, p)
                    except SingularEvaluation:
                        with pytest.raises(SingularEvaluation):
                            sigma_at_omega(K, w)
                        continue
                    assert sigma_at_omega(K, root_of_unity(k, p)) == want, (rec.name, k, p)


class TestRecordsAndCorpus:
    def test_corpus_has_reference_knots_first(self):
        names = [r.name for r in corpus_records()]
        assert names[:3] == ["unknot", "trefoil", "figure8"]
        assert len(names) >= 10

    def test_every_corpus_record_is_valid(self):
        for rec in corpus_records():
            validate_seifert(rec.seifert)
            assert alexander(rec.seifert).eval_one() == 1

    def test_record_roundtrip(self, trefoil, tmp_path):
        rec = KnotRecord(name="test", seifert=trefoil)
        blob = json.dumps(rec.to_json())
        back = KnotRecord.from_json(json.loads(blob))
        assert back.name == "test"
        assert back.seifert == trefoil
        assert back.q2loop is None

    def test_record_validates_matrix(self):
        with pytest.raises(NotUnimodularAtOne):
            KnotRecord(name="bad", seifert=[[1, 0], [0, 1]])

    def test_trefoil_record_has_demo_two_loop_class(self):
        rec = next(r for r in corpus_records() if r.name == "trefoil")
        assert rec.q2loop is not None
        assert "synthetic" in (rec.provenance or "")
