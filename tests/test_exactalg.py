"""Exact Laurent arithmetic, resultants, local denominators, series."""

import math
from fractions import Fraction

import numpy as np
import pytest

import knotcovers.exactalg
from knotcovers.exactalg import (
    LaurentPoly,
    RatFun,
    SingularAtOne,
    SingularEvaluation,
    _charpoly,
    _frac,
    _mat_mul,
    _mat_pow,
    _mul_rows,
    _mulmod,
    _mulx_mod,
    _poly_divmod,
    _power,
    _powmod,
    _roots_by_part,
    _squarefree_parts,
    _trace_poly,
    circle_roots,
    cyclotomic_norm,
    denominator_to_tp,
    mahler_measure,
    poly_gcd,
    regular_at_p,
    resultant,
    wheels_coefficients,
)

t = LaurentPoly.t()
one = LaurentPoly.one()


class TestLaurentPoly:
    def test_construction_drops_zero_coefficients(self):
        f = LaurentPoly({2: 0, 1: Fraction(1, 2), 0: 0})
        assert f.coeffs == {1: Fraction(1, 2)}
        assert LaurentPoly({0: 0}).is_zero

    def test_arithmetic(self):
        f = t + one
        g = t - one
        assert f * g == t ** 2 - one
        assert f ** 3 == t ** 3 + 3 * t ** 2 + 3 * t + one
        assert (f - f).is_zero
        assert 2 * f == f + f

    def test_negative_powers_of_monomials(self):
        m = LaurentPoly.monomial(3, Fraction(2))
        assert m ** -2 == LaurentPoly.monomial(-6, Fraction(1, 4))
        with pytest.raises(ValueError):
            (t + one) ** -1

    def test_bar_involution(self):
        f = t ** 2 + 2 * t - one
        assert f.bar().bar() == f
        assert f.bar() == t ** -2 + 2 * t ** -1 - one
        sym = f * f.bar()
        assert sym.is_bar_symmetric

    def test_str_is_ascending_with_carets(self):
        f = t ** -1 - one + t
        assert str(f) == "t^-1 - 1 + t"
        assert str(LaurentPoly.zero()) == "0"
        assert str(-3 * t ** 2) == "-3 t^2"

    def test_evaluate_exact_and_complex(self):
        f = t ** -1 - one + t
        assert f.evaluate(Fraction(2)) == Fraction(3, 2)
        assert f.eval_one() == 1
        assert abs(f.evaluate(complex(-1.0)) - (-3.0)) < 1e-12

    def test_divexact(self):
        f = (t + one) * (t - one)
        assert f.divexact(t + one) == t - one
        # monomials are units, so dividing by t^2 IS exact
        assert (t + one).divexact(t ** 2) == t ** -1 + t ** -2
        with pytest.raises(ValueError):
            (t + one).divexact(t + 2 * one)

    def test_floordiv_is_divexact_with_constants(self):
        f = (t + one) * (t - one)
        assert f // (t + one) == t - one
        assert (2 * t) // 2 == t
        assert t // Fraction(1, 3) == 3 * t
        with pytest.raises(ValueError):
            (t + one) // (t + 2 * one)
        with pytest.raises(ZeroDivisionError):
            t // 0

    def test_shift_and_bounds(self):
        f = t ** -2 + t ** 3
        assert f.min_exp == -2 and f.max_exp == 3
        assert f.shift(2) == one + t ** 5

    def test_json_roundtrip(self):
        f = LaurentPoly({-1: Fraction(1, 3), 4: -2})
        assert LaurentPoly.from_json(f.to_json()) == f
        assert f.to_json() == {"-1": "1/3", "4": "-2"}


def _canonical(x):
    """An exact coefficient in its canonical type: an int when integral,
    a Fraction with a denominator above 1 otherwise (never a float)."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _stored_canonically(f):
    return all(_canonical(c) for c in f.coeffs.values())


def _random_poly(rng, rational, lo=-3, hi=3):
    den = (lambda: rng.randint(1, 4)) if rational else (lambda: 1)
    return LaurentPoly({e: Fraction(rng.randint(-4, 4), den()) for e in range(lo, hi + 1)
                        if rng.random() < 0.6})


class TestIntegerCoefficients:
    """Integral coefficients are stored as ints, whatever their origin, so
    arithmetic over Z[t, t^-1] never builds a Fraction."""

    def test_integer_inputs_keep_int_coefficients(self, rng):
        for _ in range(200):
            f, g = _random_poly(rng, False), _random_poly(rng, False)
            out = [f + g, f - g, f * g, -f, 3 * f, f.bar(), f.shift(rng.randint(-4, 4)), f ** 3]
            if g:
                out.append((f * g).divexact(g))
                assert out[-1] == f
            for h in out:
                assert all(type(c) is int for c in h.coeffs.values()), h
            assert type(f.eval_one()) is int and type(f.coeff(99)) is int

    def test_integral_fractions_are_stored_as_ints(self, rng):
        half = LaurentPoly({0: Fraction(1, 2), 1: Fraction(-3, 2)})
        assert LaurentPoly({0: Fraction(4, 2), 1: "6/3"}).coeffs == {0: 2, 1: 2}
        big = LaurentPoly({0: np.int64(2) ** 62, 1: np.int8(1)})
        assert all(type(c) is int for c in big.coeffs.values())
        assert (big * big).coeff(0) == 2 ** 124  # no int64 wraparound
        assert all(type(c) is int for c in (2 * half).coeffs.values())
        assert all(type(c) is int for c in (half + half).coeffs.values())
        assert type((half * 2).eval_one()) is int
        for _ in range(200):
            f, g = _random_poly(rng, True), _random_poly(rng, True)
            for h in (f + g, f - g, f * g, Fraction(2, 3) * f, f.bar()):
                assert _stored_canonically(h), h
            if g:
                assert (f * g).divexact(g) == f

    def test_negative_power_is_an_exact_fraction(self):
        (c,) = ((2 * t) ** -1).coeffs.values()
        assert type(c) is Fraction and c == Fraction(1, 2)
        assert ((2 * t) ** -1).coeffs == {-1: Fraction(1, 2)}
        assert (t ** -3).coeffs == {-3: 1} and type((t ** -3).coeff(-3)) is int
        assert ((-2 * t) ** -2).coeffs == {-2: Fraction(1, 4)}

    def test_hash_is_kept_and_agrees_across_coefficient_types(self):
        f = LaurentPoly({0: Fraction(4, 2), 3: Fraction(1, 3)})
        g = LaurentPoly({0: 2, 3: "1/3"})
        assert f == g and hash(f) == hash(g) == hash(f)
        assert len({f, g, f * 1}) == 1

    def test_no_float_from_gcd_resultant_norm_and_rewriting(self, rng):
        for trial in range(80):
            rational = trial % 2 == 1
            f, g = _random_poly(rng, rational, 0, 4), _random_poly(rng, rational, 0, 3)
            if not f or not g:
                continue
            gcd = poly_gcd(f, g)
            assert _stored_canonically(gcd) and (f.divexact(gcd) * gcd == f if gcd else True)
            res = resultant(f, g)
            assert type(res) is Fraction and res == _sylvester_resultant(f, g)
            for p in (1, 2, 3, 6):
                assert type(cyclotomic_norm(f, p)) is Fraction
            den = g - LaurentPoly.const(g.eval_one() - 1)  # value 1 at t = 1
            if den.is_zero or den.coeff(0) == 0:
                continue
            r = RatFun(f, den)
            assert _stored_canonically(r.num) and _stored_canonically(r.den)
            for p in (2, 3):
                P, Qp = denominator_to_tp(r, p)
                assert _stored_canonically(P) and _stored_canonically(Qp)


def _sylvester_resultant(f, g):
    """Res(f, g) of the polynomials as given, a factor t^k included, by
    the determinant of the Sylvester matrix (the oracle)."""
    from knotcovers.lambdamat import rational_det

    a = [f.coeff(e) for e in range(f.max_exp, -1, -1)]
    b = [g.coeff(e) for e in range(g.max_exp, -1, -1)]
    m, n = len(a) - 1, len(b) - 1
    rows = [[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b + [0] * (m - 1 - i) for i in range(m)]
    return rational_det(rows)


class TestResultant:
    def test_linear_factor_is_evaluation(self):
        g = t ** 2 + 3 * t + 1
        for a in (0, 1, -2, Fraction(1, 2)):
            f = t - LaurentPoly.const(a)
            assert resultant(f, g) == g.evaluate(Fraction(a))

    def test_known_value(self):
        # Res(x^2 - 1, x^2 - 4) = prod of root differences = 9
        assert resultant(t ** 2 - one, t ** 2 - 4 * one) == 9

    def test_powers_of_t_count(self, rng):
        # t^k is a root 0 of multiplicity k, not a unit: Res(f, t g) = f(0) Res(f, g)
        f, g = -4 * t ** 3 + t ** 2 - 2 * one, -t ** 2 - 2 * t
        assert resultant(f, g) == _sylvester_resultant(f, g) == 68
        assert resultant(f, g) == -resultant(f, -t - 2 * one) * f.coeff(0)
        assert resultant(t ** 2, 3 * one) == 9 and resultant(t, t + one) == 1
        for _ in range(100):
            f, g = _random_poly(rng, False, 0, 4), _random_poly(rng, True, 0, 3)
            if f and g:
                for a, b in ((f, t ** 2 * g), (t * f, g), (t * f, t * g)):
                    assert resultant(a, b) == _sylvester_resultant(a, b)

    def test_common_root_gives_zero(self):
        f = t ** 2 - 3 * t + 2
        g = t ** 2 - 5 * t + 6
        assert resultant(f, g) == 0

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            resultant(t ** -1 + one, t + one)

    def test_gcd_is_monic_common_divisor(self):
        f = (t + one) ** 2 * (t - 2 * one)
        g = (t + one) * (t + 3 * one)
        assert poly_gcd(f, g) == t + one


class TestCyclotomicNorm:
    def test_trefoil_values(self):
        delta = t ** -1 - one + t
        assert [cyclotomic_norm(delta, p) for p in (1, 2, 3, 5, 6)] == [1, -3, 4, 1, 0]

    def test_figure8_values(self):
        delta = -(t ** -1) + 3 * one - t
        assert [abs(cyclotomic_norm(delta, p)) for p in (2, 3, 4, 5)] == [5, 16, 45, 121]

    def test_agrees_with_direct_product(self, rng):
        import cmath

        for _ in range(20):
            f = LaurentPoly({e: rng.randint(-4, 4) for e in range(-2, 3)})
            if f.is_zero:
                continue
            for p in (2, 3, 4, 5):
                want = 1.0 + 0.0j
                for k in range(p):
                    want *= f.evaluate(cmath.exp(2j * cmath.pi * k / p))
                got = cyclotomic_norm(f, p)
                assert abs(complex(got) - want) < 1e-6 * max(1.0, abs(want))

    def test_regular_at_p(self):
        delta = t ** -1 - one + t  # roots are the primitive 6th roots
        assert regular_at_p(delta, 5)
        assert not regular_at_p(delta, 6)


class TestRatFun:
    def test_canonical_form_reduces_and_normalizes(self):
        r = RatFun((t ** 2 - one) * 2, (t - one) * 2)
        assert r.num == t + one and r.den == one

    def test_denominator_value_one_at_unity(self):
        r = RatFun(one, t - 2 * one)
        assert r.den.eval_one() == 1
        assert r.evaluate(Fraction(3)) == 1

    def test_singular_at_one_rejected(self):
        with pytest.raises(SingularAtOne):
            RatFun(one, t - one)

    def test_arithmetic(self):
        r = RatFun(one, t - 2 * one)
        s = r + r
        assert s.evaluate(Fraction(3)) == 2
        assert (r * (t - 2 * one)).num == one  # cancels to the constant 1

    def test_json_roundtrip_and_bare_map(self):
        r = RatFun(t + one, t - 2 * one)
        assert RatFun.from_json(r.to_json()) == r
        assert RatFun.from_json({"1": "1"}) == RatFun(t)


class TestCharpoly:
    def test_integer_matrix_keeps_int_coefficients(self):
        # trace 4, principal 2x2 minors 5 - 2 - 4 = -1, det -7:
        # det(sI - M) = s^3 - 4 s^2 - s + 7
        M = [[2, 1, 0], [1, 3, 1], [0, 1, -1]]
        chi = _charpoly(M)
        assert chi == [7, -1, -4, 1]
        assert all(type(c) is int for c in chi)
        assert _charpoly([]) == [1]

    def test_rational_matrix_is_exact(self):
        # det(sI - M) = s^2 - (1/2 + 1/3) s + 1/6 - 1/4
        M = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]]
        assert _charpoly(M) == [Fraction(-1, 12), Fraction(-5, 6), 1]


def _companion(monic: list) -> list[list]:
    """The matrix of multiplication by x on Q[x]/monic, columns in the basis
    1, x, ..., x^(d-1): the oracle builder for the quotient-ring routines."""
    d = len(monic) - 1
    M = [[0] * d for _ in range(d)]
    for i in range(1, d):
        M[i][i - 1] = 1
    for i in range(d):
        M[i][d - 1] = -monic[i]
    return M


class TestModularPowers:
    @staticmethod
    def _at_companion(b, C):
        """b(C) by Horner's rule."""
        d = len(C)
        out = [[0] * d for _ in range(d)]
        for c in reversed(b):
            out = [[x + c * (i == j) for j, x in enumerate(row)]
                   for i, row in enumerate(_mat_mul(out, C))]
        return out

    def test_powmod_is_the_first_column_of_the_companion_power(self, rng):
        # C multiplies by x on the basis 1, x, ..., x^(d-1) of Q[x]/chi, so
        # b(C)^p e_0 holds the coefficients of b^p mod chi
        for d in (1, 2, 3, 5):
            chi = [rng.randint(-3, 3) for _ in range(d)] + [1]
            C = _companion(chi)
            for b in ([0, 1], [-1, 1], [rng.randint(-2, 2) for _ in range(d + 2)]):
                bC = self._at_companion(b, C)
                for p in (0, 1, 2, 3, 7, 64, 101):
                    r = _powmod(b, p, chi)
                    column = [row[0] for row in _mat_pow(bC, p)]
                    assert r + [0] * (d - len(r)) == column, (chi, b, p)

    def test_rational_modulus_and_zero_residue(self):
        chi = [Fraction(1, 2), Fraction(-3, 2), 1]  # (x - 1)(x - 1/2)
        r = _powmod([0, 1], 5, chi)  # x^5 = a x + b, through the roots 1 and 1/2
        assert r == [Fraction(-15, 16), Fraction(31, 16)]
        assert _powmod([-1, 1], 3, [1, -2, 1]) == []  # (x - 1)^2 divides (x - 1)^3
        assert _powmod([2], 0, [1]) == []  # the zero ring: every residue is 0

    def test_mulx_mod_is_one_modular_multiplication_by_x(self, rng):
        for d in (1, 2, 4):
            chi = [rng.randint(-3, 3) for _ in range(d)] + [1]
            a = [rng.randint(-9, 9) for _ in range(d)]
            r = _mulmod(a, [0, 1], chi)
            assert _mulx_mod(a, chi) == r + [0] * (d - len(r))

    def test_mul_rows_are_the_multiples_by_powers_of_x(self, rng):
        for d in (1, 2, 3, 5):
            chi = [rng.randint(-3, 3) for _ in range(d)] + [1]
            for r in ([], [1], [rng.randint(-5, 5) for _ in range(d)]):
                rows = _mul_rows(r, chi)
                assert len(rows) == d and all(len(row) == d for row in rows)
                for i, row in enumerate(rows):
                    want = _mulmod(r, [0] * i + [1], chi)
                    assert row == want + [0] * (d - len(want)), (chi, r, i)

    def test_powmod_rejects_bad_input(self):
        with pytest.raises(ValueError, match="monic"):
            _powmod([0, 1], 3, [1, 2])
        with pytest.raises(ValueError, match="negative"):
            _powmod([0, 1], -1, [1, 1])

    def test_mat_pow_starts_from_the_first_factor_and_copies(self, monkeypatch):
        products = []
        mat_mul = _mat_mul

        def counted(A, B):
            products.append(len(A))
            return mat_mul(A, B)

        monkeypatch.setattr(knotcovers.exactalg, "_mat_mul", counted)
        M = [[1, 2], [3, 4]]
        powers = [_mat_pow(M, p) for p in (0, 1, 2, 5)]
        assert powers[:3] == [[[1, 0], [0, 1]], M, [[7, 10], [15, 22]]]
        assert powers[3] == mat_mul(mat_mul(powers[2], powers[2]), M)
        # p = 1 and 2 cost no and one product, 5 = 101b two squares and one product
        assert products == [2] * (0 + 1 + 3)
        assert not any(r is s for P in powers for r in P for s in M)
        powers[1][0][0] = 99  # _bareiss eliminates in place
        assert M == [[1, 2], [3, 4]]


class TestPower:
    # 0, 1, 2^k and 2^k + 1: the empty product, the first factor alone, no
    # multiply after the squares, one multiply after them
    PS = (0, 1, 2, 4, 8, 32, 3, 5, 9, 33)

    def test_multiplications_counted(self):
        for p in self.PS:
            calls = []

            def mul(a, b):
                calls.append(1)
                return a * b

            assert _power(3, p, mul, 1) == 3 ** p
            # a square per bit below the top, a product per further set bit
            assert len(calls) == (p.bit_length() + bin(p).count("1") - 2 if p else 0), p

    def test_polynomials_mod_a_monic_modulus(self, rng):
        for d in (1, 2, 4):
            chi = [rng.randint(-3, 3) for _ in range(d)] + [1]
            b = [rng.randint(-2, 2) for _ in range(d + 2)]
            want = _poly_divmod([1], chi)[1]
            for p in range(max(self.PS) + 1):
                if p in self.PS:
                    assert _powmod(b, p, chi) == want, (chi, b, p)
                want = _mulmod(want, b, chi)

    def test_laurent_polynomials(self):
        f = LaurentPoly({-2: 3, 0: -1, 1: Fraction(1, 2)})
        want = one
        for p in range(max(self.PS) + 1):
            if p in self.PS:
                assert f ** p == want, p
            want = want * f

    def test_integer_matrices_in_new_rows(self, rng):
        M = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        want = [[int(i == j) for j in range(3)] for i in range(3)]
        for p in range(max(self.PS) + 1):
            if p in self.PS:
                P = _mat_pow(M, p)
                assert P == want, p
                assert not any(r is s for r in P for s in M)
            want = _mat_mul(want, M)
        P = _mat_pow(M, 1)
        P[0][0] += 1  # _bareiss eliminates in place; M must not move
        assert P != M


class TestDenominatorToTp:
    def test_worked_examples(self):
        # 1/(t - 2): the p-fold cover denominator is t^p - 2^p
        r = RatFun(one, t - 2 * one)
        P2, Q2 = denominator_to_tp(r, 2)
        assert str(P2) == "2 + t" and str(Q2) == "-4 + t"
        P3, Q3 = denominator_to_tp(r, 3)
        assert str(P3) == "4 + 2 t + t^2" and str(Q3) == "-8 + t"

    def test_identity_holds(self, rng):
        for _ in range(10):
            num = LaurentPoly({e: rng.randint(-3, 3) for e in range(-2, 3)})
            if num.is_zero:
                continue
            den = LaurentPoly({0: 1, 1: rng.randint(-2, 2), 2: rng.randint(-2, 2)})
            den = den - LaurentPoly.const(den.eval_one() - 1)
            if den.is_zero or den.coeff(0) == 0:
                continue
            r = RatFun(num, den)
            for p in (2, 3):
                P, Qp = denominator_to_tp(r, p)
                Qp_tp = LaurentPoly({p * e: c for e, c in Qp.coeffs.items()})
                assert r.num * Qp_tp == P * r.den


    def test_matches_the_companion_power_oracle(self, rng):
        # Qp = |lc|^p det(sI - C^p) for the companion matrix C of the monic
        # denominator: the characteristic polynomial of multiplication by
        # z^p, from a matrix power instead of z^p mod q
        cases = 0
        while cases < 5:
            d = rng.randint(1, 4)
            den = LaurentPoly({e: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for e in range(d + 1)})
            if den.coeff(0) == 0 or den.coeff(d) == 0 or den.eval_one() == 0:
                continue
            num = LaurentPoly({e: rng.randint(-3, 3) for e in range(-2, 3)}) + one
            r = RatFun(num, den)
            if r.is_polynomial:
                continue
            cases += 1
            qhat = [r.den.coeff(e) for e in range(r.den.max_exp + 1)]
            lc = qhat[-1]
            C = _companion([Fraction(c) / lc for c in qhat])
            for p in range(1, 65):
                P, Qp = denominator_to_tp(r, p)
                want = [c * abs(lc) ** p for c in _charpoly(_mat_pow(C, p))]
                assert Qp == LaurentPoly.from_coeffs(want), (r, p)
                Qp_tp = LaurentPoly({p * e: c for e, c in Qp.coeffs.items()})
                assert r.num * Qp_tp == P * r.den


class TestMahler:
    def test_figure8(self):
        delta = -(t ** -1) + 3 * one - t
        assert abs(mahler_measure(delta) - math.log((3 + math.sqrt(5)) / 2)) < 1e-12

    def test_cyclotomic_gives_zero(self):
        assert mahler_measure(t ** -1 - one + t) == pytest.approx(0.0, abs=1e-9)


class TestRootsByPart:
    def test_each_part_holds_the_roots_of_higher_multiplicity_once(self):
        # (t - 2)^3 (t + 1) (t^2 + t + 1)^2: parts of multiplicity > 0, > 1, > 2
        f = (t - 2 * one) ** 3 * (t + one) * (t ** 2 + t + one) ** 2
        parts = _roots_by_part(f.shift(-3))  # a unit t^k is stripped
        w = complex(-0.5, math.sqrt(3) / 2)
        for roots, want in zip(parts, ([2, -1, w, w.conjugate()], [2, w, w.conjugate()], [2])):
            assert sorted(roots, key=lambda z: (z.real, z.imag)) == pytest.approx(
                sorted(want, key=lambda z: (z.real, z.imag)), abs=1e-12)
        assert len(parts) == 3
        assert _roots_by_part(one) == []


def _bar_symmetric(rng, g):
    c = {e: rng.randint(-5, 5) for e in range(1, g + 1)}
    return LaurentPoly({0: rng.randint(-9, 9), **c, **{-e: v for e, v in c.items()}})


class TestCircleRoots:
    def test_trace_polynomial(self, rng):
        # f(t) = D(t + 1/t) at rational t, exactly
        for g in range(0, 7):
            f = _bar_symmetric(rng, g)
            D = LaurentPoly.from_coeffs(_trace_poly(f))
            for t0 in (Fraction(2), Fraction(-3, 7), Fraction(5, 3)):
                assert f.evaluate(t0) == D.evaluate(t0 + 1 / t0), (f, t0)

    def test_rational_roots_are_held_exactly(self):
        # the trefoil's u = 1, and u = 3/2 of
        # -6t^-2 + 23t^-1 - 33 + 23t - 6t^2 = -(2u - 3)(3u - 7)
        f = LaurentPoly({-2: -6, -1: 23, 0: -33, 1: 23, 2: -6})
        for delta, u in ((t ** -1 - one + t, 1), (f, Fraction(3, 2))):
            ((a, b),) = circle_roots(delta)
            assert a <= u <= b and b - a <= 2.0 ** -51

    def test_an_endpoint_on_the_root_keeps_it(self):
        # a root on a midpoint of the halving comes back as (u, u): u = 0 of
        # t^-1 + t (t^2 + 1), the trefoil's u = 1 and u = 3/2 of 2u - 3
        for delta, u in ((t ** -1 + t, 0.0), (t ** -1 - one + t, 1.0),
                         (2 * t ** -1 - 3 * one + 2 * t, 1.5)):
            assert circle_roots(delta) == [(u, u)], delta

    def test_repeated_and_off_circle_roots(self):
        # (t - 1 + 1/t)^3 (-t + 3 - 1/t): one circle root, twice repeated,
        # and a real pair off the circle
        tref, fig8 = t ** -1 - one + t, -(t ** -1) + 3 * one - t
        ((a, b),) = circle_roots(tref ** 3 * fig8)
        assert a <= 1 <= b
        assert circle_roots(fig8) == [] and circle_roots(one) == []

    def test_brackets_are_disjoint_and_one_per_circle_root(self, rng):
        # Sturm count of D's square-free part, against numpy's roots of D
        # and exact signs of the square-free part from the gcd chain
        checked = 0
        for _ in range(60):
            f = _bar_symmetric(rng, rng.randint(1, 6))
            if not (f.evaluate(Fraction(1)) and f.evaluate(Fraction(-1))):
                continue
            brackets = circle_roots(f)
            assert all(b < a for (_, b), (a, _) in zip(brackets, brackets[1:])), f
            s = LaurentPoly.from_coeffs((_squarefree_parts(_trace_poly(f)) or [[1]])[0])
            for a, b in brackets:
                fa, fb = s.evaluate(Fraction(a)), s.evaluate(Fraction(b))
                assert (a == b and fa == 0) or (0 < b - a <= 2.0 ** -51 and fa * fb < 0), f
            D = np.roots([float(c) for c in reversed(_trace_poly(f))])
            real = sorted(u.real for u in D if abs(u.imag) < 1e-7 and -2 < u.real < 2)
            if all(abs(x - y) > 1e-6 for x, y in zip(real, real[1:])):
                assert len(brackets) == len(real), f
                assert all(a - 1e-9 <= u <= b + 1e-9 for (a, b), u in zip(brackets, real)), f
                checked += len(real)
        assert checked > 40

    def test_a_missed_root_is_refused(self):
        # two roots with no float between them are refused, never returned
        # as touching brackets: 1 and 1 + 2^-60, 1 -+ 2^-60, and 1 + 2^-60
        # and 1 + 2^-59 (in (1, 1 + 2^-52], whose midpoint rounds to 1); 1
        # and 1 + 2^-40 are far enough apart for two brackets
        u, e = t ** -1 + t, 2 ** 60
        for D in ((u - one) * (e * u - (e + 1) * one),
                  (e * u - (e - 1) * one) * (e * u - (e + 1) * one),
                  (e * u - (e + 1) * one) * (e * u - (e + 2) * one)):
            with pytest.raises(SingularEvaluation, match="too close for floats to separate"):
                circle_roots(D)
        e = 2 ** 40
        (a0, b0), (a1, b1) = circle_roots((u - one) * (e * u - (e + 1) * one))
        assert (a0, b0) == (1.0, 1.0) and 1.0 < a1 <= 1 + 2.0 ** -40 <= b1 <= a1 + 2.0 ** -51

    def test_needs_a_bar_symmetric_f_regular_at_plus_minus_one(self):
        with pytest.raises(ValueError):
            circle_roots(t)
        with pytest.raises(ValueError):
            circle_roots(t ** -1 - 2 * one + t)


class TestInputBoundary:
    def test_a_zero_denominator_is_a_value_error(self):
        # ZeroDivisionError would escape the CLI's validation errors
        with pytest.raises(ValueError, match="zero denominator"):
            _frac("1/0")
        for den in ({}, {"0": "0", "1": 0}, {"0": "1/0"}):
            with pytest.raises(ValueError, match="zero denominator"):
                RatFun.from_json({"num": {"0": "1"}, "den": den})
        with pytest.raises(ValueError, match="zero denominator"):
            LaurentPoly.from_json({"0": "3/0"})

    def test_two_keys_for_one_exponent_are_refused(self):
        # int("01") == 1: one key's coefficient would silently replace the other's
        for obj in ({"1": "1", "01": "1"}, {"-2": "3", " -2": "0"}, {"0": "1", "+0": "-1"}):
            with pytest.raises(ValueError, match=r"exponent -?\d is given twice"):
                LaurentPoly.from_json(obj)
        assert LaurentPoly.from_json({"01": "1", "0": "2"}) == LaurentPoly({0: 2, 1: 1})

    @pytest.mark.parametrize("flag", [True, False, np.bool_(True), np.bool_(False)])
    def test_a_boolean_is_refused_like_a_float(self, flag):
        # Fraction(True) == 1 would load a JSON true as coefficient 1
        with pytest.raises(TypeError, match="refusing bool_? coefficient"):
            _frac(flag)
        with pytest.raises(TypeError, match="refusing bool_? coefficient"):
            LaurentPoly({0: 1, 1: flag})
        with pytest.raises(TypeError):
            LaurentPoly.from_json({"1": flag})


def _series_log(f, order):
    """log f for a list f with f[0] = 1, truncated at x^order: the
    integral of f'/f, with 1/f by the power-series reciprocal recurrence."""
    inv = [Fraction(1)]
    for n in range(1, order + 1):
        inv.append(-sum(f[k] * inv[n - k] for k in range(1, n + 1)))
    df = [k * f[k] for k in range(1, order + 1)]
    quot = [sum(df[i] * inv[m - i] for i in range(m + 1)) for m in range(order)]
    return [Fraction(0)] + [c / (m + 1) for m, c in enumerate(quot)]


class TestWheels:
    def test_wheels_frozen_values(self):
        assert wheels_coefficients(4) == [
            Fraction(1, 48),
            Fraction(-1, 5760),
            Fraction(1, 362880),
            Fraction(-1, 19353600),
        ]

    def test_closed_form_matches_the_series_log(self):
        nmax, order = 12, 24
        f = [Fraction(0)] * (order + 1)
        for k in range(nmax + 1):  # sinh(x/2)/(x/2) = sum x^(2k) / (4^k (2k+1)!)
            f[2 * k] = Fraction(1, 4 ** k * math.factorial(2 * k + 1))
        g = _series_log(f, order)
        assert not any(g[1::2])
        assert wheels_coefficients(nmax) == [g[2 * n] / 2 for n in range(1, nmax + 1)]

    def test_needs_a_positive_order(self):
        with pytest.raises(ValueError):
            wheels_coefficients(0)

