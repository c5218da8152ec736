"""Exact Laurent arithmetic, resultants, local denominators, series."""

import math
from fractions import Fraction

import pytest

from knotcovers.exactalg import (
    LaurentPoly,
    PowerSeries,
    RatFun,
    SingularAtOne,
    _charpoly,
    cyclotomic_norm,
    denominator_to_tp,
    lp_eval_unit,
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

    def test_eval_unit_exact(self):
        f = t ** -1 - one + t
        assert lp_eval_unit(f, 1, 2) == -3  # at -1
        assert lp_eval_unit(f, 0, 1) == 1  # at +1

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


class TestResultant:
    def test_linear_factor_is_evaluation(self):
        g = t ** 2 + 3 * t + 1
        for a in (0, 1, -2, Fraction(1, 2)):
            f = t - LaurentPoly.const(a)
            assert resultant(f, g) == g.evaluate(Fraction(a))

    def test_known_value(self):
        # Res(x^2 - 1, x^2 - 4) = prod of root differences = 9
        assert resultant(t ** 2 - one, t ** 2 - 4 * one) == 9

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


class TestMahler:
    def test_figure8(self):
        delta = -(t ** -1) + 3 * one - t
        assert abs(mahler_measure(delta) - math.log((3 + math.sqrt(5)) / 2)) < 1e-12

    def test_cyclotomic_gives_zero(self):
        assert mahler_measure(t ** -1 - one + t) == pytest.approx(0.0, abs=1e-9)


class TestPowerSeries:
    def test_log_exp_roundtrip(self):
        f = PowerSeries([1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)], 4)
        assert f.log().exp() == f

    def test_inverse(self):
        f = PowerSeries([1, -1], 5)  # 1 - x
        geo = PowerSeries([1] * 6, 5)
        assert f.inverse() == geo

    def test_wheels_frozen_values(self):
        assert wheels_coefficients(4) == [
            Fraction(1, 48),
            Fraction(-1, 5760),
            Fraction(1, 362880),
            Fraction(-1, 19353600),
        ]
