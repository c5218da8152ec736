"""2-loop classes: canonical form, symmetry, residues, torus averages."""

import cmath
import contextlib
from fractions import Fraction
from itertools import permutations

import pytest

import knotcovers.theta as theta
from knotcovers.exactalg import LaurentPoly, RatFun, cyclotomic_norm
from knotcovers.theta import (
    QSingularAtP,
    SingularOnTorus,
    ThetaClass,
    res_p_theta,
    torus_average,
)

t = LaurentPoly.t()
one = LaurentPoly.one()


_COMPARE_TOL = 1e-9  # relative agreement that counts as equal in _functionally_equal
_COMPARE_PS = (1, 2, 3, 5, 7)  # the p whose residues _functionally_equal compares


def _mono(a, b, c, coeff=1):
    return ThetaClass.monomial(a, b, c, Fraction(coeff))


def _evaluate_raw(Q, z1, z2):
    """sum over terms of c f(z1) g(z2) h(1/(z1 z2)); no symmetrization."""
    z3 = 1.0 / (z1 * z2)
    total = 0j
    for term in Q.terms:
        total += complex(
            float(term.c) * term.f.evaluate(z1) * term.g.evaluate(z2) * term.h.evaluate(z3)
        )
    return total


def _evaluate_sym(Q, z1, z2):
    """Symmetrized evaluation; invariant of the class in the quotient."""
    return _evaluate_raw(Q.symmetrize(), z1, z2)


def _functionally_equal(Q, other):
    """Equality in the quotient, tested functionally: residues at each p
    of _COMPARE_PS plus symmetrized evaluation at fixed torus points."""
    for p in _COMPARE_PS:
        if res_p_theta(Q, p) != res_p_theta(other, p):
            return False
    angles = [0.7, 1.9, 2.51, 4.13]
    for u in angles:
        for v in angles[::-1]:
            z1 = cmath.exp(1j * u)
            z2 = cmath.exp(1j * v)
            a = _evaluate_sym(Q, z1, z2)
            b = _evaluate_sym(other, z1, z2)
            if abs(a - b) > _COMPARE_TOL * max(1.0, abs(a)):
                return False
    return True


# pole outside the circle, inside it, a reciprocal pair (3 +- sqrt 5)/2, a
# double pole, and a class mixing polynomial and rational terms
RATIONAL_CLASSES = {
    "t-2": [(RatFun(one, t - 2 * one),) * 3 + (Fraction(1),)],
    "3t-1": [(RatFun(t, 3 * t - one), RatFun(one, 3 * t - one), RatFun(t ** 2, 3 * t - one),
              Fraction(-2))],
    "t2-3t+1": [(RatFun(t, t ** 2 - 3 * t + one), RatFun(one + t),
                 RatFun(one, t ** 2 - 3 * t + one), Fraction(2, 3))],
    "(3-t)^2": [(RatFun(one, (3 * one - t) ** 2), RatFun(t ** 2),
                 RatFun(one - t, (3 * one - t) ** 2), Fraction(-1, 2))],
    "mixed": [
        (RatFun(one, t - 2 * one), RatFun(t), RatFun(t ** -2 + t), Fraction(1)),
        (RatFun(t), RatFun(t ** 3), RatFun(t ** 3), Fraction(5, 7)),
        (RatFun(t ** -1), RatFun(one, 3 * t - one), RatFun(one), Fraction(-3)),
    ],
}


# three rational slots, two with poles on the circle: 1/((t^2 + t + 1)(3 - t))
# at the cube roots of unity and t/((t^2 + 1)(2t - 1)) at +-i, so p-th roots
# of unity are poles exactly when 3 or 4 divides p
THREE_RATIONAL_SLOTS = [
    (RatFun(one, (t ** 2 + t + one) * (3 * one - t)), RatFun(t, (t ** 2 + one) * (2 * t - one)),
     RatFun(one + t, t - 2 * one), Fraction(2, 3)),
    (RatFun(one + t, t - 2 * one), RatFun(one, (t ** 2 + t + one) * (3 * one - t)),
     RatFun(t ** 2), Fraction(-5, 4)),
]


class TestCanonicalForm:
    def test_terms_merge(self):
        Q = _mono(1, 2, 3) + _mono(1, 2, 3)
        assert Q == _mono(1, 2, 3, 2)

    def test_cancellation_gives_zero(self):
        Q = _mono(1, 2, 3) - _mono(1, 2, 3)
        assert Q == ThetaClass.zero()
        assert not Q.terms

    def test_scale(self):
        assert _mono(0, 0, 0).scale(Fraction(5)) == _mono(0, 0, 0, 5)

    def test_term_order_sorts_slot_coefficients(self):
        # first slots t^-1 < -1/(2 - t) < t by their (exponent, coefficient)
        # pairs, whatever order the terms come in
        terms = RATIONAL_CLASSES["mixed"]
        for perm in permutations(terms):
            Q = ThetaClass(list(perm))
            assert [term.c for term in Q.terms] == [-3, 1, Fraction(5, 7)]
            assert [term.f for term in Q.terms] == [RatFun(t ** -1), terms[0][0], RatFun(t)]

    def test_is_polynomial(self):
        assert _mono(1, -2, 3).is_polynomial
        f = RatFun(one, t - 2 * one)
        assert not ThetaClass([(f, f, f, Fraction(1))]).is_polynomial


class TestSymmetryMoves:
    def test_push_moves_exponents(self):
        # pushing a vertex multiplies every slot by t^k; on the torus the
        # three factors cancel (z1 z2 / (z1 z2) = 1), so nothing observable
        # changes even though the stored terms differ
        Q = _mono(1, 2, 3)
        moved = Q.pushed(2)
        assert moved == _mono(3, 4, 5)
        assert moved != Q
        assert _functionally_equal(moved, Q)

    def test_push_invariance_of_residue(self, rng):
        for _ in range(25):
            Q = _mono(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5),
                      Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 6)))
            for p in (2, 3, 5):
                base = res_p_theta(Q, p)
                assert res_p_theta(Q.pushed(1), p) == base
                assert res_p_theta(Q.pushed(-2), p) == base

    def test_permutation_and_bar_invariance(self, rng):
        for _ in range(10):
            Q = _mono(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
            for p in (2, 3):
                base = res_p_theta(Q, p)
                for perm in permutations(range(3)):
                    assert res_p_theta(Q.permuted(perm), p) == base
                assert res_p_theta(Q.barred(), p) == base
        with pytest.raises(ValueError):
            Q.permuted([0, 0, 1])

    def test_symmetrize_is_projection(self):
        Q = _mono(1, 2, 3, 12)
        S = Q.symmetrize()
        assert S.symmetrize() == S
        assert res_p_theta(S, 3) == res_p_theta(Q, 3)

    def test_symmetrize_builds_one_class_equal_to_the_twelve_sum(self, rng, monkeypatch):
        def twelve_sum(Q):
            # the oracle: 12 permuted and barred classes, added, then scaled
            pieces = []
            for perm in permutations(range(3)):
                q = Q.permuted(perm)
                pieces += [q, q.barred()]
            total = ThetaClass.zero()
            for q in pieces:
                total = total + q
            return total.scale(Fraction(1, 12))

        def slot():
            num = sum((rng.randint(-3, 3) * t ** e for e in range(-2, 3)), one)
            if rng.random() < 0.5:
                return RatFun(num)
            return RatFun(num, rng.choice([t - 2 * one, 3 * t - one, t ** 2 - 3 * t + one]))

        init, calls = ThetaClass.__init__, []

        def counted_init(self, *args):
            calls.append(1)
            init(self, *args)

        for _ in range(50):
            Q = ThetaClass([(slot(), slot(), slot(),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                            for _ in range(rng.randint(1, 3))])
            want = twelve_sum(Q)
            with monkeypatch.context() as m:
                m.setattr(ThetaClass, "__init__", counted_init)
                calls.clear()
                got = Q.symmetrize()
            assert calls == [1]
            assert got == want and got.terms == want.terms

    def test_functionally_equal_catches_symmetry(self):
        Q = _mono(1, 2, 3)
        assert _functionally_equal(Q, Q.pushed(1))
        assert _functionally_equal(Q.symmetrize(), Q)
        assert not _functionally_equal(Q, _mono(1, 2, 3, 2))


class TestResidue:
    def test_exact_value_for_monomial(self):
        # res_p of a monomial (a, b, c): p if a = b = c mod p, else 0
        Q = _mono(1, 1, 1, Fraction(3, 2))
        assert res_p_theta(Q, 2) == 3
        assert res_p_theta(_mono(0, 1, 0), 2) == 0

    def test_matches_numeric_route_for_rational_slots(self):
        for name, terms in RATIONAL_CLASSES.items():
            Q = ThetaClass(terms)
            for p in range(1, 41):
                got = res_p_theta(Q, p)
                assert isinstance(got, Fraction), (name, p)
                assert float(got) == pytest.approx(_brute_res(Q, p), rel=1e-9, abs=1e-9), (name, p)

    @pytest.mark.parametrize("name", sorted(RATIONAL_CLASSES) + ["three rational slots"])
    def test_exact_for_rational_slots(self, name):
        # exact equality with the sympy route, and QSingularAtP exactly
        # where it finds a denominator sharing a factor with t^p - 1
        Q = ThetaClass(RATIONAL_CLASSES.get(name, THREE_RATIONAL_SLOTS))
        singular = []
        for p in range(1, 13):
            want = _inverse_res(Q, p)
            if want is None:
                singular.append(p)
                with pytest.raises(QSingularAtP):
                    res_p_theta(Q, p)
            else:
                got = res_p_theta(Q, p)
                assert isinstance(got, Fraction) and got == want, (name, p)
        assert singular == ([] if name in RATIONAL_CLASSES else [3, 4, 6, 8, 9, 12])

    def test_singular_at_p_raises(self):
        f = RatFun(one, t ** 2 + t + one)
        Q = ThetaClass([(f, one, one, Fraction(1))])
        with pytest.raises(QSingularAtP):
            res_p_theta(Q, 3)
        assert res_p_theta(Q, 2) is not None  # fine away from the bad roots
        # a pole at a p-th root of unity is a zero of the cyclotomic norm
        # prod_{w^p = 1} den(w), computed here by resultant; the poles 3 and
        # 1/2 are off the circle, so that happens exactly when period | p
        for den, period in [((t ** 2 + t + one) * (3 * one - t), 3),
                            ((t ** 2 + one) * (2 * t - one), 4)]:
            f = RatFun(t, den)
            Q = ThetaClass([(f, RatFun(t + one), f, Fraction(2, 3))])
            singular = []
            for p in range(1, 37):
                if cyclotomic_norm(den, p) == 0:
                    singular.append(p)
                    with pytest.raises(QSingularAtP):
                        res_p_theta(Q, p)
                else:
                    assert isinstance(res_p_theta(Q, p), Fraction)
            assert singular == list(range(period, 37, period))


def _inverse_res(Q, p):
    """Independent exact route, None where some slot denominator q shares
    a factor with t^p - 1: each slot n / q has the periodised coefficients
    n q^-1 mod (t^p - 1), by sympy's invert and rem, and res_p is
    p * sum c sum_r F_r G_r H_r."""
    import sympy

    x = sympy.Symbol("x")
    modulus = x ** p - 1

    def periodised(slot):
        num = sum(sympy.Rational(v.numerator, v.denominator) * x ** (e % p)
                  for e, v in slot.num.coeffs.items())
        den = sum(sympy.Rational(v.numerator, v.denominator) * x ** e
                  for e, v in slot.den.coeffs.items())
        try:
            inv = sympy.invert(den, modulus, x)
        except sympy.polys.polyerrors.NotInvertible:
            return None
        rest = sympy.Poly(sympy.rem(sympy.expand(num * inv), modulus, x), x)
        return {m: Fraction(int(c.p), int(c.q)) for (m,), c in rest.terms()}

    total = Fraction(0)
    for term in Q.terms:
        F, G, H = (periodised(slot) for slot in (term.f, term.g, term.h))
        if None in (F, G, H):
            return None
        total += term.c * sum(v * F.get(r, 0) * G.get(r, 0) for r, v in H.items())
    return p * total


def _fold_res(Q, p):
    """Independent route for a polynomial class: p times the sum over
    terms of c * f_a g_b h_e over every exponent triple with a = b = e mod
    p, which is what survives the sum over pairs of p-th roots."""
    total = Fraction(0)
    for term in Q.terms:
        fc, gc, hc = term.f.num.coeffs, term.g.num.coeffs, term.h.num.coeffs
        total += term.c * sum(u * v * w for a, u in fc.items() for b, v in gc.items()
                              for e, w in hc.items() if (a - b) % p == 0 == (a - e) % p)
    return total * p


def _spread(Q):
    exps = [e for term in Q.terms for slot in (term.f, term.g, term.h) for e in slot.num.coeffs]
    return max(exps) - min(exps) if exps else 0


class TestPolynomialResidue:
    def test_matches_the_fold_on_both_sides_of_the_spread(self, rng):
        # the zero class, a constant one, Fraction coefficients and negative
        # exponents, at every p in 1..3 spread + 2: folded mod p at or below
        # the spread, p times the kept diagonal sum past it
        classes = [ThetaClass.zero(), ThetaClass.constant(Fraction(5, 3)),
                   _mono(-3, 2, -1, Fraction(-7, 4)), _mono(4, 4, 4, 2),
                   ThetaClass([(t ** -2 + Fraction(1, 3) * t ** 5, 3 * one - t ** -4,
                                Fraction(-2, 5) * t + t ** 3, Fraction(9, 7)),
                               (t ** -1, t ** -1, t ** -7 - t ** 2, Fraction(1, 2))])]
        classes += [ThetaClass([(_random_poly(rng), _random_poly(rng), _random_poly(rng),
                                 Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                                for _ in range(rng.randint(1, 3))]) for _ in range(30)]
        for Q in classes:
            spread = _spread(Q)
            for p in range(1, 3 * spread + 3):
                got = res_p_theta(Q, p)
                assert isinstance(got, Fraction) and got == _fold_res(Q, p), (Q.terms, p)
            assert torus_average(Q) == _diagonal_sum(Q)

    def test_the_diagonal_sum_waits_for_a_p_past_the_spread(self):
        Q = ThetaClass([(t ** -2 + t, t ** 2, one, Fraction(3))])  # spread 4
        assert [res_p_theta(Q, p) for p in (1, 2, 3, 4)] == [_fold_res(Q, p) for p in (1, 2, 3, 4)]
        assert Q._diagonal is None
        assert res_p_theta(Q, 5) == 0 and Q._diagonal == 0
        assert res_p_theta(_mono(1, 1, 1, Fraction(3, 2)), 10 ** 9) == 15 * 10 ** 8


def _brute_res(Q, p):
    """Independent route: (1/p) * sum of Q over all pairs of p-th roots."""
    total = 0.0
    for a in range(p):
        for b in range(p):
            z1 = cmath.exp(2j * cmath.pi * a / p)
            z2 = cmath.exp(2j * cmath.pi * b / p)
            total += _evaluate_raw(Q, z1, z2).real
    return total / p


def _diagonal_sum(Q):
    """Independent route for a polynomial class: sum over terms of
    c * sum_r f_r g_r h_r over the slots' Laurent coefficients."""
    total = Fraction(0)
    for term in Q.terms:
        fc, gc, hc = term.f.num.coeffs, term.g.num.coeffs, term.h.num.coeffs
        total += term.c * sum(v * gc[m] * hc[m] for m, v in fc.items() if m in gc and m in hc)
    return total


def _random_poly(rng):
    return LaurentPoly({e: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                        for e in range(-4, 5) if rng.random() < 0.4})


class TestTorusAverage:
    def test_exact_for_polynomial_classes(self):
        Q = _mono(1, 1, 1, Fraction(3, 2)) + _mono(0, 2, -1, Fraction(-1, 3))
        assert torus_average(Q) == Fraction(3, 2)
        assert torus_average(ThetaClass.zero()) == 0

    def test_polynomial_classes_match_the_diagonal_sum(self, rng):
        # res_p / p past the exponent spread against the diagonal
        # coefficient sum, on random classes whose slots share exponents
        for _ in range(50):
            Q = ThetaClass(
                [
                    (_random_poly(rng), _random_poly(rng), _random_poly(rng),
                     Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                    for _ in range(rng.randint(1, 3))
                ]
            )
            got = torus_average(Q)
            assert isinstance(got, Fraction)
            assert got == _diagonal_sum(Q)

    def test_closed_form_matches_a_direct_grid(self):
        # a direct trapezoid grid is an independent oracle (exponentially
        # accurate on smooth integrands)
        for name, terms in RATIONAL_CLASSES.items():
            Q = ThetaClass(terms)
            assert torus_average(Q) == pytest.approx(_grid_average(Q), abs=1e-12), name

    def test_matches_the_fft_oracle_on_the_fixtures(self):
        for name, terms in RATIONAL_CLASSES.items():
            Q = ThetaClass(terms)
            assert torus_average(Q) == pytest.approx(_fft_average(Q), rel=1e-12, abs=0), name

    def test_matches_the_fft_oracle_on_random_classes(self, rng):
        # repeated poles, complex pole pairs, pairs of simple poles 1e-3 to
        # 1e-10 apart, poles 1e-3 to 0.1 off the circle, negative exponents,
        # terms with three rational slots and poles on both sides: every
        # class is answered.  The oracle rounds to about eps times the
        # Hoelder bound sum |c| prod ||slot||_2 on any diagonal sum, so where
        # that bound is at most 1e3 |want| the closed form must be within
        # 1e-12 of the oracle relative to want; the rest, a sum that cancels
        # or a dead term's FFT noise where the closed form gives 0, within
        # 1e-12 of the bound.  With this seed 90 of the 300 are of the rest
        # (51 of them average to 0, where the oracle reads under 1e-15 of
        # the bound), and the largest bound / |want| among the others is 810.
        cancelling, largest = 0, 0.0
        for _ in range(300):
            Q = _random_rational_class(rng)
            want, bound = _fft_average(Q, bound=True)
            got = torus_average(Q)
            if bound <= 1e3 * abs(want):
                largest = max(largest, bound / abs(want))
                assert got == pytest.approx(want, rel=1e-12, abs=0), Q.terms
            else:
                cancelling += 1
                assert abs(got - want) <= 1e-12 * bound, Q.terms
        assert (cancelling, round(largest)) == (90, 810)

    @pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(2)])
    @pytest.mark.parametrize("split", [10, 30])
    def test_two_simple_poles_nearer_than_np_roots_resolves(self, a, split):
        # (t - a)^2 - 10^(-2 split): poles a +- 10^-split, inside or outside
        # the circle.  np.roots returns one float twice or a conjugate pair;
        # the refinement separates them (at more digits for 1e-30), and the
        # partial fractions, about 10^split times the coefficients they sum
        # to, cancel to the oracle's value
        import numpy as np

        den = (t - a * one) ** 2 - Fraction(1, 10 ** (2 * split)) * one
        floats = np.roots([float(c) for c in reversed(den._ascending()[0])])
        assert abs(floats[0] - floats[1]) < 1e-7
        f = RatFun(t ** 3 - 2 * one, den)
        for Q in (ThetaClass([(f, RatFun(one), RatFun(one), Fraction(1))]),
                  ThetaClass([(f, f, RatFun(t ** 2 + one), Fraction(1))]),
                  ThetaClass([(f, f, f, Fraction(1))])):
            assert torus_average(Q) == pytest.approx(_fft_average(Q), rel=1e-12, abs=0)

    def test_refined_roots_are_distinct_and_certified(self):
        # from one float twice, Weierstrass iteration at 34 digits finds the
        # two roots 1/2 +- 1e-10, each once, with disjoint inclusion disks;
        # at 17 digits it cannot tell them apart and says so
        from decimal import Decimal, localcontext

        s = [Fraction(1, 4) - Fraction(1, 10 ** 20), Fraction(-1), Fraction(1)]
        with localcontext() as context:
            context.prec = 34
            (z1, z2), overlap = theta._refined(s, [0.5, 0.5])
            assert overlap < 1
            got = sorted(float((z.re - Decimal("0.5")).scaleb(10)) for z in (z1, z2))
            assert got == pytest.approx([-1, 1], rel=1e-12)
            assert abs(z1.im) + abs(z2.im) < 1e-30
            context.prec = 17
            assert theta._refined(s, [0.5, 0.5])[1] >= 1

    def test_clustered_repeated_poles(self):
        # three triple poles 0.3 apart, inside the circle: their partial
        # fractions are about 10^5 times the coefficients they sum to, and
        # in floats the average of two such slots came out 3e-8 off
        f = RatFun(t ** 4 - 5 * t ** -1,
                   ((t ** 2 + Fraction(14, 27) * t + Fraction(1, 7) * one)
                    * (t + Fraction(2, 7) * one)) ** 3)
        g = RatFun(one + t ** 2, (t - Fraction(1, 3) * one) ** 2 * (t + Fraction(1, 4) * one) ** 3)
        for Q in (ThetaClass([(f, g, RatFun(t ** -2 - 2 * t ** -6), Fraction(1))]),
                  ThetaClass([(f, g, f, Fraction(1))])):
            want, bound = _fft_average(Q, bound=True)
            assert abs(torus_average(Q) - want) <= 1e-13 * max(abs(want), bound)

    @pytest.mark.parametrize("a", [Fraction(2), Fraction(11, 10), Fraction(101, 100),
                                   Fraction(1001, 1000), Fraction(10001, 10000)])
    def test_closed_form_for_a_simple_pole(self, a):
        # f = g = h = 1/(t - a) has coefficients -a^-(r+1) for r >= 0, so the
        # diagonal sum is -sum_r a^(-3(r+1)) = -1/(a^3 - 1), here exact, also
        # at 1e-3 and 1e-4 off the circle, where 1 - a^-3 cancels 3 and 4 digits
        f = RatFun(one, t - a * one)
        Q = ThetaClass([(f, f, f, Fraction(1))])
        assert torus_average(Q) == pytest.approx(float(-1 / (a ** 3 - 1)), rel=1e-14, abs=0)

    def test_pole_too_near_the_circle_rejected(self):
        f = RatFun(one, t - Fraction(1000001, 1000000) * one)
        Q = ThetaClass([(f, f, f, Fraction(1))])
        with pytest.raises(SingularOnTorus):
            torus_average(Q)

    def test_near_pole_refused_before_any_fft(self, monkeypatch):
        # a pole 1e-6 off the circle, on either side, is refused from its
        # modulus alone: no slot is expanded and no grid is built
        calls = []
        monkeypatch.setattr(theta, "_tails", lambda *a: calls.append(a))
        with _no_fft(monkeypatch):
            for a in (Fraction(1000001, 1000000), Fraction(1000000, 1000001)):
                f = RatFun(one, t - a * one)
                Q = ThetaClass([(f, f, f, Fraction(1))])
                with pytest.raises(SingularOnTorus, match="pole lies within"):
                    torus_average(Q)
        assert calls == []

    @pytest.mark.parametrize("a", [Fraction(10001, 10000), Fraction(100002, 100000),
                                   Fraction(100025, 100000), Fraction(1000, 1001)])
    def test_a_pole_past_the_refusal_window_is_answered(self, a):
        # 1/(10001 - 10000 t) with g = h = 1 averages to its t^0 coefficient
        # 1/10001: the FFT loop refused poles 1.00002 .. 1.00025 off the
        # circle only after 2^20 points; a pole inside leaves t^0 empty
        f = RatFun(one, a.numerator * one - a.denominator * t)
        Q = ThetaClass([(f, RatFun(one), RatFun(one), Fraction(1))])
        want = 1 / a.numerator if a > 1 else 0.0
        assert torus_average(Q) == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_a_pole_at_the_edge_of_the_refusal_window(self):
        # the FFT's up-front rule refused rho above 1 - 1.4273e-5, and one
        # just past it only at 2^20 points; the closed form refuses the
        # first and answers the second
        near, far = 1 - 1.42e-5, 1 - 1.44e-5
        assert theta._NEAR_CIRCLE > 1 - near and 1 - far > theta._NEAR_CIRCLE
        for rho, refused in ((near, True), (far, False)):
            f = RatFun(one, Fraction(1 / rho) * one - t)
            Q = ThetaClass([(f, RatFun(one), RatFun(one), Fraction(1))])
            if refused:
                with pytest.raises(SingularOnTorus, match="pole lies within"):
                    torus_average(Q)
            else:
                assert torus_average(Q) == pytest.approx(rho, rel=1e-12)

    def test_rational_class_of_the_growth_benchmark(self):
        # f = 1/(3 - t) has coefficients 3^-(r+1) for r >= 0; g and h share
        # only r = 1, so the diagonal sum is c g_1 h_1 / 9
        f = RatFun(one, 3 * one - t)
        for c, g1, g2, h1, h2 in ((1, 2, -3, 3, -1), (3, -1, 1, -2, 2)):
            Q = ThetaClass([(f, RatFun(g1 * t + g2 * t ** 2), RatFun(h2 * t ** -2 + h1 * t),
                             Fraction(c))])
            assert torus_average(Q) == pytest.approx(c * g1 * h1 / 9, rel=1e-12)

    def test_slots_sharing_no_exponent_average_to_an_exact_zero(self, monkeypatch):
        # f = 1/(2 + t^2), g = t, h = t^-1: g and h share no exponent, so no
        # r has f_r g_r h_r != 0 and the average is exactly 0, the Fraction a
        # polynomial class's diagonal sum gives, with no rounding and no grid
        Q = ThetaClass([(RatFun(one, 2 * one + t ** 2), RatFun(t), RatFun(t ** -1), Fraction(1))])
        with _no_fft(monkeypatch):
            got = torus_average(Q)
        assert got == 0 and type(got) is type(torus_average(_mono(1, 1, 1))) is Fraction
        assert [res_p_theta(Q, p) for p in range(3, 9)] == [0] * 6
        # beside a live term the dead one is skipped: the live term's value,
        # bit for bit, from the live term's slots alone
        live = ThetaClass([(RatFun(one, 3 * one - t), RatFun(2 * t), RatFun(3 * t), Fraction(1))])
        assert torus_average(Q + live) == torus_average(live) == pytest.approx(6 / 9, rel=1e-12)

    def test_poles_on_torus_rejected(self):
        f = RatFun(one, t ** 2 + t + one)
        Q = ThetaClass([(f, f, f, Fraction(1))])
        with pytest.raises(SingularOnTorus):
            torus_average(Q)

    @pytest.mark.parametrize("power", [2, 3, 4])
    def test_repeated_poles_found_exactly_on_the_circle(self, power):
        # a root of multiplicity m leaves np.roots about eps^(1/m) off the
        # circle; found on the square-free part, it is on it, not near it
        f = RatFun(one, (t ** 2 + t + one) ** power)
        Q = ThetaClass([(f, RatFun(one), RatFun(one), Fraction(1))])
        with pytest.raises(SingularOnTorus, match="denominator vanishes on"):
            torus_average(Q)


def _grid_average(Q, n=128):
    total = 0.0
    for a in range(n):
        for b in range(n):
            z1 = cmath.exp(2j * cmath.pi * a / n)
            z2 = cmath.exp(2j * cmath.pi * b / n)
            total += _evaluate_raw(Q, z1, z2).real
    return total / n ** 2


# the FFT route that torus_average took before its closed form, kept as the
# oracle: the N-point trapezoid rule, N doubled from 64 until each slot's
# Fourier coefficients at |r| >= N/4 are below _TAIL_RATIO of its largest
_TAIL_RATIO = 1e-13
_GRID_CAP = 2 ** 20


def _fourier(slot, w):
    """Laurent coefficients of the slot on |t| = 1 from its values at the
    N-th roots of unity w, aliased mod N: entry k is the sum of the
    coefficients of t^r over r = k mod N."""
    import numpy as np

    N = len(w)
    asc, m = slot.num._ascending()
    num = np.polyval([float(c) for c in reversed(asc)], w) * w[(np.arange(N) * m) % N]
    den = np.polyval([float(c) for c in reversed(slot.den._ascending()[0])], w)  # q(0) != 0
    return np.fft.fft(num / den) / N


def _fft_average(Q, bound=False):
    """The FFT trapezoid torus average, or None when some slot's tail has
    not decayed within _GRID_CAP points; with bound, also sum |c| times the
    product of the slots' coefficient 2-norms, a bound on every diagonal
    sum of the class's slots (Hoelder) that scales the oracle's rounding."""
    import numpy as np

    slots = {slot for term in Q.terms for slot in (term.f, term.g, term.h)}
    N = 64
    while True:
        w = np.exp(2j * np.pi * np.arange(N) / N)
        coeffs = {slot: _fourier(slot, w) for slot in slots}
        mags = [np.abs(c) for c in coeffs.values()]
        if all(a[N // 4 : 3 * N // 4 + 1].max() <= _TAIL_RATIO * a.max() for a in mags):
            break
        N *= 2
        if N > _GRID_CAP:
            return None
    total = sum(float(term.c) * np.sum(coeffs[term.f] * coeffs[term.g] * coeffs[term.h])
                for term in Q.terms)
    if not bound:
        return float(total.real)
    norms = {slot: float(np.linalg.norm(c)) for slot, c in coeffs.items()}
    return float(total.real), sum(abs(float(term.c)) * norms[term.f] * norms[term.g] * norms[term.h]
                                  for term in Q.terms)


@contextlib.contextmanager
def _no_fft(monkeypatch):
    """Fail any numpy FFT called inside the block: no grid is built."""
    import numpy as np

    with monkeypatch.context() as m:
        m.setattr(np.fft, "fft", lambda *a, **k: pytest.fail("an FFT grid was built"))
        yield


def _random_pole(rng):
    """A real pole or a conjugate pair, at modulus 1.3 .. 4 or its inverse;
    or a real pole at modulus 1.01 .. 1.1 or its inverse; or two real simple
    poles 1e-3 .. 1e-10 apart.  Also the powers it may be raised to: the
    last two only to the first, beyond which the FFT oracle's tails often
    fail to reach its _TAIL_RATIO within _GRID_CAP points."""
    r, u = Fraction(rng.randint(13, 40), 10) ** rng.choice([1, -1]), rng.random()
    if u < 0.1:
        near = Fraction(rng.randint(101, 110), 100) ** rng.choice([1, -1])
        return t - rng.choice([1, -1]) * near * one, [1]
    if u < 0.2:
        r = rng.choice([1, -1]) * r
        return (t - r * one) * (t - r * (1 + Fraction(1, 10 ** rng.randint(3, 10))) * one), [1]
    if rng.random() < 0.6:
        return t - rng.choice([1, -1]) * r * one, [1, 1, 2, 3]
    c = Fraction(rng.randint(-9, 9), 10)  # the real part over the modulus
    return t ** 2 - 2 * c * r * t + r * r * one, [1, 1, 2, 3]


def _random_slot(rng):
    num = _random_poly(rng) or LaurentPoly.monomial(rng.randint(-3, 3))
    if rng.random() < 0.35:
        return RatFun(num)
    den = one
    for _ in range(rng.randint(1, 2)):
        factor, powers = _random_pole(rng)
        den = den * factor ** rng.choice(powers)
    return RatFun(num, den)


def _random_rational_class(rng):
    terms = [(_random_slot(rng), _random_slot(rng), _random_slot(rng),
              Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
             for _ in range(rng.randint(1, 3))]
    f = RatFun(one, _random_pole(rng)[0])  # at least one rational slot
    terms[0] = (f,) + terms[0][1:]
    return ThetaClass(terms)


class TestSerialization:
    def test_roundtrip(self):
        f = RatFun(t + one, t - 2 * one)
        Q = ThetaClass([(f, one, t ** -1, Fraction(1, 2))])
        assert ThetaClass.from_json(Q.to_json()) == Q

    def test_bare_polynomial_shorthand(self):
        obj = {"terms": [{"f": {"1": "1"}, "g": {"1": "1"}, "h": {"1": "1"}, "c": "3/2"}]}
        assert ThetaClass.from_json(obj) == _mono(1, 1, 1, Fraction(3, 2))
