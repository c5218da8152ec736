"""2-loop classes: canonical form, symmetry, residues, torus averages."""

import cmath
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

    def test_quadrature_matches_exact(self):
        # rational slots take the FFT trapezoid path; a direct trapezoid
        # grid is an independent oracle (exponentially accurate on smooth
        # integrands)
        for name, terms in RATIONAL_CLASSES.items():
            Q = ThetaClass(terms)
            assert torus_average(Q) == pytest.approx(_grid_average(Q), abs=1e-12), name

    @pytest.mark.parametrize("a", [Fraction(2), Fraction(11, 10), Fraction(101, 100)])
    def test_closed_form_for_a_simple_pole(self, a):
        # f = g = h = 1/(t - a) has coefficients -a^-(r+1) for r >= 0, so the
        # diagonal sum is -sum_r a^(-3(r+1)) = -1/(a^3 - 1)
        f = RatFun(one, t - a * one)
        Q = ThetaClass([(f, f, f, Fraction(1))])
        assert torus_average(Q) == pytest.approx(-1 / (float(a) ** 3 - 1), rel=1e-12, abs=0)

    def test_pole_too_near_the_circle_rejected(self):
        f = RatFun(one, t - Fraction(1000001, 1000000) * one)
        Q = ThetaClass([(f, f, f, Fraction(1))])
        with pytest.raises(SingularOnTorus):
            torus_average(Q)

    def test_near_pole_refused_before_any_fft(self, monkeypatch):
        # at 1e-6 from the circle the tail would need about 1.2e8 points;
        # the doubling loop used to reach 2^20 (160 MB) before giving up
        calls = []
        fourier = theta._fourier
        monkeypatch.setattr(theta, "_fourier", lambda *a: calls.append(1) or fourier(*a))
        for a in (Fraction(1000001, 1000000), Fraction(1000000, 1000001)):
            f = RatFun(one, t - a * one)
            Q = ThetaClass([(f, f, f, Fraction(1))])
            with pytest.raises(SingularOnTorus, match="pole lies within"):
                torus_average(Q)
        assert calls == []
        # a pole 1e-3 off the circle still converges, through the FFT
        f = RatFun(one, t - Fraction(1001, 1000) * one)
        Q = ThetaClass([(f, f, f, Fraction(1))])
        assert torus_average(Q) == pytest.approx(-1 / (1.001 ** 3 - 1), rel=1e-9)
        assert calls

    def test_a_pole_past_the_up_front_rule_is_refused_by_the_grid_cap(self, monkeypatch):
        # 1/(10001 - 10000 t) has its pole at modulus 1.0001: far enough for
        # the up-front rule, too near for the doubling loop, which gives up
        # past _GRID_CAP points
        sizes = []
        fourier = theta._fourier
        monkeypatch.setattr(theta, "_fourier", lambda s, w: sizes.append(len(w)) or fourier(s, w))
        f = RatFun(one, 10001 * one - 10000 * t)
        Q = ThetaClass([(f, RatFun(one), RatFun(one), Fraction(1))])
        with pytest.raises(SingularOnTorus, match="do not decay within 1048576 points"):
            torus_average(Q)
        assert sizes[0] == 64 and sizes[-1] == theta._GRID_CAP

    def test_rational_class_of_the_growth_benchmark(self):
        # f = 1/(3 - t) has coefficients 3^-(r+1) for r >= 0; g and h share
        # only r = 1, so the diagonal sum is c g_1 h_1 / 9
        f = RatFun(one, 3 * one - t)
        for c, g1, g2, h1, h2 in ((1, 2, -3, 3, -1), (3, -1, 1, -2, 2)):
            Q = ThetaClass([(f, RatFun(g1 * t + g2 * t ** 2), RatFun(h2 * t ** -2 + h1 * t),
                             Fraction(c))])
            assert torus_average(Q) == pytest.approx(c * g1 * h1 / 9, rel=1e-12)

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


class TestSerialization:
    def test_roundtrip(self):
        f = RatFun(t + one, t - 2 * one)
        Q = ThetaClass([(f, one, t ** -1, Fraction(1, 2))])
        assert ThetaClass.from_json(Q.to_json()) == Q

    def test_bare_polynomial_shorthand(self):
        obj = {"terms": [{"f": {"1": "1"}, "g": {"1": "1"}, "h": {"1": "1"}, "c": "3/2"}]}
        assert ThetaClass.from_json(obj) == _mono(1, 1, 1, Fraction(3, 2))
