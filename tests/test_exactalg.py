"""Exact Laurent arithmetic, resultants, local denominators, series."""

import math
import operator
import sys
from fractions import Fraction

import numpy as np
import pytest

import knotcovers.exactalg
from knotcovers.exactalg import (
    LaurentPoly,
    RatFun,
    SingularAtOne,
    SingularEvaluation,
    _frac,
    _mul_rows,
    _mulmod,
    _mulx_mod,
    _as_ascending,
    _poly_divmod,
    _power,
    _powmod,
    _qdiv,
    _roots_by_part,
    _trace_poly,
    _trim,
    circle_roots,
    cyclotomic_norm,
    mahler_measure,
    poly_gcd,
    regular_at_p,
    resultant,
    wheels_coefficients,
)
from knotcovers.lambdamat import LambdaMatrix
from knotcovers.theta import denominator_to_tp

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

    def test_every_branch_of_the_product_formula(self, rng):
        # along the remainder sequence: a constant on either side, a shared
        # factor of degree >= 2 (the last member is not constant, so 0), and
        # rational coefficients with t^k factors on both sides, degrees to 8
        c, f = LaurentPoly.const(Fraction(-3, 2)), Fraction(1, 3) * t ** 3 - 2 * t + one
        cases = [(c, f), (f, c), (c, t ** 2 * f), (t * f, c)]
        shared = 0
        for _ in range(150):
            f, g, h = (_random_poly(rng, True, 0, 4) for _ in range(3))
            if not (f and g):
                continue
            j, k = rng.randint(0, 4), rng.randint(0, 4)
            cases += [(f, g), (t ** j * f, t ** k * g)]
            if h and h.max_exp - h.min_exp >= 2:
                cases.append((f * h, g * h))
                assert poly_gcd(f * h, g * h).max_exp >= 2
                shared += 1
        assert shared > 50 and max(max(a.max_exp, b.max_exp) for a, b in cases) == 8
        for a, b in cases:
            assert resultant(a, b) == _sylvester_resultant(a, b), (a, b)
        assert resultant(c, f) == c.coeff(0) ** f.max_exp

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


def _mat_mul(A, B):
    """A B over any ring (int, Fraction, LaurentPoly), skipping zero products."""
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col) if a and b) for col in cols] for row in A]


def _mat_pow(M, p: int):
    """M^p for an integer or rational matrix by ``_power`` over
    ``_mat_mul``, the identity for p = 0: the matrix powers of the oracles."""
    return _power([list(row) for row in M], p, _mat_mul,
                  [[int(i == j) for j in range(len(M))] for i in range(len(M))])


def _faddeev_leverrier(M) -> list:
    """Oracle for the characteristic polynomial det(xI - M), ascending, by
    Faddeev-LeVerrier (n matrix products, an n^4 cost law); int coefficients
    for an integer M, whose traces make each -tr/k exact."""
    d = len(M)
    integral = all(isinstance(x, int) for row in M for x in row)
    cs = [1]
    N = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        MN = _mat_mul(M, N)
        tr = sum(MN[i][i] for i in range(d))
        ck = -tr // k if integral else Fraction(-tr, k)
        cs.append(ck)
        for i in range(d):
            MN[i][i] += ck
        N = MN
    # cs[k] multiplies x^(d-k)
    return list(reversed(cs))


def _miller_rabin(n):
    """Deterministic Miller-Rabin with the twelve prime bases 2..37: exact
    for every n below 318,665,857,834,031,151,167,461, about 3.2e23
    (Sorenson and Webster 2015), so for every n < 2^64."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Miller-Rabin bases exact for every n < 2^64 (Sinclair's seven)
_MR_BASES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
# the primes below 2^62, descending: the largest four, and more found as
# ``_hessenberg_charpoly`` needs them
_PRIMES = [(1 << 62) - c for c in (57, 87, 117, 143)]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for an odd 2^31 < n < 2^64."""
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _hessenberg(A, p: int) -> list[list[int]]:
    """An upper Hessenberg matrix similar to A mod the prime p.  Column j
    takes a nonzero pivot onto its subdiagonal (a row and column swap), then
    row r > j + 1 loses u_r times the pivot row and column j + 1 gains u_r
    times column r; those column moves commute, so they are one pass."""
    n = len(A)
    H = [[x % p for x in row] for row in A]
    for j in range(n - 2):
        j1 = j + 1
        piv = next((i for i in range(j1, n) if H[i][j]), None)
        if piv is None:
            continue
        if piv != j1:
            H[piv], H[j1] = H[j1], H[piv]
            for row in H:
                row[piv], row[j1] = row[j1], row[piv]
        inv = pow(H[j1][j], -1, p)
        prow = H[j1][j:]
        us = [H[r][j] * inv % p for r in range(j1 + 1, n)]
        if not any(us):
            continue
        for r, u in enumerate(us, j1 + 1):
            if u:
                H[r][j:] = [(a - u * b) % p for a, b in zip(H[r][j:], prow)]
        for row in H:
            row[j1] = (row[j1] + sum(map(operator.mul, us, row[j1 + 1:]))) % p
    return H


def _hessenberg_charpoly(M) -> list:
    """Oracle for the characteristic polynomial det(xI - M), ascending: int
    coefficients for an integer M.  A rational M is scaled first by the
    common denominator L of its entries, det(xI - M) = L^-n det(yI - LM) at
    y = L x.

    The integer matrix goes to Hessenberg form mod primes below 2^62
    (``_hessenberg``), where the recurrence p_(m+1) = (x - h_mm) p_m -
    sum_(i<m) h_im h_(i+1,i) ... h_(m,m-1) p_i gives det(xI - H) mod each
    prime; CRT joins them once the primes' product passes twice a bound on
    every coefficient, |c_k| <= C(n, k) times the product of the k largest
    row norms (Hadamard on each principal k-minor); O(n^3) operations on
    word-size residues per prime (Cohen, *A Course in Computational
    Algebraic Number Theory*, 1993, ch. 2)."""
    n = len(M)
    L = math.lcm(*(x.denominator for row in M for x in row))
    A = [[int(x * L) for x in row] for row in M]
    bound = prod = 1
    for k, s in enumerate(sorted((sum(x * x for x in row) for row in A), reverse=True), 1):
        prod *= s
        bound = max(bound, math.comb(n, k) * (math.isqrt(prod) + 1))
    chi, modulus, used = [0] * (n + 1), 1, 0
    while modulus <= 2 * bound:
        if used == len(_PRIMES):
            q = _PRIMES[-1] - 2
            while not _is_prime(q):
                q -= 2
            _PRIMES.append(q)
        p = _PRIMES[used]
        used += 1
        H = _hessenberg(A, p)
        polys = [[1]]
        for m in range(n):
            new = [0] + polys[m]
            hm = H[m][m]
            new[:m + 1] = [a - hm * c for a, c in zip(new, polys[m])]
            t = 1
            for i in range(m - 1, -1, -1):
                t = t * H[i + 1][i] % p
                if not t:
                    break
                u = H[i][m] * t % p
                if u:
                    new[:i + 1] = [a - u * c for a, c in zip(new, polys[i])]
            polys.append([c % p for c in new])
        inv = pow(modulus, -1, p)
        chi = [c + modulus * ((r - c) * inv % p) for c, r in zip(chi, polys[n])]
        modulus *= p
    chi = [c - modulus if 2 * c > modulus else c for c in chi]
    return chi if L == 1 else [_qdiv(c, L ** (n - k)) for k, c in enumerate(chi)]


def _pencil_charpoly(M) -> list:
    """det(xI - M), ascending, the production way: the determinant of the
    pencil xI - M by ``LambdaMatrix.det`` (``theta.denominator_to_tp``)."""
    n = len(M)
    pencil = {0: [[-x for x in row] for row in M], 1: [[int(i == j) for j in range(n)]
                                                        for i in range(n)]}
    chi = LambdaMatrix.from_coeffs(pencil, n).det()
    return [chi.coeff(k) for k in range(n + 1)]


class TestCharpoly:
    # the subject is the pencil determinant; the modular Hessenberg route and
    # Faddeev-LeVerrier are its oracles, and each other's
    ROUTES = (_pencil_charpoly, _hessenberg_charpoly)

    def test_integer_matrix_keeps_int_coefficients(self):
        # trace 4, principal 2x2 minors 5 - 2 - 4 = -1, det -7:
        # det(sI - M) = s^3 - 4 s^2 - s + 7
        M = [[2, 1, 0], [1, 3, 1], [0, 1, -1]]
        for charpoly in self.ROUTES:
            chi = charpoly(M)
            assert chi == [7, -1, -4, 1]
            assert all(type(c) is int for c in chi)
            assert charpoly([]) == [1]

    def test_rational_matrix_is_exact(self):
        # det(sI - M) = s^2 - (1/2 + 1/3) s + 1/6 - 1/4
        M = [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]]
        for charpoly in self.ROUTES:
            assert charpoly(M) == [Fraction(-1, 12), Fraction(-5, 6), 1]

    def test_matches_faddeev_leverrier_on_seeded_integer_matrices(self, rng):
        # dense and sparse, n <= 12, entries up to 2^40 of both signs: the
        # large ones need several primes before the bound is passed
        for _ in range(120):
            n = rng.randint(2, 12)
            bound = rng.choice([1, 5, 2 ** 20, 2 ** 40])
            density = rng.choice([0.2, 0.6, 1.0])
            M = [[rng.randint(-bound, bound) if rng.random() < density else 0
                  for _ in range(n)] for _ in range(n)]
            want = _faddeev_leverrier(M)
            for charpoly in self.ROUTES:
                chi = charpoly(M)
                assert chi == want, M
                assert all(type(c) is int for c in chi)

    def test_degenerate_matrices(self):
        # 0 x 0, 1 x 1, zero, nilpotent (strictly upper, where every column
        # has no pivot to take, and one that is not triangular), singular,
        # and a permutation (a pivot below the subdiagonal is swapped up)
        cases = [
            [],
            [[0]],
            [[-7]],
            [[2 ** 100]],
            [[0] * 5 for _ in range(5)],
            [[int(j > i) * (i + 2 * j + 1) for j in range(6)] for i in range(6)],
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[2, -4], [1, -2]],  # nilpotent, not triangular
            [[1, 2, 3], [2, 4, 6], [1, 1, 1]],  # rank 2
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # rank 2
            [[int(j == (i + 2) % 5) for j in range(5)] for i in range(5)],
        ]
        for charpoly in self.ROUTES:
            for M in cases:
                assert charpoly(M) == _faddeev_leverrier(M), M
            assert charpoly([]) == [1] and charpoly([[-7]]) == [7, 1]
            assert charpoly(cases[4]) == [0] * 5 + [1]
            assert charpoly([[2, -4], [1, -2]]) == [0, 0, 1]

    def test_rational_matrices_scale_to_integers(self, rng):
        # det(xI - M) = L^-n det(yI - LM) at y = L x, L the common denominator
        for _ in range(60):
            n = rng.randint(1, 6)
            M = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 12, 2 ** 30]))
                  for _ in range(n)] for _ in range(n)]
            want = _faddeev_leverrier(M)
            for charpoly in self.ROUTES:
                assert charpoly(M) == want, M

    def test_pencil_matches_the_hessenberg_oracle(self, rng):
        # integer and rational, n <= 6, entries up to 2^80: the same values,
        # each an int exactly when integral
        for trial in range(300):
            n = rng.randint(1, 6)
            bound = rng.choice([3, 2 ** 20, 2 ** 80])
            den = [1] if trial % 2 == 0 else [1, 2, 3, 5, 2 ** 40]
            M = [[Fraction(rng.randint(-bound, bound), rng.choice(den)) for _ in range(n)]
                 for _ in range(n)]
            M = [[_frac(x) for x in row] for row in M]
            chi = _pencil_charpoly(M)
            want = _hessenberg_charpoly(M)
            assert chi == want and list(map(type, chi)) == list(map(type, want)), M

    def test_oracle_reduces_by_enough_distinct_primes(self, monkeypatch):
        # every prime the Hessenberg oracle reduces by is one, below 2^62,
        # used once, and their product passes twice its coefficients; the
        # list it grows skips no prime, and the four it starts from are the
        # largest below 2^62
        assert not any(map(_miller_rabin, (561, 2047, 3215031751, 3825123056546413051)))
        assert _miller_rabin(2 ** 61 - 1) and _miller_rabin(2 ** 62 - 57)
        hessenberg, used = _hessenberg, []

        def counted(A, p):
            used[-1].append(p)
            return hessenberg(A, p)

        # all but the largest found again
        monkeypatch.setattr(sys.modules[__name__], "_PRIMES", [2 ** 62 - 57])
        monkeypatch.setattr(sys.modules[__name__], "_hessenberg", counted)
        big = [[(-1) ** (i * j) * 2 ** (150 + 7 * i + j) + i for j in range(6)] for i in range(6)]
        from test_seifert import seifert_gamma

        gamma = seifert_gamma([[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, 1, 1], [0, 0, 0, -1]])
        for M in (big, gamma, [[2 ** 200]], [[Fraction(1, 3) ** 40, 2], [1, 7]]):
            used.append([])
            chi = _hessenberg_charpoly(M)
            primes = used[-1]
            assert primes and len(set(primes)) == len(primes)
            assert all(p < 2 ** 62 and _miller_rabin(p) for p in primes), primes
            scale = math.lcm(*(Fraction(x).denominator for row in M for x in row))
            top = max(abs(Fraction(c) * scale ** (len(M) - k)) for k, c in enumerate(chi))
            assert math.prod(primes) > 2 * top  # enough of them for the CRT to be exact
        listed = _PRIMES
        assert len(used[0]) >= 12 and len(listed) >= len(used[0])
        assert listed == [q for q in range(2 ** 62 - 1, listed[-1] - 1, -2) if _miller_rabin(q)]
        monkeypatch.undo()
        assert _PRIMES[:4] == listed[:4]


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

    def test_lambda_matrices(self, rng):
        # LambdaMatrix ** is _power over @; integer matrices are C_0 alone
        M = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        want = [[int(i == j) for j in range(3)] for i in range(3)]
        for p in range(max(self.PS) + 1):
            if p in self.PS:
                assert LambdaMatrix(M) ** p == LambdaMatrix(want), p
            want = _mat_mul(want, M)


def _oracle_rewrite(r: RatFun, p: int, charpoly) -> tuple[LaurentPoly, LaurentPoly]:
    """(P, Qp) with r = P / Qp(t^p), Qp = |lc(q)|^p charpoly of the rows
    z^i (z^p mod q) for the denominator q of r."""
    q = r.den
    qhat = [q.coeff(e) for e in range(q.max_exp + 1)]
    lc = qhat[-1]
    monic = [_qdiv(c, lc) for c in qhat]
    chi = charpoly(_mul_rows(_powmod([0, 1], p, monic), monic))
    Qp = LaurentPoly.from_coeffs([c * abs(lc) ** p for c in chi])
    Qp_tp = LaurentPoly({p * e: v for e, v in Qp.coeffs.items()})
    return r.num * Qp_tp.divexact(q), Qp


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
                want = [c * abs(lc) ** p for c in _faddeev_leverrier(_mat_pow(C, p))]
                assert Qp == LaurentPoly.from_coeffs(want), (r, p)
                Qp_tp = LaurentPoly({p * e: c for e, c in Qp.coeffs.items()})
                assert r.num * Qp_tp == P * r.den

    def test_matches_the_oracle_rewrites(self, rng):
        # the pencil determinant against the rewrite with the modular
        # Hessenberg chi and with Faddeev-LeVerrier, on random denominators
        # of degree 1 to 5, integral and rational, monic and not
        cases = 0
        while cases < 20:
            d = 1 + cases % 5
            scale = rng.choice([1, 1, 3, 7])
            den = LaurentPoly({e: Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 5]))
                               for e in range(d)} | {d: Fraction(rng.randint(1, 9), scale)})
            if den.coeff(0) == 0 or den.eval_one() == 0:
                continue
            r = RatFun(LaurentPoly({e: rng.randint(-3, 3) for e in range(-2, 3)}) + one, den)
            if r.is_polynomial:
                continue
            cases += 1
            for p in (1, 2, 3, 5, 12, 101):
                got = denominator_to_tp(r, p)
                for charpoly in (_hessenberg_charpoly, _faddeev_leverrier):
                    assert got == _oracle_rewrite(r, p, charpoly), (r, p, charpoly)


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


def _euclid_gcd(a, b):
    """Monic gcd over Q of dense ascending a and b by Euclid's remainder
    loop, independent of the package's ``_remainders``."""
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    return [Fraction(c) / a[-1] for c in a]


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
        # and exact signs of the square-free part D / gcd(D, D') by Euclid
        checked = 0
        for _ in range(60):
            f = _bar_symmetric(rng, rng.randint(1, 6))
            if not (f.evaluate(Fraction(1)) and f.evaluate(Fraction(-1))):
                continue
            brackets = circle_roots(f)
            assert all(b < a for (_, b), (a, _) in zip(brackets, brackets[1:])), f
            trace = _trace_poly(f)
            gcd = _euclid_gcd(trace, [i * c for i, c in enumerate(trace)][1:])
            s = LaurentPoly.from_coeffs(_poly_divmod(trace, gcd)[0])
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


def _fraction_remainders(a, b):
    """Oracle for ``_remainders``: Sturm's sequence a, b, -(a mod b), ... over
    Q by ``_poly_divmod``, to its last nonzero member (the production route
    before the integer pseudo-remainders)."""
    seq = [_trim(list(a)), _trim(list(b))]
    while seq[-1]:
        seq.append([-c for c in _poly_divmod(*seq[-2:])[1]])
    return seq[:-1]


def _fraction_resultant(a, b):
    """Res(a, b) along ``_fraction_remainders`` (see ``resultant``)."""
    seq = _fraction_remainders(a, b)
    if len(seq[-1]) > 1:
        return Fraction(0)
    res = Fraction(seq[-1][0]) ** (len(seq[-2]) - 1)
    for x, y, z in zip(seq, seq[1:], seq[2:]):
        res *= (-1) ** ((len(x) * (len(y) - 1)) % 2) * y[-1] ** (len(x) - len(z))
    return res


def _fraction_sturm(D):
    """``_sturm`` along ``_fraction_remainders``: members divided by the last
    and rescaled to primitive integer polynomials afterwards."""
    def primitive(p):
        scale = math.lcm(*(Fraction(c).denominator for c in p))
        p = [int(c * scale) for c in p]
        return [c // math.gcd(*p) for c in p]

    seq = [primitive(q) for q in _fraction_remainders(D, [i * c for i, c in enumerate(D)][1:])]
    return [primitive(_poly_divmod(q, seq[-1])[0]) for q in seq]


def _knot_deltas():
    """Delta of every corpus knot and of torus knots up to T(7, 8)."""
    from knotcovers.seifert import Knot, corpus_records
    from test_seifert import torus_seifert

    deltas = [rec.knot.delta for rec in corpus_records()]
    pairs = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5), (5, 6), (6, 7), (7, 8)]
    return deltas + [Knot(torus_seifert(a, b)).delta for a, b in pairs]


def _remainder_cases(rng):
    """Pairs (a, b) of dense trimmed coefficient lists: random integer and
    rational polynomials, with t^k factors, repeated roots and shared
    factors, either degree the larger; constants and zeros; and (D, D') for
    the trace polynomial D and for Delta itself of every knot of
    ``_knot_deltas``."""
    dense = knotcovers.exactalg._dense

    def derivative(a):
        return [i * c for i, c in enumerate(a)][1:]

    cases = []
    for trial in range(240):
        rational = trial % 2 == 1
        f, g = _random_poly(rng, rational, 0, 5), _random_poly(rng, rational, 0, 4)
        if trial % 3 == 0:
            h = _random_poly(rng, rational, 0, 2)
            f, g = f * h * h, g * h
        if trial % 4 == 0:
            f, g = f * t ** rng.randint(0, 3), g * t ** rng.randint(0, 3)
        a, b = dense(f), dense(g)
        cases += [(a, b), (b, a), (a, derivative(a))]
    cases += [([3], [1, 2, 1]), ([1, 2, 1], [Fraction(-3, 2)]), ([], [1, 1]), ([2, 4], []),
              ([], []), ([0, 0, 1], [0, 1]), ([1, -2, 1], [-1, 1])]
    for delta in _knot_deltas():
        D = _trace_poly(delta)
        asc = dense(delta.shift(delta.max_exp))
        cases += [(D, derivative(D)), (asc, derivative(asc))]
    return cases


class TestRemainderSequence:
    """``_remainders`` over Z against the Fraction sequence it replaced."""

    def test_members_are_primitive_positive_multiples(self, rng):
        for a, b in _remainder_cases(rng):
            seq, contents = knotcovers.exactalg._remainders(a, b)
            want = _fraction_remainders(a, b)
            assert len(seq) == len(want) and len(contents) == max(0, len(seq) - 2), (a, b)
            assert all(c > 0 for c in contents)
            for got, q in zip(seq, want):
                assert all(type(c) is int for c in got), (a, b)
                if not q:
                    assert got == [], (a, b)
                    continue
                assert len(got) == len(q) and math.gcd(*got) == 1, (a, b)
                # got = lambda q with lambda = got[-1] / q[-1] > 0
                assert got[-1] * q[-1] > 0, (a, b)
                assert all(x * q[-1] == y * got[-1] for x, y in zip(got, q)), (a, b)

    def test_sturm_counts_and_circle_roots_agree(self, rng, monkeypatch):
        deltas = _knot_deltas() + [_bar_symmetric(rng, rng.randint(1, 6)) for _ in range(60)]
        for delta in deltas:
            D = _trace_poly(delta)
            got, want = knotcovers.exactalg._sturm(D), _fraction_sturm(D)
            assert got == want, delta
            for x in [rng.uniform(-2.5, 2.5) for _ in range(8)] + [-2.0, 0.0, 1.0, 2.0]:
                assert (knotcovers.exactalg._changes(got, x)
                        == knotcovers.exactalg._changes(want, x)), (delta, x)
        brackets = []
        for delta in deltas:
            try:
                brackets.append(circle_roots(delta))
            except ValueError as refusal:  # SingularEvaluation, or f(+-1) = 0
                brackets.append(type(refusal))
        monkeypatch.setattr(knotcovers.exactalg, "_sturm", _fraction_sturm)
        for delta, got in zip(deltas, brackets):
            try:
                assert circle_roots(delta) == got, delta
            except ValueError as refusal:
                assert type(refusal) is got, delta

    def test_gcd_squarefree_parts_and_resultant_agree(self, rng):
        squarefree = 0
        for a, b in _remainder_cases(rng):
            f, g = LaurentPoly.from_coeffs(a), LaurentPoly.from_coeffs(b)
            units_off = _as_ascending(f), _as_ascending(g)  # poly_gcd strips t^k
            last = _fraction_remainders(*units_off)[-1]
            gcd = poly_gcd(f, g)
            assert gcd == (LaurentPoly.from_coeffs(_euclid_gcd(*units_off)) if last else 0), (a, b)
            assert gcd == (LaurentPoly.from_coeffs([Fraction(c) / last[-1] for c in last])
                           if last else 0), (a, b)
            if a and b:
                res = resultant(a, b)
                assert type(res) is Fraction and res == _fraction_resultant(a, b), (a, b)
                if len(a) + len(b) < 16:
                    assert res == _sylvester_resultant(f, g), (a, b)
            if len(a) > 1:
                h, parts = _as_ascending(f), []
                while len(h) > 1:
                    last = _fraction_remainders(h, [i * c for i, c in enumerate(h)][1:])[-1]
                    nxt = [Fraction(c) / last[-1] for c in last]
                    parts.append(_poly_divmod(h, nxt)[0])
                    h = nxt
                assert knotcovers.exactalg._squarefree_parts(f) == parts, a
                squarefree += len(parts) > 1
        assert squarefree > 40


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

    def test_a_string_coefficient_reads_as_fraction_reads_it(self):
        # _frac tries int() first; on every string it must give Fraction's
        # value, as an int when integral, or Fraction's own error
        for text in ["-3", " 7\n", "+2", "-0", "00012", "\u0661\u0662", "1.5", "-2.0",
                     "1e3", "3/4", "-6/3", "9" * 4000]:
            want = Fraction(text)
            got = _frac(text)
            assert got == want and type(got) is (int if want.denominator == 1 else Fraction)
        for text in ["0x10", "1 2", "", "-", "1/2/3", "9" * 4301]:
            with pytest.raises(ValueError) as want:
                Fraction(text)
            with pytest.raises(ValueError) as got:
                _frac(text)
            assert str(got.value) == str(want.value)

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

