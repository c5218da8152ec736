"""Rational 2-loop classes: sums of triples of local rational functions.

A 2-loop class is a finite sum of terms c * (f(t1), g(t2), h(t3)) where
the slots are rational functions regular at t = 1 (``RatFun``) and c is
rational.  Two relations are quotiented out:

* slot symmetry -- the order-12 group generated by permuting the three
  slots and by applying the bar involution to all slots at once;
* the loop relation -- (f, g, h) = (t f, t g, t h), reflecting
  t1 t2 t3 = 1.

Classes are stored as canonical term lists; ``symmetrize`` averages over
the symmetry group.  ``==`` compares the term lists, so two classes equal
in the quotient may differ there; every quantity below is invariant under
both relations.

The two quantities consumed downstream:

* ``res_p_theta(Q, p)`` -- the finite residue
  (1/p) * sum over p-th roots w1, w2 of f(w1) g(w2) h((w1 w2)^-1),
  an exact Fraction for every class.  Every class is read as one integer
  form, (1/D) sum w F(t1) G(t2) H(t3) with integer w and integer slot
  coefficients, one read per distinct slot, and res_p is one integer
  fold-and-sum over it.  A polynomial class keeps its form; a rational
  class builds it at p, each rational slot first rewritten over a
  denominator in t^p (``denominator_to_tp``), whose norm polynomial is the
  determinant of a pencil by ``LambdaMatrix.det``, the package's one
  determinant kernel.
* ``torus_average(Q)`` -- the limiting average over the 2-torus, exact
  diagonal-coefficient sum for polynomial slots, otherwise a float in
  closed form from the residues at the slots' poles: partial fractions,
  one geometric sum per triple of poles on each side of the circle.

For polynomial slots res_p/p is not only a limit: once p exceeds the
spread of the slot exponents no two of them are congruent mod p, and
res_p/p equals the torus average exactly, one diagonal sum kept on the
class.  For rational slots res_p/p converges to it, geometrically with
the distance of the poles from the circle.
"""

from __future__ import annotations

import math
import operator
import sys
from decimal import Decimal, DecimalException, getcontext, localcontext
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from typing import Mapping, NamedTuple, Sequence

from .exactalg import (_ON_CIRCLE, LaurentPoly, RatFun, _frac, _json_object, _mul_rows,
                       _poly_divmod, _power, _powmod, _qdiv, _simple_roots, _squarefree_parts,
                       _trim)
from .lambdamat import LambdaMatrix

__all__ = [
    "QSingularAtP",
    "SingularOnTorus",
    "ThetaClass",
    "denominator_to_tp",
    "res_p_theta",
    "torus_average",
]


# torus_average refuses a pole with rho = min(|alpha|, 1/|alpha|) above 1
# minus this: the window that its earlier FFT quadrature refused up front,
# rho^(2^21) > 1e-13, that is 1 - rho below 1.4273e-5, so that no class
# refused before is answered now
_NEAR_CIRCLE = 1.43e-5


class QSingularAtP(ValueError):
    """Some slot has a pole at a p-th root of unity."""


class SingularOnTorus(ValueError):
    """Some slot has a pole on (or numerically near) the unit circle."""


class ThetaTerm(NamedTuple):
    f: RatFun
    g: RatFun
    h: RatFun
    c: Fraction


class ThetaClass:
    """Finite rational combination of slot triples (f, g, h); a polynomial
    class keeps its ``_integer_form`` and ``_diagonal_sum`` once asked."""

    __slots__ = ("terms", "_ints", "_diagonal")

    def __init__(self, terms: Sequence[tuple] = ()):  # (f, g, h, c) tuples
        self._ints = self._diagonal = None
        # a one-element list per triple, so each term hashes its slots once
        merged: dict[tuple[RatFun, RatFun, RatFun], list[Fraction]] = {}
        for f, g, h, c in terms:
            f = f if isinstance(f, RatFun) else RatFun(f)
            g = g if isinstance(g, RatFun) else RatFun(g)
            h = h if isinstance(h, RatFun) else RatFun(h)
            if f.num.is_zero or g.num.is_zero or h.num.is_zero:
                continue
            merged.setdefault((f, g, h), [Fraction(0)])[0] += Fraction(c)
        # a canonical order (it fixes float summation order): by each slot's
        # sorted (exponent, coefficient) pairs, numerator then denominator
        order = sorted(
            ((fgh, c) for fgh, (c,) in merged.items() if c),
            key=lambda item: [(sorted(s.num.coeffs.items()), sorted(s.den.coeffs.items()))
                              for s in item[0]],
        )
        self.terms = tuple(ThetaTerm(*fgh, c) for fgh, c in order)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "ThetaClass":
        return cls()

    @classmethod
    def constant(cls, c) -> "ThetaClass":
        one = RatFun(LaurentPoly.one())
        return cls([(one, one, one, Fraction(c))])

    @classmethod
    def monomial(cls, a: int, b: int, c_exp: int, coeff=1) -> "ThetaClass":
        return cls(
            [
                (
                    RatFun(LaurentPoly.monomial(a)),
                    RatFun(LaurentPoly.monomial(b)),
                    RatFun(LaurentPoly.monomial(c_exp)),
                    Fraction(coeff),
                )
            ]
        )

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_polynomial(self) -> bool:
        return all(t.f.is_polynomial and t.g.is_polynomial and t.h.is_polynomial for t in self.terms)

    def __eq__(self, other) -> bool:
        """Structural equality of canonical term lists, finer than equality
        in the quotient (Q.pushed(1) differs from Q here)."""
        if not isinstance(other, ThetaClass):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __add__(self, other: "ThetaClass") -> "ThetaClass":
        return ThetaClass(list(self.terms) + list(other.terms))

    def scale(self, c) -> "ThetaClass":
        c = Fraction(c)
        return ThetaClass([(t.f, t.g, t.h, t.c * c) for t in self.terms])

    def __neg__(self) -> "ThetaClass":
        return self.scale(-1)

    def __sub__(self, other: "ThetaClass") -> "ThetaClass":
        return self + (-other)

    # -- symmetry moves ------------------------------------------------------

    def pushed(self, k: int = 1) -> "ThetaClass":
        """Apply the loop relation: multiply every slot by t^k."""
        m = RatFun(LaurentPoly.monomial(k))
        return ThetaClass([(t.f * m, t.g * m, t.h * m, t.c) for t in self.terms])

    def permuted(self, perm: Sequence[int]) -> "ThetaClass":
        if sorted(perm) != [0, 1, 2]:
            raise ValueError("perm must be a permutation of (0, 1, 2)")
        out = []
        for t in self.terms:
            slots = (t.f, t.g, t.h)
            out.append((slots[perm[0]], slots[perm[1]], slots[perm[2]], t.c))
        return ThetaClass(out)

    def barred(self) -> "ThetaClass":
        """Apply the bar involution to all three slots simultaneously."""
        return ThetaClass([(t.f.bar(), t.g.bar(), t.h.bar(), t.c) for t in self.terms])

    def symmetrize(self) -> "ThetaClass":
        """Average over the order-12 slot symmetry group (S3 x bar): the 12
        images of every term, each with coefficient c/12, in one class."""
        out = []
        for t in self.terms:
            c = t.c / 12
            for slots in ((t.f, t.g, t.h), (t.f.bar(), t.g.bar(), t.h.bar())):
                for perm in permutations(range(3)):
                    out.append((slots[perm[0]], slots[perm[1]], slots[perm[2]], c))
        return ThetaClass(out)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [
                {"f": t.f.to_json(), "g": t.g.to_json(), "h": t.h.to_json(), "c": str(t.c)}
                for t in self.terms
            ]
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "ThetaClass":
        raw = _json_object(obj, "a 2-loop class").get("terms")
        if not isinstance(raw, list):  # a missing or misspelt key is not the zero class
            raise ValueError("a 2-loop class needs a 'terms' array")
        _json_object(obj, "a 2-loop class", ("terms",))
        terms, keys = [], ("f", "g", "h", "c")
        for t in raw:
            _json_object(t, "a 2-loop term", keys, required=keys)
            terms.append(
                (
                    RatFun.from_json(t["f"]),
                    RatFun.from_json(t["g"]),
                    RatFun.from_json(t["h"]),
                    _frac(t["c"]),
                )
            )
        return cls(terms)

    def __repr__(self) -> str:
        return "ThetaClass(%d terms)" % len(self.terms)

    def _integer_form(self) -> tuple[int, int, list[tuple[int, dict, dict, dict]]] | None:
        """(spread, D, terms), the ``_integer_form`` of a polynomial class,
        None for a rational one, kept.  No two exponents within the spread,
        max - min over every slot exponent (0 for the zero class), are
        congruent mod a p past it."""
        if self._ints is None:
            self._ints = False
            if self.is_polynomial:
                D, terms = _integer_form(self.terms, lambda slot: _numerators(slot.num))
                exps = [e for _, *slots in terms for F in slots for e in F]
                self._ints = (max(exps) - min(exps) if exps else 0, D, terms)
        return self._ints or None

    def _diagonal_sum(self) -> Fraction:
        """(1/D) sum w sum_e F_e G_e H_e over the integer form, kept: the
        torus average of a polynomial class, and res_p / p at every p past
        its spread, where no p-th root aliases two exponents."""
        if self._diagonal is None:
            _, D, terms = self._integer_form()
            self._diagonal = Fraction(_weighted_diagonal(terms), D)
        return self._diagonal


# ---------------------------------------------------------------------------
# residues and averages


def _numerators(P: LaurentPoly) -> tuple[dict[int, int], int]:
    """P's coefficients as integer numerators over their common denominator
    d, by exponent, and d."""
    coeffs = P._c  # read, not copied
    d = math.lcm(*(v.denominator for v in coeffs.values()))
    return {e: v.numerator * (d // v.denominator) for e, v in coeffs.items()}, d


def _integer_form(terms: Sequence[ThetaTerm], read) -> tuple[int, list[tuple]]:
    """(D, [(w, F, G, H)]) with the terms equal to (1/D) sum w F G H: read
    gives each distinct slot, once, as integers F by exponent over a
    nonzero rational d, and w = c D / (d_f d_g d_h) is an integer."""
    read, scales, rows = cache(read), [], []
    for t in terms:
        (F, df), (G, dg), (H, dh) = read(t.f), read(t.g), read(t.h)
        scales.append(t.c / (df * dg * dh))
        rows.append((F, G, H))
    D = math.lcm(*(c.denominator for c in scales))
    return D, [(c.numerator * (D // c.denominator), *row) for c, row in zip(scales, rows)]


def _weighted_diagonal(terms: Sequence[tuple[int, dict, dict, dict]]) -> int:
    """sum w sum_e F_e G_e H_e over an integer form."""
    return sum(w * sum(v * F.get(e, 0) * G.get(e, 0) for e, v in H.items())
               for w, F, G, H in terms)


def _fold(F: Mapping[int, int], p: int) -> dict[int, int]:
    """The coefficients F summed by exponent mod p: the periodised
    coefficients, equal to F at every p-th root of unity."""
    out: dict[int, int] = {}
    for e, v in F.items():
        out[e % p] = out.get(e % p, 0) + v
    return out


def denominator_to_tp(r: RatFun, p: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Rewrite r = P(t) / Qp(t^p) and return (P, Qp).

    Qp(s) = |lc(q)|^p prod (s - a^p) over the roots a of the denominator q,
    so q(t) divides Qp(t^p): det(sI - M), M the matrix of multiplication by
    z^p on Q[z]/q(z), the rows z^i (z^p mod q) (``_powmod``, ``_mul_rows``),
    as the determinant of the pencil sI - M (``LambdaMatrix.det``), scaled
    to the positive leading coefficient |lc(q)|^p.  P is then forced by
    exact division, so r == P / Qp(t^p) identically.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    q = r.den
    if q == LaurentPoly.one():  # canonical: q(1) = 1, so the only constant q
        return r.num, LaurentPoly.one()
    qhat = _trim(q._ascending()[0])
    lc = qhat[-1]
    monic = [_qdiv(c, lc) for c in qhat]
    M = _mul_rows(_powmod([0, 1], p, monic), monic)
    pencil = {0: [[-x for x in row] for row in M], 1: LambdaMatrix.identity(len(M)).coeffs[0]}
    Qp = LambdaMatrix.from_coeffs(pencil, len(M)).det() * abs(lc) ** p
    Qp_tp = LaurentPoly({p * e: v for e, v in Qp.coeffs.items()})
    return r.num * Qp_tp.divexact(q), Qp


def res_p_theta(Q: ThetaClass, p: int) -> Fraction:
    """(1/p) sum over p-th roots w1, w2 of f(w1) g(w2) h((w1 w2)^-1), exact.

    With the periodised coefficients F, G, H of the slots the root sums
    collapse: h enters through (w1 w2)^-r, so only r = a = b mod p
    survives, and each term gives p * c * sum_r F_r G_r H_r: one integer
    sum over the class's integer form (``_integer_form``), over D.  A
    polynomial class keeps its form: past its spread nothing aliases and
    the answer is p times its kept diagonal sum, at or below it the form is
    folded mod p.  A rational class builds its form at p from its slots'
    periodised coefficients: a rational slot is rewritten as
    P(t) / Qp(t^p) (``denominator_to_tp``), and Qp(w^p) = Qp(1) at every
    p-th root w.  Raises QSingularAtP when that is 0, that is when some
    slot has a pole at a p-th root of unity.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    form = Q._integer_form()
    if form is None:
        def read(slot):
            P, q1 = slot.num, 1
            if not slot.is_polynomial:
                P, Qp = denominator_to_tp(slot, p)
                q1 = Qp.eval_one()
                if q1 == 0:
                    raise QSingularAtP("slot denominator vanishes at a %d-th root of unity" % p)
            F, d = _numerators(P)
            return _fold(F, p), d * q1

        D, terms = _integer_form(Q.terms, read)
    else:
        spread, D, terms = form
        if p > spread:
            return p * Q._diagonal_sum()
        terms = [(w, _fold(F, p), _fold(G, p), _fold(H, p)) for w, F, G, H in terms]
    return Fraction(p * _weighted_diagonal(terms), D)


class _Complex:
    """re + i im in Decimals, rounded to the current decimal context: the
    closed form's number.  The partial fractions of clustered poles cancel
    (about 10^5 on a slot with three triple poles 0.3 apart, 10^8 on a
    product of two), so ``torus_average`` works at as many digits as its
    measured cancellation asks and rounds once, at the end.  An operand may
    also be an int, a Fraction or a complex."""

    __slots__ = ("re", "im")

    def __init__(self, re: Decimal, im: Decimal = Decimal(0)):
        self.re, self.im = re, im

    @staticmethod
    def of(x) -> "_Complex":
        if isinstance(x, _Complex):
            return x
        if isinstance(x, Fraction):
            return _Complex(Decimal(x.numerator) / x.denominator)
        if isinstance(x, complex):
            return _Complex(Decimal(x.real), Decimal(x.imag))
        return _Complex(Decimal(x))

    def __add__(self, other) -> "_Complex":
        other = _Complex.of(other)
        return _Complex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "_Complex":
        return _Complex(-self.re, -self.im)

    def __sub__(self, other) -> "_Complex":
        return self + -_Complex.of(other)

    def __rsub__(self, other) -> "_Complex":
        return _Complex.of(other) + -self

    def __mul__(self, other) -> "_Complex":
        o = _Complex.of(other)
        return _Complex(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_Complex":
        o = _Complex.of(other)
        d = o.re * o.re + o.im * o.im
        return _Complex((self.re * o.re + self.im * o.im) / d,
                        (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other) -> "_Complex":
        return _Complex.of(other) / self

    def __pow__(self, n: int) -> "_Complex":
        x = self if n >= 0 else 1 / self
        return _power(x, abs(n), operator.mul, _Complex(Decimal(1)))

    def __abs__(self) -> Decimal:
        return abs(self.re) + abs(self.im)  # within a factor sqrt 2 of the modulus


def _poles(den: LaurentPoly) -> list[tuple[int, list, np.ndarray]]:
    """(m, s, the roots of s) for the square-free factor s = s_(m-1) / s_m
    of a slot denominator's parts (``_squarefree_parts``; the last part is
    its own factor), an exact quotient whose roots, by ``_simple_roots``
    or exactly for a linear s, are the poles of exact multiplicity m, once
    each."""
    parts = _squarefree_parts(den)
    factors = [_poly_divmod(s, nxt)[0] for s, nxt in zip(parts, parts[1:])] + parts[-1:]
    return [(m, s, [-s[0] / s[1]] if len(s) == 2 else _simple_roots(s))
            for m, s in enumerate(factors, 1) if len(s) > 1]


def _taylor(p: Sequence, z: _Complex, n: int) -> list[_Complex]:
    """The first n Taylor coefficients of p (ascending) at z, p(z + x) =
    sum c_i x^i, by repeated synthetic division by x - z (0 past deg p)."""
    out, p = [], [_Complex.of(c) for c in reversed(p)]
    for _ in range(n):
        acc, quo = 0, []
        for c in p:
            acc = acc * z + c
            quo.append(acc)
        out.append(quo.pop() if quo else _Complex.of(0))
        p = quo
    return out


def _refined(s: Sequence, roots) -> tuple[list[_Complex], float]:
    """The roots of the square-free s (ascending, degree n), refined from
    its float roots together by Weierstrass (Durand-Kerner) iteration at
    the working precision, and the overlap of their inclusion disks.

    With W_i = s(z_i) / (lc prod over j != i of (z_i - z_j)), s is lc times
    the characteristic polynomial of diag(z) - W 1^T, so by Gerschgorin its
    roots lie in the disks about z_i - W_i of radius (n - 1)|W_i|, as many
    in each connected union as it has disks; the radii here also take in
    the rounding of s(z_i).  The overlap is the largest
    ratio of two disks' radii to the distance between their centres, and of
    a disk's radius to its centre's distance from |t| = 1: below 1 the disks
    are disjoint and off the circle, so each holds one pole, on a known side.
    The centres are returned.  The float roots are nudged apart first, by
    sqrt(eps) relative: np.roots may return two poles nearer than that as
    one value or as a conjugate pair, which the iteration would keep
    together.  It stops once the disks are disjoint and every s(z_i) is
    within Horner's rounding bound, 4n ulp sum |s_k| |z_i|^k, of 0, so no
    step can bring the points nearer; the overlap is infinite when it
    never gets there.  A linear s has its root exactly, -s_0 / s_1."""
    if len(s) == 2:
        return [_Complex.of(-Fraction(s[0]) / s[1])], 0.0
    n, lc = len(s) - 1, _Complex.of(s[-1])
    sizes = [abs(_Complex.of(c).re) for c in s]
    nudge = math.sqrt(sys.float_info.epsilon) * (1 + 1j)
    z = [_Complex.of(complex(x) * (1 + nudge * i)) for i, x in enumerate(roots, 1)]
    floor = 4 * n * Decimal(10) ** (1 - getcontext().prec)
    try:
        for _ in range(4 * getcontext().prec):  # a cluster halves its step
            values = [_taylor(s, zi, 1)[0] for zi in z]
            noise = [floor * sum(a * abs(zi) ** k for k, a in enumerate(sizes)) for zi in z]
            dens = [lc * math.prod((zi - zj for zj in z if zj is not zi), start=1) for zi in z]
            centres = [zi - v / d for zi, v, d in zip(z, values, dens)]
            # radii from |s(z_i)| and its rounding, in the norm |re| + |im|,
            # within a factor sqrt 2 of the modulus: the factors 2 below
            # cover it
            radii = [(n - 1) * (abs(v) + e) / abs(d) for v, e, d in zip(values, noise, dens)]
            overlap = max([2 * (radii[i] + radii[j]) / abs(centres[i] - centres[j])
                           for i in range(n) for j in range(i)]
                          + [2 * r / abs(_modulus(c) - 1) for c, r in zip(centres, radii)])
            if overlap < 1 and all(abs(v) <= e for v, e in zip(values, noise)):
                return centres, float(overlap)
            z = centres
    except DecimalException:  # coincident points or centres
        pass
    return z, math.inf


class _Tails(NamedTuple):
    """A rational slot's Laurent coefficients on |t| = 1: the polynomial
    part t^a P(t), ``window`` by exponent, plus one sequence per pole alpha
    of multiplicity m on each side.  Right, |alpha| > 1, on r >= a:
    sum_k B_k C(j + k - 1, k - 1) X^j at j = r - a, X = 1/alpha; left,
    |alpha| < 1, on r < a: sum_k B_k C(j, k - 1) X^j at j = a - 1 - r,
    X = alpha.  A tail is (X, [B_1 .. B_m])."""

    a: int
    top: int  # the window's top exponent, a - 1 when P = 0
    window: dict[int, Fraction]
    right: list[tuple[_Complex, list[_Complex]]]
    left: list[tuple[_Complex, list[_Complex]]]


def _tails(slot: RatFun, poles: list[tuple[int, _Complex]]) -> _Tails:
    """Split n/q exactly into t^a P + t^a R/q, deg R < deg q, and R/q into
    sum A_(alpha,k) (t - alpha)^-k over its (multiplicity, pole) pairs: with
    q(alpha + x) = x^m u(x), the A for k = 1..m are the coefficients of
    x^(m-k) in the Taylor series of R/u at alpha, one series division.
    (t - alpha)^-k is (-X)^k sum_j C(j + k - 1, k - 1) X^j t^j outside
    (X = 1/alpha) and alpha^(1-k) sum_j C(j, k - 1) alpha^j t^(-1-j) inside."""
    N, a = slot.num._ascending()
    q = slot.den._ascending()[0]
    P, R = _poly_divmod(N, q)
    right, left = [], []
    for m, z in poles:
        r, u = _taylor(R, z, m), _taylor(q, z, 2 * m)[m:]
        v = []
        for i in range(m):
            v.append((r[i] - sum(u[k] * v[i - k] for k in range(1, i + 1))) / u[0])
        if z.re * z.re + z.im * z.im > 1:
            X = 1 / z
            right.append((X, [v[m - k] * (-X) ** k for k in range(1, m + 1)]))
        else:
            left.append((z, [v[m - k] * z ** (1 - k) for k in range(1, m + 1)]))
    window = {a + i: c for i, c in enumerate(P) if c}
    return _Tails(a, a + len(P) - 1, window, right, left)


def _tail_poly(B: Sequence[_Complex], j: int, right: bool) -> _Complex:
    """A tail's coefficient at j over X^j: sum_k B_k C(j + k - 1, k - 1) on
    the right, sum_k B_k C(j, k - 1) on the left."""
    return sum(b * math.comb(j + k if right else j, k) for k, b in enumerate(B))


def _coefficient(slot: RatFun, tails: dict, r: int):
    """The slot's Laurent coefficient of t^r on |t| = 1."""
    if slot.is_polynomial:
        return slot.num._c.get(r, 0)
    T = tails[slot]
    if r >= T.a:
        j = r - T.a
        return T.window.get(r, 0) + sum(X ** j * _tail_poly(B, j, True) for X, B in T.right)
    j = T.a - 1 - r
    return sum(X ** j * _tail_poly(B, j, False) for X, B in T.left)


def _geometric_sum(factors: Sequence[tuple], right: bool) -> _Complex:
    """sum over j >= 0 of the product over the factors ((X, B), o) of the
    tail's coefficient at j + o: P(j) X^j, X the product of the tails' X
    and P of degree D, the multiplicities' sum less 3, in closed form
    sum_i Delta^i P(0) X^i / (1 - X)^(i + 1) from P(0) .. P(D)."""
    D = sum(len(B) - 1 for (_, B), _ in factors)
    X = math.prod(X for (X, _), _ in factors)
    scale = math.prod(X ** o for (X, _), o in factors)
    values = [scale * math.prod(_tail_poly(B, j + o, right) for (_, B), o in factors)
              for j in range(D + 1)]
    total = 0
    for i in range(D + 1):
        total += values[0] * X ** i / (1 - X) ** (i + 1)
        values = [b - a for a, b in zip(values, values[1:])]
    return total


def _term_diagonal(t: ThetaTerm, tails: dict) -> _Complex:
    """sum over r of f_r g_r h_r: over the exponents that the polynomial
    slots share (``_shared_exponents``) when there is one, else over the
    window where some polynomial part lives, plus on each side one
    ``_geometric_sum`` per triple of poles there."""
    slots, shared = t[:3], _shared_exponents(t)
    if shared is not None:
        return sum(math.prod(_coefficient(s, tails, r) for s in slots) for r in sorted(shared))
    T = [tails[s] for s in slots]
    lo, hi = min(x.a for x in T), max(x.top for x in T)
    total = sum(math.prod(_coefficient(s, tails, r) for s in slots) for r in range(lo, hi + 1))
    for right in (True, False):
        offsets = [hi + 1 - x.a if right else x.a - lo for x in T]
        for triple in product(*(x.right if right else x.left for x in T)):
            total += _geometric_sum(list(zip(triple, offsets)), right)
    return total


def _closed_form(terms: Sequence[ThetaTerm], poles: dict) -> Decimal:
    """The class's diagonal sum at the working precision, from each
    rational slot's (multiplicity, pole) pairs."""
    tails = {slot: _tails(slot, found) for slot, found in poles.items()}
    return _Complex.of(sum(t.c * _term_diagonal(t, tails) for t in terms)).re


def torus_average(Q: ThetaClass):
    """Average of f(w1) g(w2) h((w1 w2)^-1) over the unit 2-torus.

    The average of w1^(a-e) w2^(b-e) is the indicator a = b = e, so the
    answer is the diagonal sum over r of f_r g_r h_r of the slots' Laurent
    coefficients.  Polynomial slots: that sum as an exact Fraction, kept on
    the class, which is also res_p / p at every p past the spread of the
    slot exponents, since no p-th root aliases two of them.  Otherwise a
    float (the limit is irrational in general), in closed form from the
    slots' partial fractions (``_tails``): a finite sum where a polynomial
    part lives and a geometric sum per triple of poles on each tail
    (``_term_diagonal``).  A term whose polynomial slots share no exponent
    has no diagonal and contributes exactly 0, so it is skipped (its poles
    still refuse); a class of such terms alone averages to an exact
    Fraction 0.  The distinct poles, found once per slot (``_poles``),
    decide two SingularOnTorus refusals before any expansion: a pole
    within ``_ON_CIRCLE`` of |t| = 1 is on it, and one with
    rho = min(|alpha|, 1/|alpha|) above 1 - ``_NEAR_CIRCLE`` is too near it.

    The precision is measured, not fixed: the partial fractions of nearby
    poles are large and cancel.  Each round refines the poles at 2d decimal
    digits (``_refined``) and sums the closed form at d and at 2d; the gap
    between the two is the d-digit sum's error, and the 2d-digit sum's is
    about 10^-d of it.  The 2d-digit sum is returned once the d-digit one
    kept three digits.  It is also returned when it lies within the last
    round's error of 0 and its own error is 10^-d of that: an average that
    is 0 (by symmetry, or by a residue sum) never keeps a digit.  Otherwise
    d grows to the digits the d-digit sum lost, four more, and at least
    doubles; pole disks that still overlap double it too.  d starts at 17,
    a float's round trip.  Disks that still overlap past the digits of
    Mahler's separation bound (``_separating_digits``), or a round that
    does not shrink the error, raise ValueError.
    """
    if Q.is_polynomial:
        return Q._diagonal_sum()
    slots = {slot for t in Q.terms for slot in (t.f, t.g, t.h) if not slot.is_polynomial}
    poles = {slot: _poles(slot.den) for slot in slots}
    moduli = [abs(z) for found in poles.values() for *_, roots in found for z in roots]
    if any(abs(r - 1.0) < _ON_CIRCLE for r in moduli):
        raise SingularOnTorus("slot denominator vanishes on |t| = 1")
    _refuse_near(moduli)
    terms = [t for t in Q.terms if _shared_exponents(t) != set()]
    if not terms:
        return Fraction(0)
    live = {s for t in terms for s in t[:3]} & slots
    enough = max((_separating_digits(s) for slot in live for _, s, _ in poles[slot]), default=0)
    digits, error = sys.float_info.dig + 2, None
    with localcontext() as context:
        while True:
            sums, worst = [], 0.0
            for context.prec in (2 * digits, digits):
                found, overlap = _located(live, poles)
                worst = max(worst, overlap)
                sums.append(_closed_form(terms, found) if overlap < 1 else None)
            if worst >= 1:
                if digits > enough:
                    raise ValueError("torus_average: the slot poles do not separate at"
                                     " %d digits" % (2 * digits))
                digits *= 2
                continue
            high, low = sums
            gap = abs(low - high)
            if gap * 1000 <= abs(high):
                return float(high)
            if error is not None:
                if abs(high) <= error and gap <= error:  # 10^-d of the last error
                    return float(high)
                if gap.scaleb(-digits) >= error:
                    raise ValueError("torus_average: the closed form does not settle with"
                                     " more digits (%d)" % (2 * digits))
            error = gap.scaleb(-digits)
            lost = digits + (gap / abs(high)).log10() if high else 2 * digits
            digits = max(2 * digits, math.ceil(lost) + 4)


def _separating_digits(s: Sequence) -> float:
    """Digits past which refining the roots of the square-free s cannot
    help: by Mahler's bound its roots are at least
    sqrt(3) n^(-(n+2)/2) |S|^(1-n) apart, S its integer multiple, so n
    times that many digits, plus |S|'s own, resolve each root within a
    fraction of the distance, with a float's digits to spare."""
    n, d = len(s) - 1, math.lcm(*(Fraction(c).denominator for c in s))
    size = math.log10(sum((Fraction(c) * d) ** 2 for c in s)) / 2
    apart = (n + 2) / 2 * math.log10(n) + (n - 1) * size
    return n * apart + size + sys.float_info.dig + 2


def _located(slots, poles: dict) -> tuple[dict, float]:
    """Each slot's (multiplicity, pole) pairs at the working precision
    (``_refined``), and the largest overlap of their disks; the
    ``_NEAR_CIRCLE`` refusal again, on the refined moduli."""
    found, worst = {}, 0.0
    for slot in slots:
        found[slot] = []
        for m, s, roots in poles[slot]:
            centres, overlap = _refined(s, roots)
            found[slot] += [(m, z) for z in centres]
            worst = max(worst, overlap)
    _refuse_near([float(_modulus(z)) for pairs in found.values() for _, z in pairs])
    return found, worst


def _modulus(z: _Complex) -> Decimal:
    return (z.re * z.re + z.im * z.im).sqrt()


def _refuse_near(moduli: Sequence[float]) -> None:
    """SingularOnTorus when some pole's rho = min(|alpha|, 1/|alpha|) is
    above 1 - ``_NEAR_CIRCLE``; q(0) != 0, so no modulus is 0."""
    rho = max((min(r, 1 / r) for r in moduli), default=0.0)
    if rho > 1 - _NEAR_CIRCLE:
        raise SingularOnTorus("a slot pole lies within %.1e of |t| = 1, nearer than %.1e"
                              % (1 - rho, _NEAR_CIRCLE))


def _shared_exponents(t: ThetaTerm) -> set[int] | None:
    """The exponents that the term's polynomial slots share, None when it
    has none: f_r g_r h_r != 0 only there, and an empty set averages to
    exactly 0."""
    exps = [slot.num._c.keys() for slot in t[:3] if slot.is_polynomial]
    return set(exps[0]).intersection(*exps[1:]) if exps else None
