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
  diagonal-coefficient sum for polynomial slots, FFT trapezoid otherwise.

For polynomial slots res_p/p is not only a limit: once p exceeds the
spread of the slot exponents no two of them are congruent mod p, and
res_p/p equals the torus average exactly, one diagonal sum kept on the
class.  For rational slots res_p/p converges to it, geometrically with
the distance of the poles from the circle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import permutations
from typing import Mapping, NamedTuple, Sequence

from .exactalg import (_ON_CIRCLE, LaurentPoly, RatFun, _frac, _json_object, _mul_rows,
                       _powmod, _qdiv, _roots_by_part, _trim)
from .lambdamat import LambdaMatrix

__all__ = [
    "QSingularAtP",
    "SingularOnTorus",
    "ThetaClass",
    "denominator_to_tp",
    "res_p_theta",
    "torus_average",
]


_TAIL_RATIO = 1e-13  # torus_average: Fourier tail at |r| >= N/4 vs the largest coefficient
_GRID_CAP = 2 ** 20  # torus_average: the largest trapezoid grid tried
# torus_average refuses up front a pole whose geometric tail would still be
# above _TAIL_RATIO on a grid this many times _GRID_CAP; the margin covers a
# pole with a small residue, whose tail is that much smaller than rho alone says
_REFUSE_MARGIN = 8


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


def _fourier(slot: RatFun, w: np.ndarray) -> np.ndarray:
    """Laurent coefficients of the slot on |t| = 1 from its values at the
    N-th roots of unity w, aliased mod N: entry k is the sum of the
    coefficients of t^r over r = k mod N."""
    import numpy as np

    N = len(w)
    asc, m = slot.num._ascending()
    num = np.polyval([float(c) for c in reversed(asc)], w) * w[(np.arange(N) * m) % N]
    den = np.polyval([float(c) for c in reversed(slot.den._ascending()[0])], w)  # q(0) != 0
    return np.fft.fft(num / den) / N


def torus_average(Q: ThetaClass):
    """Average of f(w1) g(w2) h((w1 w2)^-1) over the unit 2-torus.

    The average of w1^(a-e) w2^(b-e) is the indicator a = b = e, so the
    answer is the diagonal sum over r of f_r g_r h_r of the slots' Laurent
    coefficients.  Polynomial slots: that sum as an exact Fraction, kept on
    the class, which is also res_p / p at every p past the spread of the
    slot exponents, since no p-th root aliases two of them.  Otherwise a
    float (the limit is irrational in general): the N-point trapezoid rule,
    the same sum over FFT coefficients mod N, with N doubled from 64 until
    each slot's coefficients at |r| >= N/4 are below _TAIL_RATIO of its
    largest.  A term whose polynomial slots share no exponent has no
    diagonal and contributes exactly 0, so it is skipped before the FFT
    (its poles still refuse); a class of such terms alone averages to an
    exact Fraction 0.  The distinct denominator roots, found once per slot
    (``_roots_by_part``), decide two SingularOnTorus refusals before
    any FFT: a pole within ``_ON_CIRCLE`` of |t| = 1 is on it, and a pole of
    modulus r whose tail rho^(N/4), rho = min(r, 1/r), would outlast
    _REFUSE_MARGIN * _GRID_CAP points (within about 1.4e-5 of it) is too
    near it.  A grid past _GRID_CAP raises SingularOnTorus as well.
    """
    if Q.is_polynomial:
        return Q._diagonal_sum()
    import numpy as np

    slots = {slot for t in Q.terms for slot in (t.f, t.g, t.h)}
    moduli = np.abs(np.concatenate([_roots_by_part(slot.den)[0]
                                    for slot in slots if not slot.is_polynomial]))
    if np.any(np.abs(moduli - 1.0) < _ON_CIRCLE):
        raise SingularOnTorus("slot denominator vanishes on |t| = 1")
    rho = np.minimum(moduli, 1 / moduli).max(initial=0.0)  # q(0) != 0: no zero root
    if rho ** (_REFUSE_MARGIN * _GRID_CAP / 4) > _TAIL_RATIO:
        raise SingularOnTorus("a slot pole lies within %.1e of |t| = 1: its coefficients "
                              "would not decay within %d points" % (1 - rho, _GRID_CAP))
    terms = [t for t in Q.terms if _shares_an_exponent(t)]
    if not terms:
        return Fraction(0)
    slots = {slot for t in terms for slot in (t.f, t.g, t.h)}
    N = 64
    while True:
        w = np.exp(2j * np.pi * np.arange(N) / N)
        coeffs = {slot: _fourier(slot, w) for slot in slots}
        mags = [np.abs(c) for c in coeffs.values()]
        if all(a[N // 4 : 3 * N // 4 + 1].max() <= _TAIL_RATIO * a.max() for a in mags):
            break
        N *= 2
        if N > _GRID_CAP:
            raise SingularOnTorus("slot coefficients do not decay within %d points: "
                                  "a pole (nearly) on |t| = 1" % _GRID_CAP)
    total = sum(float(t.c) * np.sum(coeffs[t.f] * coeffs[t.g] * coeffs[t.h]) for t in terms)
    return float(total.real)


def _shares_an_exponent(t: ThetaTerm) -> bool:
    """False when the term's polynomial slots have no exponent in common:
    then no r has f_r g_r h_r != 0 and the term averages to exactly 0."""
    exps = [slot.num._c.keys() for slot in t[:3] if slot.is_polynomial]
    return not exps or bool(set(exps[0]).intersection(*exps[1:]))
