"""Rational 2-loop classes: sums of triples of local rational functions.

A 2-loop class is a finite sum of terms c * (f(t1), g(t2), h(t3)) where
the slots are rational functions regular at t = 1 (``RatFun``) and c is
rational.  Two relations are quotiented out:

* slot symmetry -- the order-12 group generated by permuting the three
  slots and by applying the bar involution to all slots at once;
* the loop relation -- (f, g, h) = (t f, t g, t h), reflecting
  t1 t2 t3 = 1.

Classes are stored as raw term lists; ``symmetrize`` averages over the
symmetry group, and equality is functional (agreement of residues and of
symmetrized evaluations on the torus t1 t2 t3 = 1), which is the faithful
notion for the quotient.

The two quantities consumed downstream:

* ``res_p_theta(Q, p)`` -- the finite residue
  (1/p) * sum over p-th roots w1, w2 of f(w1) g(w2) h((w1 w2)^-1),
  exact (Fraction) when every slot is polynomial, complex-sum numeric
  otherwise.
* ``torus_average(Q)`` -- the limiting average over the 2-torus, exact
  diagonal-coefficient sum for polynomial slots, adaptive quadrature
  otherwise.

For polynomial slots both are exact and res_p/p converges to the torus
average with an O(1/p) tail that vanishes outright once p exceeds the
exponent spread.
"""

from __future__ import annotations

import cmath
import json
from fractions import Fraction
from itertools import permutations
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .exactalg import LaurentPoly, RatFun, _squarefree_parts, poly_gcd, regular_at_p

__all__ = [
    "QSingularAtP",
    "SingularOnTorus",
    "ThetaTerm",
    "ThetaClass",
    "res_p_theta",
    "torus_average",
]


_COMPARE_TOL = 1e-9  # relative agreement that counts as equal in functionally_equal
_QUAD_EPSABS = 1e-9  # absolute error target of the torus quadrature
# the pole guard: circle points per slot denominator, smallest |value| allowed
_GUARD_GRID, _GUARD_FLOOR = 1024, 1e-6


class QSingularAtP(ValueError):
    """Some slot has a pole at a p-th root of unity."""


class SingularOnTorus(ValueError):
    """Some slot has a pole on (or numerically near) the unit circle."""


class ThetaTerm(NamedTuple):
    f: RatFun
    g: RatFun
    h: RatFun
    c: Fraction


def _term_key(t: ThetaTerm) -> str:
    return json.dumps(
        [t.f.to_json(), t.g.to_json(), t.h.to_json()], sort_keys=True, separators=(",", ":")
    )


class ThetaClass:
    """Finite rational combination of slot triples (f, g, h)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[tuple] = ()):  # (f, g, h, c) tuples
        merged: dict[str, ThetaTerm] = {}
        for f, g, h, c in terms:
            f = f if isinstance(f, RatFun) else RatFun(f)
            g = g if isinstance(g, RatFun) else RatFun(g)
            h = h if isinstance(h, RatFun) else RatFun(h)
            c = Fraction(c)
            if not c or f.num.is_zero or g.num.is_zero or h.num.is_zero:
                continue
            t = ThetaTerm(f, g, h, c)
            k = _term_key(t)
            if k in merged:
                c = merged[k].c + c
                if c:
                    merged[k] = merged[k]._replace(c=c)
                else:
                    del merged[k]
            else:
                merged[k] = t
        self.terms = tuple(merged[k] for k in sorted(merged))

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
        """Structural equality of canonical term lists.  Use
        functionally_equal for equality in the quotient."""
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
        """Average over the order-12 slot symmetry group (S3 x bar)."""
        pieces = []
        for perm in permutations(range(3)):
            q = self.permuted(perm)
            pieces.append(q)
            pieces.append(q.barred())
        total = ThetaClass.zero()
        for q in pieces:
            total = total + q
        return total.scale(Fraction(1, 12))

    # -- evaluation ----------------------------------------------------------

    def evaluate_raw(self, z1: complex, z2: complex) -> complex:
        """sum_terms c f(z1) g(z2) h(1/(z1 z2)); no symmetrization."""
        z3 = 1.0 / (z1 * z2)
        total = 0j
        for t in self.terms:
            total += complex(
                float(t.c) * t.f.evaluate(z1) * t.g.evaluate(z2) * t.h.evaluate(z3)
            )
        return total

    def evaluate_sym(self, z1: complex, z2: complex) -> complex:
        """Symmetrized evaluation; invariant of the class in the quotient."""
        return self.symmetrize().evaluate_raw(z1, z2)

    def functionally_equal(self, other: "ThetaClass", ps: Sequence[int] = (1, 2, 3, 5, 7)) -> bool:
        """Equality in the quotient, tested functionally: residues at small
        p plus symmetrized evaluation at a fixed sample of torus points."""
        for p in ps:
            a = res_p_theta(self, p)
            b = res_p_theta(other, p)
            if isinstance(a, Fraction) and isinstance(b, Fraction):
                if a != b:
                    return False
            elif abs(complex(a) - complex(b)) > _COMPARE_TOL * max(1.0, abs(complex(a))):
                return False
        angles = [0.7, 1.9, 2.51, 4.13]
        for u in angles:
            for v in angles[::-1]:
                z1 = cmath.exp(1j * u)
                z2 = cmath.exp(1j * v)
                a = self.evaluate_sym(z1, z2)
                b = other.evaluate_sym(z1, z2)
                if abs(a - b) > _COMPARE_TOL * max(1.0, abs(a)):
                    return False
        return True

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
        terms = []
        for t in obj.get("terms", []):
            terms.append(
                (
                    RatFun.from_json(t["f"]),
                    RatFun.from_json(t["g"]),
                    RatFun.from_json(t["h"]),
                    Fraction(t["c"]),
                )
            )
        return cls(terms)

    def __repr__(self) -> str:
        return "ThetaClass(%d terms)" % len(self.terms)


# ---------------------------------------------------------------------------
# residues and averages


def _check_regular_at_p(Q: ThetaClass, p: int):
    for t in Q.terms:
        for slot in (t.f, t.g, t.h):
            if not regular_at_p(slot, p):
                raise QSingularAtP("slot denominator vanishes at a %d-th root of unity" % p)


def res_p_theta(Q: ThetaClass, p: int):
    """(1/p) sum over p-th roots w1, w2 of f(w1) g(w2) h((w1 w2)^-1).

    Exact Fraction when every slot is a Laurent polynomial: collapsing the
    root sums leaves p * sum over coefficient triples with all exponents
    congruent mod p.  Otherwise a numeric complex double sum (the
    imaginary part cancels by conjugation symmetry).
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    _check_regular_at_p(Q, p)
    if Q.is_polynomial:
        total = Fraction(0)
        for t in Q.terms:
            F = [Fraction(0)] * p
            G = [Fraction(0)] * p
            for e, v in t.f.num.coeffs.items():
                F[e % p] += v
            for e, v in t.g.num.coeffs.items():
                G[e % p] += v
            acc = Fraction(0)
            # h enters through (w1 w2)^-e, so the surviving triples have
            # a = b = e mod p
            for e, v in t.h.num.coeffs.items():
                r = e % p
                acc += v * F[r] * G[r]
            total += t.c * acc * p
        return total
    roots = [cmath.exp(2j * cmath.pi * k / p) for k in range(p)]
    total = 0j
    for t in Q.terms:
        F = np.array([t.f.evaluate(z) for z in roots])
        G = np.array([t.g.evaluate(z) for z in roots])
        Hinv = np.array([t.h.evaluate(1.0 / z) for z in roots])
        idx = (np.arange(p)[:, None] + np.arange(p)[None, :]) % p
        total += float(t.c) * np.sum(F[:, None] * G[None, :] * Hinv[idx])
    total /= p
    if abs(total.imag) > 1e-7 * max(1.0, abs(total)):
        raise ArithmeticError("residue should be real")
    return float(total.real)


def _has_unit_circle_root(q: LaurentPoly) -> bool:
    """Does q vanish somewhere on |t| = 1?

    A real polynomial shares its unit-circle roots with its reversal
    t^d q(1/t), so they all divide gcd(q, reversal); the gcd is small, and
    checking the roots of its square-free part numerically is then reliable.
    """
    qhat = q.shift(-q.min_exp)
    d = qhat.max_exp
    if d == 0:
        return False
    rev = LaurentPoly({d - e: c for e, c in qhat.coeffs.items()})
    g = poly_gcd(qhat, rev)
    if g.is_zero or g.max_exp == 0:
        return False
    roots = np.roots([float(c) for c in reversed(_squarefree_parts(g)[0])])
    return bool(np.any(np.abs(np.abs(roots) - 1.0) < 1e-6))


def _torus_singularity_guard(Q: ThetaClass):
    thetas = np.linspace(0.0, 2.0 * np.pi, _GUARD_GRID, endpoint=False)
    circle = np.exp(1j * thetas)
    for t in Q.terms:
        for slot in (t.f, t.g, t.h):
            if slot.is_polynomial:
                continue
            if _has_unit_circle_root(slot.den):
                raise SingularOnTorus("slot denominator vanishes on |t| = 1")
            vals = np.array([slot.den.evaluate(z) for z in circle])
            if np.min(np.abs(vals)) < _GUARD_FLOOR:
                raise SingularOnTorus("slot denominator nearly vanishes on |t| = 1")


def torus_average(Q: ThetaClass):
    """Average of f(w1) g(w2) h((w1 w2)^-1) over the unit 2-torus.

    Polynomial slots: the average of a monomial w1^(a-c) w2^(b-c) is the
    indicator a = b = c, so the answer is the exact diagonal sum
    sum_m f_m g_m h_m.  Otherwise: scipy adaptive quadrature of the real
    part (the imaginary part integrates to zero), guarded against poles
    on the torus.
    """
    if Q.is_polynomial:
        total = Fraction(0)
        for t in Q.terms:
            fc = t.f.num.coeffs
            gc = t.g.num.coeffs
            hc = t.h.num.coeffs
            acc = Fraction(0)
            for m, v in fc.items():
                if m in gc and m in hc:
                    acc += v * gc[m] * hc[m]
            total += t.c * acc
        return total
    from scipy.integrate import dblquad

    _torus_singularity_guard(Q)

    def integrand(u, v):
        return Q.evaluate_raw(cmath.exp(1j * u), cmath.exp(1j * v)).real

    val, err = dblquad(
        integrand,
        0.0,
        2.0 * np.pi,
        0.0,
        2.0 * np.pi,
        epsabs=_QUAD_EPSABS,
        epsrel=1e-8,
    )
    if err >= 1e-5 * max(1.0, abs(val)) + 1e-6:
        raise ArithmeticError("quadrature did not converge")
    return val / (4.0 * np.pi ** 2)
