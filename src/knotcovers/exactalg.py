"""Exact arithmetic in the Laurent polynomial ring Z[t, t^-1] and friends.

Everything an abelian knot invariant needs downstream lives here:

* ``LaurentPoly`` -- sparse Laurent polynomials over Q with the bar
  involution t -> t^-1.
* ``RatFun`` -- fractions n(t)/q(t) whose denominator does not vanish at
  t = 1 (the localization of Z[t, t^-1] at the augmentation ideal).  The
  canonical form has q an ordinary polynomial with q(0) != 0 and q(1) = 1.
* ``PowerSeries`` -- truncated power series over Q, enough for exact
  log/exp manipulations of even series.
* resultants by the subresultant remainder sequence, cyclotomic norms
  prod_{w^p=1} f(w), rewriting of denominators into polynomials in t^p,
  Mahler measures, and the coefficients of the wheels generating series
  (1/2) log(sinh(x/2)/(x/2)).

All core arithmetic is exact (int / fractions.Fraction).  Floating point
enters only in clearly named numeric helpers (root finding for the Mahler
measure, unit-circle evaluation at irrational angles).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "SingularAtOne",
    "LaurentPoly",
    "RatFun",
    "PowerSeries",
    "resultant",
    "poly_gcd",
    "cyclotomic_norm",
    "regular_at_p",
    "lp_eval_unit",
    "denominator_to_tp",
    "mahler_measure",
    "wheels_coefficients",
]

Scalar = Union[int, Fraction, str]


class SingularAtOne(ValueError):
    """A denominator vanishes at t = 1, so the fraction is not local."""


def _frac(x: Scalar) -> Fraction:
    """Coerce to Fraction.  Floats are rejected on purpose."""
    if isinstance(x, float):
        raise TypeError("refusing float coefficient %r; pass Fraction or str" % x)
    return Fraction(x)


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Sparse Laurent polynomial sum_e c_e t^e with c_e in Q.

    The coefficient dict is canonical: no zero coefficients are stored, so
    equality and hashing are structural.  Instances are treated as
    immutable.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        c: dict[int, Fraction] = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _frac(v)
                if v:
                    e = int(e)
                    if e in c:
                        v = c[e] + v
                        if v:
                            c[e] = v
                        else:
                            del c[e]
                    else:
                        c[e] = v
        self._c = c

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def t(cls) -> "LaurentPoly":
        return cls({1: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: Scalar = 1) -> "LaurentPoly":
        return cls({int(exp): coeff})

    @classmethod
    def const(cls, c: Scalar) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def from_coeffs(cls, ascending: Sequence[Scalar], min_exp: int = 0) -> "LaurentPoly":
        return cls({min_exp + i: c for i, c in enumerate(ascending)})

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._c)

    def coeff(self, e: int) -> Fraction:
        return self._c.get(e, Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no support")
        return min(self._c)

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no support")
        return max(self._c)

    @property
    def is_unit_monomial(self) -> bool:
        return len(self._c) == 1

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            s = c.get(e, Fraction(0)) + v
            if s:
                c[e] = s
            elif e in c:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -v for e, v in self._c.items()}
        return out

    def __sub__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            v = _frac(other)
            out = LaurentPoly.__new__(LaurentPoly)
            out._c = {e: c * v for e, c in self._c.items()} if v else {}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c: dict[int, Fraction] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                s = c.get(e, Fraction(0)) + v1 * v2
                if s:
                    c[e] = s
                elif e in c:
                    del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        n = int(n)
        if n < 0:
            if not self.is_unit_monomial:
                raise ValueError("negative power of a non-monomial")
            ((e, v),) = self._c.items()
            return LaurentPoly({e * n: v ** n})
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e + k: v for e, v in self._c.items()}
        return out

    def bar(self) -> "LaurentPoly":
        """The involution t -> t^-1."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {-e: v for e, v in self._c.items()}
        return out

    @property
    def is_bar_symmetric(self) -> bool:
        return all(self._c.get(-e) == v for e, v in self._c.items())

    # -- evaluation ---------------------------------------------------------

    def __call__(self, z):
        return self.evaluate(z)

    def evaluate(self, z):
        """Evaluate at z.  Exact for Fraction/int z, complex otherwise."""
        if isinstance(z, (int, Fraction)) and not isinstance(z, bool):
            z = Fraction(z)
            if z == 0 and self._c and self.min_exp < 0:
                raise ZeroDivisionError("negative exponent at z = 0")
            total = Fraction(0)
            for e, v in self._c.items():
                total += v * z ** e
            return total
        z = complex(z)
        total = 0j
        for e, v in self._c.items():
            total += float(v) * z ** e
        return total

    def eval_one(self) -> Fraction:
        return sum(self._c.values(), Fraction(0))

    # -- exact division -----------------------------------------------------

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ValueError if the remainder is nonzero."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero()
        a, amin = self._ascending()
        b, bmin = other._ascending()
        q, r = _poly_divmod(a, b)
        if any(r):
            raise ValueError("inexact Laurent division")
        return LaurentPoly.from_coeffs(q, amin - bmin)

    def __floordiv__(self, other) -> "LaurentPoly":
        """``divexact``, with an int or Fraction taken as a constant."""
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        return self.divexact(other)

    def _ascending(self) -> tuple[list[Fraction], int]:
        """Coefficients c_{min}..c_{max} as a dense ascending list."""
        m, M = self.min_exp, self.max_exp
        out = [Fraction(0)] * (M - m + 1)
        for e, v in self._c.items():
            out[e - m] = v
        return out, m

    # -- serialization & printing ------------------------------------------

    def to_json(self) -> dict[str, str]:
        return {str(e): str(v) for e, v in sorted(self._c.items())}

    @classmethod
    def from_json(cls, obj: Mapping[str, Scalar]) -> "LaurentPoly":
        return cls({int(e): _frac(v) for e, v in obj.items()})

    def __str__(self) -> str:
        if not self._c:
            return "0"
        pieces = []
        for e in sorted(self._c):
            v = self._c[e]
            if e == 0:
                mono = str(abs(v))
            else:
                tpart = "t" if e == 1 else "t^%d" % e
                a = abs(v)
                mono = tpart if a == 1 else "%s %s" % (a, tpart)
            if not pieces:
                pieces.append(mono if v > 0 else "-" + mono)
            else:
                pieces.append(("+ " if v > 0 else "- ") + mono)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return "LaurentPoly(%r)" % {e: str(v) for e, v in sorted(self._c.items())}


# ---------------------------------------------------------------------------
# dense polynomial helpers (ascending coefficient lists over Q)


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_divmod(a: Sequence[Fraction], b: Sequence[Fraction]):
    """Quotient and remainder of dense polynomials over Q."""
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    _trim(r)
    db = len(b) - 1
    lb = b[-1]
    q = [Fraction(0)] * max(0, len(r) - db)
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        c = r[-1] / lb
        q[k] = c
        for i in range(db + 1):
            r[k + i] -= c * b[i]
        _trim(r)
    return q, r


def poly_gcd(f: "LaurentPoly | Sequence[Scalar]", g: "LaurentPoly | Sequence[Scalar]") -> LaurentPoly:
    """Monic gcd in Q[t] of the honest-polynomial parts (units stripped)."""
    a = _as_ascending(f)
    b = _as_ascending(g)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if not a:
        return LaurentPoly.zero()
    lead = a[-1]
    return LaurentPoly.from_coeffs([c / lead for c in a])


def _squarefree_parts(f: "LaurentPoly | Sequence[Scalar]") -> list[list[Fraction]]:
    """Parts s_j = h_j / h_(j+1) of the chain h_0 = f (unit stripped),
    h_(j+1) = gcd(h_j, h_j'): s_j holds the roots of multiplicity > j, once
    each, and s_0 s_1 ... = f, so a root finder never sees a repeated root."""
    h = _as_ascending(f)
    parts = []
    while len(h) > 1:
        nxt = _as_ascending(poly_gcd(h, [i * c for i, c in enumerate(h)][1:]))
        q, r = _poly_divmod(h, nxt)
        if r:
            raise ArithmeticError("a polynomial must be divisible by its gcd with its derivative")
        parts.append(q)
        h = nxt
    return parts


def _as_ascending(f) -> list[Fraction]:
    """Dense ascending coefficients of f with any unit t^k stripped off."""
    if isinstance(f, LaurentPoly):
        if f.is_zero:
            return []
        asc, _ = f._ascending()
        return _trim(asc)
    return _trim([_frac(c) for c in f])


def resultant(f, g) -> Fraction:
    """Res(f, g) for univariate polynomials over Q.

    Accepts LaurentPoly (negative exponents are rejected) or ascending
    coefficient sequences.  Computed by the subresultant polynomial
    remainder sequence, which keeps every intermediate value integral once
    the inputs are scaled to Z[x].
    """
    for h in (f, g):
        if isinstance(h, LaurentPoly) and not h.is_zero and h.min_exp < 0:
            raise ValueError("resultant needs ordinary polynomials, got negative exponents")
    a = _as_ascending(f)
    b = _as_ascending(g)
    if not a or not b:
        return Fraction(0)
    da, db = len(a) - 1, len(b) - 1
    if da == 0:
        return a[0] ** db
    if db == 0:
        return b[0] ** da
    # scale to integer coefficients; Res(c*f, d*g) = c^db d^da Res(f, g)
    ca = math.lcm(*(c.denominator for c in a))
    cb = math.lcm(*(c.denominator for c in b))
    A = [c * ca for c in a]
    B = [c * cb for c in b]
    res = _subresultant_res(A, B)
    return res / (Fraction(ca) ** db * Fraction(cb) ** da)


def _subresultant_res(A: list[Fraction], B: list[Fraction]) -> Fraction:
    """Resultant of integer polynomials via the subresultant PRS."""
    s = 1
    if len(A) < len(B):
        if ((len(A) - 1) * (len(B) - 1)) % 2 == 1:
            s = -s
        A, B = B, A
    g = Fraction(1)
    h = Fraction(1)
    while True:
        da, db = len(A) - 1, len(B) - 1
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        delta = da - db
        # pseudo-remainder lc(B)^(delta+1) * A mod B
        R = [c * B[-1] ** (delta + 1) for c in A]
        _, R = _poly_divmod(R, B)
        if not R:
            return Fraction(0)
        A = B
        B = [c / (g * h ** delta) for c in R]
        g = A[-1]
        h = h ** (1 - delta) * g ** delta if delta <= 1 else g ** delta / h ** (delta - 1)
        if len(B) - 1 == 0:
            da = len(A) - 1
            h = B[0] ** da / h ** (da - 1) if da >= 1 else h
            res = s * h
            if res.denominator != 1:
                raise ArithmeticError("subresultant PRS left a denominator")
            return res


# ---------------------------------------------------------------------------
# cyclotomic norms and unit-circle evaluation


def _powmod_x(p: int, modulus: list[Fraction]) -> list[Fraction]:
    """x^p mod modulus (monic, ascending) by square and multiply."""
    d = len(modulus) - 1
    if d < 1 or modulus[-1] != 1:
        raise ValueError("modulus must be monic of degree >= 1")

    def mulmod(a, b):
        prod = _poly_mul(a, b)
        _, r = _poly_divmod(prod, modulus)
        return r

    result = [Fraction(1)]
    base = [Fraction(0), Fraction(1)]
    _, base = _poly_divmod(base, modulus)
    n = p
    while n:
        if n & 1:
            result = mulmod(result, base)
        base = mulmod(base, base)
        n >>= 1
    return result


def cyclotomic_norm(f: LaurentPoly, p: int) -> Fraction:
    """prod over all p-th roots of unity w of f(w), exactly.

    Strips the unit t^k first: the roots multiply to (-1)^(p+1), so the
    unit contributes a sign only when p is even and k odd.  The remaining
    honest polynomial fhat gives Res(x^p - 1, fhat), evaluated after
    reducing x^p - 1 mod fhat so large p costs only log p polynomial
    multiplications.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if f.is_zero:
        return Fraction(0)
    k = f.min_exp
    unit = Fraction(-1 if (p % 2 == 0 and k % 2 != 0) else 1)
    fhat = _trim(f.shift(-k)._ascending()[0])
    d = len(fhat) - 1
    if d == 0:
        return unit * fhat[0] ** p
    lc = fhat[-1]
    monic = [c / lc for c in fhat]
    r = _powmod_x(p, monic)
    r = list(r)
    if r:
        r[0] -= 1
    else:
        r = [Fraction(-1)]
    _trim(r)
    if not r:
        return Fraction(0)  # fhat divides x^p - 1
    # Res(x^p - 1, fhat) = (-1)^(p d) Res(fhat, x^p - 1)
    #                    = (-1)^(p d) lc^(p - deg r) Res(fhat, r)
    res = resultant(fhat, r)
    res *= lc ** (p - (len(r) - 1))
    if (p * d) % 2 == 1:
        res = -res
    return unit * res


def regular_at_p(f: "LaurentPoly | RatFun", p: int) -> bool:
    """True when f has no zero (for RatFun: no pole) at any p-th root of unity."""
    if isinstance(f, RatFun):
        return cyclotomic_norm(f.den, p) != 0
    return cyclotomic_norm(f, p) != 0


def lp_eval_unit(f: LaurentPoly, k: int, p: int):
    """f(e^(2 pi i k / p)).  Exact Fraction when the root is +-1."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    k %= p
    if k == 0:
        return f.eval_one()
    if 2 * k == p:
        return f.evaluate(Fraction(-1))
    return f.evaluate(cmath.exp(2j * cmath.pi * k / p))


# ---------------------------------------------------------------------------
# rational functions local at t = 1


class RatFun:
    """n(t)/q(t) with q(1) != 0, stored in canonical reduced form.

    Canonical form: gcd(n, q) = 1 in Q[t], q an ordinary polynomial with
    q(0) != 0, and q scaled so q(1) = 1.  Construction raises
    SingularAtOne when the denominator vanishes at t = 1, which is exactly
    the membership test for the local ring.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if not isinstance(num, LaurentPoly):
            num = LaurentPoly.const(num)
        if den is None:
            den = LaurentPoly.one()
        elif not isinstance(den, LaurentPoly):
            den = LaurentPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num = LaurentPoly.zero()
            self.den = LaurentPoly.one()
            if den.eval_one() == 0:
                raise SingularAtOne("denominator vanishes at t = 1")
            return
        # move units so the denominator is an ordinary poly with q(0) != 0
        shift = num.min_exp - den.min_exp
        n = num.shift(-num.min_exp)
        q = den.shift(-den.min_exp)
        g = poly_gcd(n, q)
        if not g.is_unit_monomial or g.max_exp != 0:
            n = n.divexact(g)
            q = q.divexact(g)
        q1 = q.eval_one()
        if q1 == 0:
            raise SingularAtOne("denominator vanishes at t = 1")
        self.num = n.shift(shift) * (1 / q1)
        self.den = q * (1 / q1)

    @classmethod
    def from_poly(cls, f: LaurentPoly) -> "RatFun":
        return cls(f, LaurentPoly.one())

    @property
    def is_polynomial(self) -> bool:
        return self.den == LaurentPoly.one()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RatFun(other if isinstance(other, LaurentPoly) else LaurentPoly.const(other))
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __add__(self, other) -> "RatFun":
        other = _as_ratfun(other)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFun":
        out = RatFun.__new__(RatFun)
        out.num = -self.num
        out.den = self.den
        return out

    def __sub__(self, other) -> "RatFun":
        return self + (-_as_ratfun(other))

    def __rsub__(self, other) -> "RatFun":
        return _as_ratfun(other) + (-self)

    def __mul__(self, other) -> "RatFun":
        other = _as_ratfun(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFun":
        other = _as_ratfun(other)
        if other.num.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def bar(self) -> "RatFun":
        return RatFun(self.num.bar(), self.den.bar())

    def evaluate(self, z):
        dz = self.den.evaluate(z)
        if dz == 0:
            raise ZeroDivisionError("pole at %r" % (z,))
        return self.num.evaluate(z) / dz

    def __call__(self, z):
        return self.evaluate(z)

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, obj: Mapping) -> "RatFun":
        if "num" not in obj:
            # bare exponent->coefficient map: a polynomial with denominator 1
            return cls(LaurentPoly.from_json(obj))
        return cls(LaurentPoly.from_json(obj["num"]), LaurentPoly.from_json(obj.get("den", {"0": 1})))

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    def __repr__(self) -> str:
        return "RatFun(%s)" % self


def _as_ratfun(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    if isinstance(x, LaurentPoly):
        return RatFun(x)
    return RatFun(LaurentPoly.const(x))


# ---------------------------------------------------------------------------
# rewriting denominators as polynomials in t^p


def _companion(monic: list[Fraction]) -> list[list[Fraction]]:
    d = len(monic) - 1
    M = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d):
        M[i][i - 1] = Fraction(1)
    for i in range(d):
        M[i][d - 1] = -monic[i]
    return M


def _mat_mul(A, B):
    """A B over any ring (int, Fraction, LaurentPoly), skipping zero products."""
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col) if a and b) for col in cols] for row in A]


def _mat_pow(M, p: int):
    """M^p by square and multiply, skipping the square after the top bit."""
    n = len(M)
    R = [[int(i == j) for j in range(n)] for i in range(n)]
    while p:
        if p & 1:
            R = _mat_mul(R, M)
        p >>= 1
        if p:
            M = _mat_mul(M, M)
    return R


def _charpoly(M) -> list:
    """Characteristic polynomial det(sI - M), ascending, by Faddeev-LeVerrier;
    int coefficients for an integer M, whose traces make each -tr/k exact."""
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
    # cs[k] multiplies s^(d-k)
    return list(reversed(cs))


def denominator_to_tp(r: RatFun, p: int) -> tuple[LaurentPoly, LaurentPoly]:
    """Rewrite r = P(t) / Qp(t^p) and return (P, Qp).

    Qp(s) is the norm prod_{i<p} q(w^i t) of the denominator down to the
    subring Q[t^p], computed exactly as lc(q)^p times the characteristic
    polynomial of (multiplication by z^p) on Q[z]/q(z), with the sign
    (-1)^((p+1) deg q) that matches the product over rotated arguments.
    P is then forced by exact division, so r == P / Qp(t^p) identically.
    Qp is normalized to have a positive leading coefficient.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    q = r.den
    if q == LaurentPoly.one():
        return r.num, LaurentPoly.one()
    qhat = _trim(q._ascending()[0])
    d = len(qhat) - 1
    lc = qhat[-1]
    if d == 0:
        return r.num * (1 / lc), LaurentPoly.one()
    monic = [c / lc for c in qhat]
    M = _mat_pow(_companion(monic), p)
    chi = _charpoly(M)
    qp = [c * lc ** p for c in chi]
    if ((p + 1) * d) % 2 == 1:
        qp = [-c for c in qp]
    Qp = LaurentPoly.from_coeffs(qp)
    if qp[-1] < 0:
        Qp = -Qp
    Qp_tp = LaurentPoly({p * e: v for e, v in Qp.coeffs.items()})
    cofactor = Qp_tp.divexact(q)
    P = r.num * cofactor
    return P, Qp


# ---------------------------------------------------------------------------
# Mahler measure (numeric path)


def mahler_measure(f: LaurentPoly) -> float:
    """log of the Mahler measure of f: log|lc| + sum over roots outside
    the unit circle, with multiplicity, of log|root|.

    Roots come from the numpy companion-matrix eigenvalue solver, so this
    is a numeric path; it runs on each square-free part of f, because a
    root of multiplicity m would split off by about eps^(1/m).
    """
    if f.is_zero:
        raise ValueError("Mahler measure of the zero polynomial")
    total = math.log(abs(_as_ascending(f)[-1]))
    for part in _squarefree_parts(f):
        for z in np.roots([float(c) for c in reversed(part)]):
            a = abs(z)
            if a > 1.0:
                total += math.log(a)
    if not math.isfinite(total):
        raise ArithmeticError("Mahler measure must be finite")
    return total


# ---------------------------------------------------------------------------
# truncated power series


class PowerSeries:
    """Power series over Q truncated at a fixed order (kept mod x^(order+1))."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[Scalar], order: int):
        order = int(order)
        if order < 0:
            raise ValueError("order must be nonnegative")
        cs = [_frac(c) for c in coeffs][: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        return cls([1], order)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries([a + b for a, b in zip(self.coeffs, other.coeffs)], n)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(self.order, other.order)
        return PowerSeries([a - b for a, b in zip(self.coeffs, other.coeffs)], n)

    def __mul__(self, other) -> "PowerSeries":
        if isinstance(other, (int, Fraction)):
            return PowerSeries([c * _frac(other) for c in self.coeffs], self.order)
        n = min(self.order, other.order)
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: n + 1 - i]):
                out[i + j] += a * b
        return PowerSeries(out, n)

    __rmul__ = __mul__

    def inverse(self) -> "PowerSeries":
        a = self.coeffs
        if not a[0]:
            raise ZeroDivisionError("constant term is zero")
        b = [Fraction(0)] * (self.order + 1)
        b[0] = 1 / a[0]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += a[k] * b[n - k]
            b[n] = -acc / a[0]
        return PowerSeries(b, self.order)

    def derivative(self) -> "PowerSeries":
        if self.order == 0:
            return PowerSeries.zero(0)
        return PowerSeries([i * c for i, c in enumerate(self.coeffs)][1:], self.order - 1)

    def integrate(self) -> "PowerSeries":
        out = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(self.coeffs)]
        return PowerSeries(out, self.order + 1)

    def log(self) -> "PowerSeries":
        """log of a series with constant term 1, via integrate(f'/f)."""
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        return (self.derivative() * self.inverse()).integrate()

    def exp(self) -> "PowerSeries":
        """exp of a series with constant term 0, by the ODE g' = f' g."""
        a = self.coeffs
        if a[0]:
            raise ValueError("exp needs constant term 0")
        g = [Fraction(0)] * (self.order + 1)
        g[0] = Fraction(1)
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n + 1):
                acc += k * a[k] * g[n - k]
            g[n] = acc / n
        return PowerSeries(g, self.order)

    def __repr__(self) -> str:
        return "PowerSeries(%s, order=%d)" % ([str(c) for c in self.coeffs], self.order)


def wheels_coefficients(nmax: int) -> list[Fraction]:
    """Exact coefficients b_2, b_4, ..., b_{2 nmax} of the even series
    sum b_{2n} x^(2n) = (1/2) log( sinh(x/2) / (x/2) ).

    sinh(x/2)/(x/2) = sum_k x^(2k) / (4^k (2k+1)!) is expanded exactly and
    the log is taken by the derivative/integral route.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    order = 2 * nmax
    cs = []
    for k in range(0, nmax + 1):
        cs.extend([Fraction(1, 4 ** k * math.factorial(2 * k + 1)), Fraction(0)])
    f = PowerSeries(cs, order)
    g = f.log() * Fraction(1, 2)
    out = [g.coeffs[2 * n] for n in range(1, nmax + 1)]
    if any(g.coeffs[2 * n + 1] != 0 for n in range(0, nmax)):
        raise ArithmeticError("odd part must vanish")
    return out
