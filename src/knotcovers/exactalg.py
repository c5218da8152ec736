"""Exact arithmetic in the Laurent polynomial ring Z[t, t^-1] and friends.

Everything an abelian knot invariant needs downstream lives here:

* ``LaurentPoly`` -- sparse Laurent polynomials over Q with the bar
  involution t -> t^-1.  A coefficient is an ``int`` whenever it is
  integral and a ``fractions.Fraction`` only otherwise, so Z[t, t^-1]
  (Delta, the clover form, every determinant of it) is integer arithmetic
  throughout; every quotient of coefficients goes through ``_qdiv``.
* ``RatFun`` -- fractions n(t)/q(t) whose denominator does not vanish at
  t = 1 (the localization of Z[t, t^-1] at the augmentation ideal).  The
  canonical form has q an ordinary polynomial with q(0) != 0 and q(1) = 1.
* resultants by the subresultant remainder sequence; ``_power``, the
  one square and multiply, behind powers of ``LaurentPoly``, of matrices
  (``_mat_pow``), modulo a monic polynomial (``_powmod``, shared by
  cyclotomic norms and ``denominator_to_tp``) and in ``Knot.beta``; the
  matrix of multiplication in Q[x]/m (``_mul_rows``, shared by the last two);
  cyclotomic norms prod_{w^p=1} f(w), rewriting of denominators into
  polynomials in t^p, Mahler measures, and the coefficients of the wheels
  generating series (1/2) log(sinh(x/2)/(x/2)) from Bernoulli numbers.

All core arithmetic is exact (int, and Fraction where it must be).
Floating point enters only in clearly named numeric helpers: unit-circle
evaluation at irrational angles, and ``_roots_by_part``, the package's one
numeric root finder (the Mahler measure and the poles of 2-loop slots,
with its one unit-circle test ``_ON_CIRCLE``).  ``circle_roots`` isolates
the roots of Delta on the unit circle exactly, in float brackets: Sturm
counts and sign bisection of the trace polynomial, in integers.
``_roots_by_part`` is also the module's one numpy user and imports it
itself: nothing else here needs numpy, and ``_frac`` refuses a numpy bool
only once numpy is loaded, the only way such a value can exist.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import zip_longest
from typing import Mapping, Sequence, Union

__all__ = [
    "SingularAtOne",
    "SingularEvaluation",
    "LaurentPoly",
    "RatFun",
    "resultant",
    "poly_gcd",
    "cyclotomic_norm",
    "regular_at_p",
    "denominator_to_tp",
    "mahler_measure",
    "circle_roots",
    "wheels_coefficients",
]

Scalar = Union[int, Fraction, str]


class SingularAtOne(ValueError):
    """A denominator vanishes at t = 1, so the fraction is not local."""


class SingularEvaluation(ValueError):
    """A signature was requested at a point where the form degenerates, or
    two of its circle roots are too close for floats to separate."""


def _frac(x: Scalar) -> "int | Fraction":
    """Coerce to an exact coefficient: an int when integral, else a Fraction.
    Floats and booleans are rejected on purpose."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:  # str, numpy integers: made of plain ints
        np = sys.modules.get("numpy")  # a numpy bool implies numpy is loaded
        if isinstance(x, (float, bool)) or (np is not None and isinstance(x, np.bool_)):
            raise TypeError("refusing %s coefficient %r; pass Fraction or str"
                            % (type(x).__name__, x))
        try:
            x = Fraction(x)
        except ZeroDivisionError:  # "1/0"
            raise ValueError("zero denominator in coefficient %r" % x) from None
        x = Fraction(int(x.numerator), int(x.denominator))
    return x.numerator if x.denominator == 1 else x


def _qdiv(a, b) -> "int | Fraction":
    """The exact quotient a / b: an int when b divides a, else a Fraction
    (never the float of ``int / int``)."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _frac(Fraction(a, b))


def _power(x, p: int, mul, one):
    """x^p, p >= 0, by square and multiply under mul from the first factor,
    no square after the top bit: x itself for p = 1, one for p = 0."""
    result = None
    while True:
        if p & 1:
            result = x if result is None else mul(result, x)
        p >>= 1
        if not p:
            return one if result is None else result
        x = mul(x, x)


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly:
    """Sparse Laurent polynomial sum_e c_e t^e with c_e in Q.

    The coefficient dict is canonical: no zero coefficients are stored, and
    each one is an int when integral (``_frac``), so equality and hashing
    are structural.  Instances are treated as immutable, which lets the
    hash be computed once, on first use.
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        c: dict[int, int | Fraction] = {}
        if coeffs:
            for e, v in coeffs.items():
                v = _frac(v)
                if v:
                    c[int(e)] = v
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
    def coeffs(self) -> dict[int, int | Fraction]:
        return dict(self._c)

    def coeff(self, e: int) -> int | Fraction:
        return self._c.get(e, 0)

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
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset(self._c.items()))
            return self._hash

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, v in other._c.items():
            s = c.get(e, 0) + v
            if s:
                c[e] = _frac(s)
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
            out._c = {e: _frac(c * v) for e, c in self._c.items()} if v else {}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        c: dict[int, int | Fraction] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: _frac(v) for e, v in c.items() if v}
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        n = int(n)
        if n < 0:
            if not self.is_unit_monomial:
                raise ValueError("negative power of a non-monomial")
            ((e, v),) = self._c.items()
            return LaurentPoly({e * n: _qdiv(1, v ** -n)})
        return _power(self, n, LaurentPoly.__mul__, LaurentPoly.one())

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

    def eval_one(self) -> int | Fraction:
        return _frac(sum(self._c.values()))

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

    def _ascending(self) -> tuple[list, int]:
        """Coefficients c_{min}..c_{max} as a dense ascending list."""
        m, M = self.min_exp, self.max_exp
        out = [0] * (M - m + 1)
        for e, v in self._c.items():
            out[e - m] = v
        return out, m

    # -- serialization & printing ------------------------------------------

    def to_json(self) -> dict[str, str]:
        return {str(e): str(v) for e, v in sorted(self._c.items())}

    @classmethod
    def from_json(cls, obj: Mapping[str, Scalar]) -> "LaurentPoly":
        """ValueError for two keys of one exponent ("1", "01"): one would be lost."""
        c: dict[int, int | Fraction] = {}
        for key, v in obj.items():
            if int(key) in c:
                raise ValueError("exponent %d is given twice (key %r)" % (int(key), key))
            c[int(key)] = _frac(v)
        return cls(c)

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
# dense polynomial helpers (ascending coefficient lists over Q, ints where
# integral)


def _trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _poly_divmod(a: Sequence, b: Sequence):
    """Quotient and remainder of dense polynomials over Q."""
    b = _trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    _trim(r)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * max(0, len(r) - db)
    while len(r) - 1 >= db and r:
        k = len(r) - 1 - db
        c = _qdiv(r[-1], lb)
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
    return LaurentPoly.from_coeffs([_qdiv(c, lead) for c in a])


def _squarefree_parts(f: "LaurentPoly | Sequence[Scalar]") -> list[list]:
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


def _as_ascending(f) -> list:
    """Dense ascending coefficients of f with any unit t^k stripped off."""
    if isinstance(f, LaurentPoly):
        if f.is_zero:
            return []
        asc, _ = f._ascending()
        return _trim(asc)
    return _trim([_frac(c) for c in f])


def _dense(f) -> list:
    """``_as_ascending`` without the unit stripping: a LaurentPoly from
    degree 0, so a factor t^k stays as k leading zeros."""
    if isinstance(f, LaurentPoly) and not f.is_zero:
        return [f.coeff(e) for e in range(f.max_exp + 1)]
    return _as_ascending(f)


def resultant(f, g) -> Fraction:
    """Res(f, g) for univariate polynomials over Q.

    Accepts LaurentPoly (negative exponents are rejected) or ascending
    coefficient sequences, both taken as given: a factor t^k counts.
    Computed by the subresultant polynomial remainder sequence, which keeps
    every intermediate value integral once the inputs are scaled to Z[x].
    """
    for h in (f, g):
        if isinstance(h, LaurentPoly) and not h.is_zero and h.min_exp < 0:
            raise ValueError("resultant needs ordinary polynomials, got negative exponents")
    a = _dense(f)
    b = _dense(g)
    if not a or not b:
        return Fraction(0)
    da, db = len(a) - 1, len(b) - 1
    if da == 0:
        return Fraction(a[0] ** db)
    if db == 0:
        return Fraction(b[0] ** da)
    # scale to integer coefficients; Res(c*f, d*g) = c^db d^da Res(f, g)
    ca = math.lcm(*(c.denominator for c in a))
    cb = math.lcm(*(c.denominator for c in b))
    A = [_frac(c * ca) for c in a]
    B = [_frac(c * cb) for c in b]
    res = _subresultant_res(A, B)
    return res / (Fraction(ca) ** db * Fraction(cb) ** da)


def _subresultant_res(A: list[int], B: list[int]) -> int:
    """Resultant of integer polynomials via the subresultant PRS."""
    s = 1
    if len(A) < len(B):
        if ((len(A) - 1) * (len(B) - 1)) % 2 == 1:
            s = -s
        A, B = B, A
    g = h = 1
    while True:
        da, db = len(A) - 1, len(B) - 1
        if da % 2 == 1 and db % 2 == 1:
            s = -s
        delta = da - db
        # pseudo-remainder lc(B)^(delta+1) * A mod B
        R = [c * B[-1] ** (delta + 1) for c in A]
        _, R = _poly_divmod(R, B)
        if not R:
            return 0
        A = B
        B = [_qdiv(c, g * h ** delta) for c in R]
        g = A[-1]
        h = h ** (1 - delta) * g ** delta if delta <= 1 else _qdiv(g ** delta, h ** (delta - 1))
        if len(B) - 1 == 0:
            da = len(A) - 1
            h = _qdiv(B[0] ** da, h ** (da - 1)) if da >= 1 else h
            res = s * h
            if type(res) is not int:
                raise ArithmeticError("subresultant PRS left a denominator")
            return res


# ---------------------------------------------------------------------------
# cyclotomic norms and unit-circle evaluation


def _mulmod(a: Sequence, b: Sequence, modulus: Sequence) -> list:
    """a b mod modulus, trimmed."""
    return _poly_divmod(_poly_mul(a, b), modulus)[1]


def _powmod(base: Sequence, p: int, modulus: Sequence) -> list:
    """base^p mod modulus (monic, ascending) by ``_power``; trimmed, so []
    is the zero residue."""
    if not modulus or modulus[-1] != 1:
        raise ValueError("modulus must be monic")
    if p < 0:
        raise ValueError("negative power not supported")
    return _power(_poly_divmod(base, modulus)[1], p, lambda a, b: _mulmod(a, b, modulus),
                  _poly_divmod([1], modulus)[1])


def _mulx_mod(a: list, modulus: Sequence) -> list:
    """x a mod a monic modulus of degree d >= 1, for a residue given by all
    d of its coefficients: one shift and one reduction of the top term."""
    top = a[-1]
    return [-top * modulus[0]] + [c - top * m for c, m in zip(a, modulus[1:-1])]


def _mul_rows(r: Sequence, modulus: Sequence) -> list[list]:
    """The rows x^i r mod a monic modulus of degree d >= 1, i < d, each with
    all d coefficients: the matrix of multiplication by r on Q[x]/modulus,
    whose determinant is the norm of r and whose characteristic polynomial
    has the values of r at the roots of the modulus as its roots."""
    rows = [list(r) + [0] * (len(modulus) - 1 - len(r))]
    while len(rows) < len(modulus) - 1:
        rows.append(_mulx_mod(rows[-1], modulus))
    return rows


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
    monic = [_qdiv(c, lc) for c in fhat]
    r = _powmod([0, 1], p, monic)
    if r:
        r[0] -= 1
    else:
        r = [-1]
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
        self.num = n.shift(shift) * _qdiv(1, q1)
        self.den = q * _qdiv(1, q1)

    @property
    def is_polynomial(self) -> bool:
        return self.den._c == {0: 1}

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

    def __mul__(self, other) -> "RatFun":
        other = _as_ratfun(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def bar(self) -> "RatFun":
        return RatFun(self.num.bar(), self.den.bar())

    def evaluate(self, z):
        dz = self.den.evaluate(z)
        if dz == 0:
            raise ZeroDivisionError("pole at %r" % (z,))
        return self.num.evaluate(z) / dz

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, obj: Mapping) -> "RatFun":
        if "num" not in obj:
            # bare exponent->coefficient map: a polynomial with denominator 1
            return cls(LaurentPoly.from_json(obj))
        den = LaurentPoly.from_json(obj.get("den", {"0": 1}))
        if den.is_zero:
            raise ValueError("zero denominator %r" % (obj["den"],))
        return cls(LaurentPoly.from_json(obj["num"]), den)

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


def _mat_mul(A, B):
    """A B over any ring (int, Fraction, LaurentPoly), skipping zero products."""
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col) if a and b) for col in cols] for row in A]


def _mat_pow(M, p: int):
    """M^p by ``_power``, the identity for p = 0; the rows returned are new
    lists (``_bareiss`` eliminates in place), for p = 1 a copy of M."""
    if p < 0:
        raise ValueError("negative matrix power not supported")
    return _power([list(row) for row in M], p, _mat_mul,
                  [[int(i == j) for j in range(len(M))] for i in range(len(M))])


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

    Qp(s) = |lc(q)|^p prod (s - a^p) over the roots a of the denominator q,
    so q(t) divides Qp(t^p): the characteristic polynomial of multiplication
    by z^p on Q[z]/q(z), the rows z^i (z^p mod q) (``_powmod``,
    ``_mul_rows``), scaled to the positive leading coefficient |lc(q)|^p.
    P is then forced by exact division, so r == P / Qp(t^p) identically.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    q = r.den
    if q == LaurentPoly.one():  # canonical: q(1) = 1, so the only constant q
        return r.num, LaurentPoly.one()
    qhat = _trim(q._ascending()[0])
    lc = qhat[-1]
    monic = [_qdiv(c, lc) for c in qhat]
    chi = _charpoly(_mul_rows(_powmod([0, 1], p, monic), monic))
    Qp = LaurentPoly.from_coeffs([c * abs(lc) ** p for c in chi])
    Qp_tp = LaurentPoly({p * e: v for e, v in Qp.coeffs.items()})
    return r.num * Qp_tp.divexact(q), Qp


# ---------------------------------------------------------------------------
# roots: numeric for the Mahler measure, exact on the unit circle

# a root of a square-free part this close to |t| = 1 is on it
_ON_CIRCLE = 1e-8


def _roots_by_part(f: "LaurentPoly | Sequence[Scalar]") -> list[np.ndarray]:
    """numpy roots of each square-free part of f (``_squarefree_parts``):
    entry j holds the roots of multiplicity > j, once each, so entry 0 the
    distinct roots.  A repeated root would split off by about eps^(1/m);
    here every root is simple."""
    import numpy as np

    return [np.roots([float(c) for c in reversed(part)]) for part in _squarefree_parts(f)]


_U_WIDTH = 2.0 ** -51  # circle_roots bisects to this width in u, 2 ulp of u in [1, 2)


def _trace_poly(f: LaurentPoly) -> list:
    """D, ascending, with f(t) = D(t + 1/t) for a bar-symmetric f: t^k + t^-k
    is V_k(u), where V_0 = 2, V_1 = u and V_(k+1) = u V_k - V_(k-1).  Shared
    by ``circle_roots`` and ``Knot.half_charpoly``."""
    D, prev, cur = [f.coeff(0)], [2], [0, 1]
    for k in range(1, f.max_exp + 1):
        D = [a + f.coeff(k) * b for a, b in zip_longest(D, cur, fillvalue=0)]
        prev, cur = cur, [a - b for a, b in zip_longest([0] + cur, prev, fillvalue=0)]
    return D


def _sign_at(s: Sequence[int], x: float) -> int:
    """The exact sign of s(x) for integer s and a float x = n / 2^k: that of
    the integer 2^(k deg s) s(x), by Horner in n with shifts for 2^k."""
    n, m = x.as_integer_ratio()
    k, acc = m.bit_length() - 1, 0
    for j, c in enumerate(reversed(s)):
        acc = acc * n + (c << k * j)
    return (acc > 0) - (acc < 0)


def _integral(p: Sequence) -> list[int]:
    """The primitive integer polynomial that is a positive multiple of p."""
    scale = math.lcm(*(c.denominator for c in p))
    p = [int(c * scale) for c in p]
    g = math.gcd(*p)
    return [c // g for c in p]


def _sturm(D: Sequence) -> list[list[int]]:
    """A Sturm sequence of the square-free part s = D / gcd(D, D'), s first,
    each member a primitive integer polynomial for ``_sign_at``.  D, D',
    -rem, ... (Sturm 1829) ends at gcd(D, D'), and its members divided by
    that end keep the sign rules for s: the drop in sign changes from a to
    b counts the distinct roots of D in (a, b], even at an end on a root."""
    seq = [_integral(D), _integral([i * c for i, c in enumerate(D)][1:])]
    while seq[-1]:
        a, b = seq[-2:]
        lift = abs(b[-1]) ** (len(a) - len(b) + 1)  # keeps the division in integers
        seq.append(_integral([-c for c in _poly_divmod([lift * c for c in a], b)[1]]))
    return [_integral(_poly_divmod(q, seq[-2])[0]) for q in seq[:-1]]


def _changes(seq: Sequence[Sequence[int]], x: float) -> int:
    signs = [v for v in (_sign_at(q, x) for q in seq) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def circle_roots(f: LaurentPoly) -> list[tuple[float, float]]:
    """The distinct roots of a bar-symmetric f on |t| = 1 as disjoint float
    brackets [a, b] in u = t + 1/t = 2 cos(arg t), ascending, no wider than
    _U_WIDTH, each holding one root in (-2, 2) of the trace polynomial D,
    f(t) = D(t + 1/t).  (-2, 2] is halved at float midpoints until the Sturm
    counts (``_sturm``) leave one root in a piece, then the piece on the
    sign of s = D / gcd(D, D'); a root u on a midpoint gives (u, u).
    SingularEvaluation for two roots floats cannot separate; ValueError for
    f not bar-symmetric or vanishing at t = +-1."""
    if not f.is_bar_symmetric:
        raise ValueError("circle_roots needs a bar-symmetric polynomial")
    seq = _sturm(_trace_poly(f))
    s = seq[0]
    if not _sign_at(s, -2.0) * _sign_at(s, 2.0):
        raise ValueError("circle_roots needs f(1) f(-1) != 0")
    todo, brackets = [(-2.0, _changes(seq, -2.0), 2.0, _changes(seq, 2.0))], []
    while todo:
        a, va, b, vb = todo.pop()
        m = (a + b) / 2
        if va - vb > 1 and m not in (a, b):
            vm = _changes(seq, m)
            todo += [(m, vm, b, vb), (a, va, m, vm)]
        elif va != vb:
            sb = _sign_at(s, b)  # and -sb on (a, root) when s has one simple root here
            while sb and b - a > _U_WIDTH:
                sm = _sign_at(s, m)
                a, b, sb = (m, b, sb) if sm == -sb else (a, m, sm)
                m = (a + b) / 2
            lo = a if sb else b
            if va - vb > 1 or brackets and brackets[-1][1] >= lo:
                raise SingularEvaluation("circle roots of %s too close for floats to separate" % f)
            brackets.append((lo, b))
    return brackets


def mahler_measure(f: LaurentPoly) -> float:
    """log of the Mahler measure of f: log|lc| + sum over roots outside
    the unit circle, with multiplicity, of log|root|.

    Roots come from ``_roots_by_part``, so this is a numeric path; a root
    of multiplicity m is counted once in each of the first m parts.
    """
    if f.is_zero:
        raise ValueError("Mahler measure of the zero polynomial")
    total = math.log(abs(_as_ascending(f)[-1]))
    for roots in _roots_by_part(f):
        for z in roots:
            a = abs(z)
            if a > 1.0:
                total += math.log(a)
    if not math.isfinite(total):
        raise ArithmeticError("Mahler measure must be finite")
    return total


# ---------------------------------------------------------------------------
# wheels


def wheels_coefficients(nmax: int) -> list[Fraction]:
    """Exact coefficients b_2, b_4, ..., b_{2 nmax} of the even series
    sum b_{2n} x^(2n) = (1/2) log( sinh(x/2) / (x/2) ).

    log(sinh(x/2)/(x/2)) = sum_{n>=1} B_{2n} x^(2n) / (2n (2n)!), so
    b_{2n} = B_{2n} / (4n (2n)!), with the Bernoulli numbers B_m from
    sum_{k<=m} C(m+1, k) B_k = 0 and B_0 = 1.
    """
    if nmax < 1:
        raise ValueError("nmax must be >= 1")
    B = [Fraction(1)]
    for m in range(1, 2 * nmax + 1):
        B.append(-sum(math.comb(m + 1, k) * b for k, b in enumerate(B)) / (m + 1))
    if any(B[3::2]):
        raise ArithmeticError("odd Bernoulli numbers past B_1 must vanish")
    return [B[2 * n] / (4 * n * math.factorial(2 * n)) for n in range(1, nmax + 1)]
