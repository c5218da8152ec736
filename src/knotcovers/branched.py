"""Invariants of the p-fold cyclic branched covers of a knot.

Everything is driven by a Seifert matrix A in any basis, raw or as a
``Knot``, and, for the Casson-Walker combination, a 2-loop class Q.

For p-regular p (no root of the Alexander polynomial at a p-th root of
unity):

* ``total_sigma_p(A, p)`` -- the total equivariant signature, the sum of
  the signature function over the p-th roots of unity, counted arc by arc
  off the knot's certified table (``Knot.sigma_p``), whose values are
  exact inertias.  Its oracles are the exact inertia of the clover form at
  the p-cycle matrix (``lambdamat.varsigma_p``) and the per-root sum of
  float eigensolves, compared in selftest criterion 3 and the tests.
* ``torsion_order(A, p)`` -- the order of the first homology of the
  branched cover, ``Knot.beta(p)``: |det(Gamma^p - (Gamma - I)^p)| from
  Seifert's integer presentation, 0 exactly when p is irregular, a square
  or beta_2 times one (Plans), read off a g x g norm.  Tests check it
  against the matrix powers, the norm in Z[x]/chi, the resultant and
  |det| of the substituted clover form.
* ``casson_walker(A, Q, p)`` -- (1/3) res_p(Q) + (1/8) total_sigma_p, an
  exact Fraction for every 2-loop class.

Their growth as p -> infinity:

* ``torsion_growth`` tabulates log(torsion)/p, which converges to the
  Mahler measure of the Alexander polynomial;
* ``signature_average`` integrates the signature function over the unit
  circle from the same arc table: each arc's value weighted by its
  length;
* ``casson_growth`` -- (1/3) torus_average(Q) + (1/8) signature_average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .seifert import Knot, KnotLike
from .theta import QSingularAtP, ThetaClass, res_p_theta, torus_average

__all__ = [
    "NotPRegular",
    "is_p_regular",
    "total_sigma_p",
    "torsion_order",
    "torsion_growth",
    "signature_average",
    "casson_walker",
    "casson_growth",
    "BranchedReport",
    "branched_report",
]

class NotPRegular(ValueError):
    """The Alexander polynomial vanishes at some p-th root of unity."""


def is_p_regular(A: KnotLike, p: int) -> bool:
    """True when no p-th root of unity is a root of alexander(A)."""
    return Knot.of(A).beta(p) != 0


def _regular_beta(knot: Knot, p: int) -> int:
    beta = knot.beta(p)
    if beta == 0:
        raise NotPRegular("Alexander polynomial vanishes at a %d-th root of unity" % p)
    return beta


def total_sigma_p(A: KnotLike, p: int) -> int:
    """Sum of the signature function over the p-th roots of unity k = 1..p-1
    (the root at 1 contributes 0), in any basis, from the knot's arc table
    (``Knot.sigma_p``); NotPRegular if Delta vanishes at one."""
    knot = Knot.of(A)
    _regular_beta(knot, p)
    return knot.sigma_p(p)


def torsion_order(A: KnotLike, p: int) -> int:
    """Order of the torsion homology of the p-fold branched cover:
    |prod over p-th roots of unity of alexander(A)|, an exact integer."""
    return _regular_beta(Knot.of(A), p)


def torsion_growth(A: KnotLike, ps: Iterable[int]) -> list[tuple[int, int, float]]:
    """Rows (p, torsion order, log(order)/p) for the regular p in ``ps``.

    Irregular p are skipped; log(order)/p converges to the Mahler measure
    of the Alexander polynomial.  ``Knot.beta`` advances x^p from the
    previous p, so an ascending ladder costs one multiplication by x and
    one g x g determinant per p, and one more for beta_2.
    """
    knot = Knot.of(A)
    rows = []
    for p in ps:
        beta = knot.beta(p)
        if beta == 0:
            continue
        rows.append((p, beta, math.log(beta) / p))
    return rows


def signature_average(A: KnotLike) -> float:
    """Average of the signature function over the unit circle, derived once
    per knot; see ``Knot.signature_average``."""
    return Knot.of(A).signature_average


def _casson(res: Fraction, sig: int) -> Fraction:
    return res / 3 + Fraction(sig, 8)


def casson_walker(A: KnotLike, Q: ThetaClass, p: int) -> Fraction:
    """(1/3) res_p(Q) + (1/8) total_sigma_p(A, p), an exact Fraction.

    Raises NotPRegular / QSingularAtP when either ingredient degenerates
    at p.
    """
    sig = total_sigma_p(A, p)
    return _casson(res_p_theta(Q, p), sig)


def casson_growth(A: KnotLike, Q: ThetaClass) -> float:
    """Limit of casson_walker(A, Q, p)/p as p grows:
    (1/3) torus_average(Q) + (1/8) signature_average(A)."""
    return float(torus_average(Q)) / 3.0 + signature_average(A) / 8.0


# ---------------------------------------------------------------------------
# report rows for the CLI


@dataclass
class BranchedReport:
    p: int
    regular: bool
    sigma_p: int | None = None
    beta_p: int | None = None
    log_beta_over_p: float | None = None
    casson: Fraction | None = None


def branched_report(
    A: KnotLike, ps: Sequence[int], Q: ThetaClass | None = None
) -> list[BranchedReport]:
    """One row per requested p; irregular p yield a flagged empty row.
    Each row reads beta_p once: it decides regularity and is the torsion
    order, and sigma_p is then read off the arc table without a second
    test."""
    knot = Knot.of(A)
    out = []
    for p in ps:
        beta = knot.beta(p)
        if beta == 0:
            out.append(BranchedReport(p=p, regular=False))
            continue
        sig = knot.sigma_p(p)
        row = BranchedReport(
            p=p,
            regular=True,
            sigma_p=sig,
            beta_p=beta,
            log_beta_over_p=math.log(beta) / p,
        )
        if Q is not None:
            try:
                row.casson = _casson(res_p_theta(Q, p), sig)
            except QSingularAtP:
                pass  # 2-loop part degenerates at this p; leave blank
        out.append(row)
    return out
