"""Invariants of the p-fold cyclic branched covers of a knot.

Everything is driven by a Seifert matrix A in any basis, raw or as a
``Knot``, and, for the Casson-Walker combination, a 2-loop class Q.

For p-regular p (no root of the Alexander polynomial at a p-th root of
unity):

* ``total_sigma_p(A, p)`` -- the total equivariant signature, the sum of
  the signature function over the p-th roots of unity: the roots go in
  stacks of ``_CHUNK``, one numpy eigensolve of 2g x 2g Hermitian forms
  per stack, so the cost is linear in p and the memory flat.  Its oracle
  is the exact inertia of the clover form at the p-cycle matrix
  (``lambdamat.varsigma_p``), compared in selftest criterion 3 and tests.
* ``torsion_order(A, p)`` -- the order of the first homology of the
  branched cover, ``Knot.beta(p)``: |det(Gamma^p - (Gamma - I)^p)| from
  Seifert's integer presentation, which is 0 exactly when p is irregular,
  computed as the norm of x^p - (x - 1)^p in Z[x]/chi with chi Gamma's
  characteristic polynomial (the one Delta is read from).  Tests check it
  against the matrix powers themselves, the resultant form of the
  product of Alexander over the p-th roots of unity and |det| of the
  substituted clover form.
* ``casson_walker(A, Q, p)`` -- (1/3) res_p(Q) + (1/8) total_sigma_p, an
  exact Fraction for every 2-loop class.

Their growth as p -> infinity:

* ``torsion_growth`` tabulates log(torsion)/p, which converges to the
  Mahler measure of the Alexander polynomial;
* ``signature_average`` integrates the signature function over the unit
  circle exactly-by-structure: the function is constant on the arcs cut
  out by the distinct roots of the Alexander polynomial, so one
  evaluation per arc midpoint, weighted by arc length, is the full
  integral;
* ``casson_growth`` -- (1/3) torus_average(Q) + (1/8) signature_average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .seifert import Knot, KnotLike, sigma_at_omega
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

# roots of unity per stacked eigensolve, the size graphs streams bead tuples in
_CHUNK = 1 << 12


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
    (the root at 1 contributes 0), in any basis, one stacked eigensolve per
    _CHUNK roots; NotPRegular if Delta vanishes at one."""
    knot = Knot.of(A)
    _regular_beta(knot, p)
    return _sigma_sum(knot, p)


def _sigma_sum(knot: Knot, p: int) -> int:
    """``total_sigma_p`` without its regularity test."""
    total = 0
    for lo in range(1, p, _CHUNK):
        k = np.arange(lo, min(lo + _CHUNK, p))
        # the same floats as signature_function's cmath.exp(2j * pi * k / p)
        total += int(np.sum(sigma_at_omega(knot, np.exp(1j * (2 * np.pi * k / p)))))
    return total


def torsion_order(A: KnotLike, p: int) -> int:
    """Order of the torsion homology of the p-fold branched cover:
    |prod over p-th roots of unity of alexander(A)|, an exact integer."""
    return _regular_beta(Knot.of(A), p)


def torsion_growth(A: KnotLike, ps: Iterable[int]) -> list[tuple[int, int, float]]:
    """Rows (p, torsion order, log(order)/p) for the regular p in ``ps``.

    Irregular p are skipped; log(order)/p converges to the Mahler measure
    of the Alexander polynomial.  ``Knot.beta`` advances its residues
    mod chi from the previous p, so an ascending ladder costs one shift
    and reduction per p and one 2g x 2g determinant.
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
    """One row per requested p; irregular p yield a flagged empty row."""
    knot = Knot.of(A)
    out = []
    for p in ps:
        if not is_p_regular(knot, p):
            out.append(BranchedReport(p=p, regular=False))
            continue
        sig = total_sigma_p(knot, p)
        beta = torsion_order(knot, p)
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
