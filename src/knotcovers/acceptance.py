"""Self-test harness: the acceptance criteria for the whole package.

Each criterion is a function that raises AssertionError on failure,
through ``check`` rather than ``assert`` so that it still fails under
``python -O``.  The runner times them, prints one pass/fail line per
criterion, and reports overall success.  ``inject_corruption=True``
deliberately flips one frozen expected value (the 2-fold branched cover
torsion of the trefoil) to prove this harness actually detects violations.

Frozen expected values were computed independently before the
implementations existed (by hand where small, by direct defining sums
where not) and must never be regenerated from package output.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from itertools import permutations, product
from typing import Callable

from .exactalg import (
    LaurentPoly,
    RatFun,
    SingularEvaluation,
    cyclotomic_norm,
    mahler_measure,
    wheels_coefficients,
)
from .lambdamat import (
    LambdaMatrix,
    normalized_determinant,
    rational_det,
    root_of_unity,
    subst_cycle,
    subst_twisted,
    twisted_cycle_matrix,
    varsigma_at,
    varsigma_p,
)
from .seifert import (
    Knot,
    alexander,
    congruence_identity_check,
    corpus_records,
    random_seifert,
    sigma_at_omega,
    signature_function,
)
from .branched import (
    casson_growth,
    signature_average,
    torsion_growth,
    torsion_order,
)
from .theta import ThetaClass, denominator_to_tp, res_p_theta
from .graphs import (
    count_admissible,
    disjoint_union,
    eyes_graph,
    liftres_check,
    liftres_sweep,
    theta_graph,
)

EXPECTED = {
    "trefoil_beta": {2: 3, 3: 4, 5: 1},
    "trefoil_varsigma": {2: -2, 3: -4},
    "trefoil_signature_average": Fraction(-4, 3),
    "wheels": [
        Fraction(1, 48),
        Fraction(-1, 5760),
        Fraction(1, 362880),
        Fraction(-1, 19353600),
    ],
    # log of the Mahler measure of -t + 3 - 1/t: log((3 + sqrt 5)/2)
    "figure8_growth": math.log((3.0 + math.sqrt(5.0)) / 2.0),
}


class AcceptanceContext:
    def __init__(self, corrupt: bool = False):
        self.seed = 1789  # every criterion's random draws derive from it
        self.expected = dict(EXPECTED)
        self._random_corpus: list | None = None
        if corrupt:
            bad = dict(self.expected["trefoil_beta"])
            bad[2] = bad[2] + 1
            self.expected["trefoil_beta"] = bad

    def random_corpus(self) -> list:
        """200 random valid banded Seifert matrices of genus 1..3, plus
        the trefoil and the figure-8; shared by several criteria."""
        if self._random_corpus is None:
            rng = random.Random(self.seed)
            mats = [[[-1, 1], [0, -1]], [[1, 1], [0, -1]]]
            for _ in range(200):
                g = rng.choice([1, 1, 2, 2, 3])
                mats.append(random_seifert(g, rng))
            self._random_corpus = mats
        return self._random_corpus


def check(ok: bool, detail="") -> None:
    """``assert ok, detail`` that ``python -O`` does not strip."""
    if not ok:
        raise AssertionError(detail)


# ---------------------------------------------------------------------------
# criteria


def criterion_01(ctx: AcceptanceContext):
    """Clover congruence identity holds exactly on the random corpus."""
    for A in ctx.random_corpus():
        check(congruence_identity_check(A), "congruence identity failed for %r" % (A,))


def criterion_02(ctx: AcceptanceContext):
    """Normalized clover determinant equals the Alexander polynomial and
    per-root clover signatures equal the Seifert signature function: per
    knot, the regular roots k/p (p <= 10) in one stacked call per float
    route, compared root by root with each other and with the arc table's
    ``signature_function``, and each singular root refused by both."""
    import numpy as np

    ps = np.repeat(np.arange(2, 11), np.arange(1, 10))
    ks = np.concatenate([np.arange(1, p) for p in range(2, 11)])
    ws = root_of_unity(ks, ps)
    for A in ctx.random_corpus():
        K = Knot(A)
        W = K.clover
        delta = K.delta
        check(normalized_determinant(W) == delta, "determinant route mismatch")
        exps = np.array(list(delta.coeffs))
        coeffs = np.array([float(c) for c in delta.coeffs.values()])
        singular = np.abs(ws[:, None] ** exps @ coeffs) < 1e-7
        for k, p in zip(ks[singular].tolist(), ps[singular].tolist()):
            # singular root: both routes must refuse
            for fn in (lambda: varsigma_at(W, k, p), lambda: signature_function(K, k, p)):
                try:
                    fn()
                    raise AssertionError("missing singularity guard at k/p=%d/%d" % (k, p))
                except SingularEvaluation:
                    pass
        kr, pr = ks[~singular], ps[~singular]
        want = sigma_at_omega(K, ws[~singular])
        arcs = np.array([signature_function(K, k, p) for k, p in zip(kr.tolist(), pr.tolist())])
        for what, got in (("signature", varsigma_at(W, kr, pr)), ("arc table", arcs)):
            bad = got != want
            check(not bad.any(), "%s mismatch at k/p=%s"
                  % (what, ", ".join("%d/%d" % kp for kp in zip(kr[bad], pr[bad]))))


def criterion_03(ctx: AcceptanceContext):
    """Exact total signature equals the per-root sum for every regular
    p <= 10 on the bundled corpus, and matches frozen trefoil values."""
    import numpy as np

    exp = ctx.expected["trefoil_varsigma"]
    for rec in corpus_records():
        knot = rec.knot
        W = knot.clover
        for p, beta in zip(range(2, 11), knot.betas(range(2, 11))):
            if not beta:
                continue  # irregular p
            exact = varsigma_p(W, p)
            by_roots = int(varsigma_at(W, np.arange(p), p).sum())
            check(exact == by_roots, "%s p=%d: %d vs %d" % (rec.name, p, exact, by_roots))
            check(knot.sigma_p(p) == exact, "%s p=%d: production route" % (rec.name, p))
        if rec.name == "trefoil":
            for p, want in exp.items():
                check(varsigma_p(W, p) == want, "trefoil varsigma_%d" % p)


def criterion_04(ctx: AcceptanceContext):
    """Torsion order: the integer Seifert route equals the resultant route
    for p <= 12 on the corpus, zeros (irregular p) included, and |det| of
    the substituted clover form at regular p; frozen trefoil spots."""
    for rec in corpus_records():
        knot = rec.knot
        for p, beta in zip(range(2, 13), knot.betas(range(2, 13))):
            norm = cyclotomic_norm(knot.delta, p)
            check(abs(norm) == beta, "%s p=%d: resultant %s vs %d" % (rec.name, p, norm, beta))
            if beta == 0:
                continue  # irregular p: W(T) is singular
            det = rational_det(subst_cycle(knot.clover, p))
            check(abs(det) == beta, "%s p=%d: det %s vs %d" % (rec.name, p, det, beta))
    for p, want in ctx.expected["trefoil_beta"].items():
        got = torsion_order([[-1, 1], [0, -1]], p)
        check(got == want, "trefoil beta_%d = %d, expected %d" % (p, got, want))


def criterion_05(ctx: AcceptanceContext):
    """Torsion growth of the figure-8 approaches its Mahler measure with
    a decreasing error envelope along p = 50, 100, 200, 500."""
    A = [[1, 1], [0, -1]]
    m = ctx.expected["figure8_growth"]
    check(abs(mahler_measure(alexander(A)) - m) < 1e-9)
    rows = torsion_growth(A, [50, 100, 200, 500])
    check([r[0] for r in rows] == [50, 100, 200, 500], "figure-8 must be regular at all p")
    errs = [abs(r[2] - m) for r in rows]
    for a, b in zip(errs, errs[1:]):
        check(b <= a + 1e-12, "error envelope must decrease: %r" % (errs,))
    check(errs[-1] <= 0.05, "final ratio too far from the Mahler measure")


def criterion_06(ctx: AcceptanceContext):
    """Lift count equals the residue of the symbol for every bead tuple
    in {0..p-1}^E, p in {2, 3, 5}, on the theta graph, the eyes graph and
    the two-component theta union."""
    rng = random.Random(ctx.seed)
    for G0 in (theta_graph(), eyes_graph()):
        for p in (2, 3, 5):
            for beads in product(range(p), repeat=len(G0.edges)):
                check(liftres_check(G0.with_beads(beads), p), (G0, p, beads))
    th2 = disjoint_union(theta_graph(), theta_graph())
    for beads in product(range(2), repeat=6):
        check(liftres_check(th2.with_beads(beads), 2), beads)
    for p in (2, 3, 5):
        cases, failures = liftres_sweep(th2, p)
        check(cases == p ** 6 and failures == 0, (p, cases, failures))
    # spot-check the per-tuple route beside the per-topology decision above
    for _ in range(60):
        beads = [rng.randrange(5) for _ in range(6)]
        check(liftres_check(th2.with_beads(beads), 5), beads)


def criterion_07(ctx: AcceptanceContext):
    """Beadless graphs lift p^b ways, b the number of components."""
    th, ey = theta_graph(), eyes_graph()
    graphs = [th, ey, disjoint_union(th, th), disjoint_union(th, ey),
              disjoint_union(th, th, th)]
    for G in graphs:
        b = G.b0
        for p in range(1, 8):
            check(count_admissible(G, p) == p ** b, (G, p))


def criterion_08(ctx: AcceptanceContext):
    """res_p of 2-loop classes is invariant under the loop relation and
    the full order-12 slot symmetry, exactly, for p in {2, 3, 5, 7}."""
    rng = random.Random(ctx.seed + 8)
    for _ in range(100):
        Q = ThetaClass.monomial(
            rng.randint(-6, 6),
            rng.randint(-6, 6),
            rng.randint(-6, 6),
            Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)),
        )
        moved = [Q.pushed(1), Q.pushed(-1), Q.pushed(3), Q.barred(), Q.symmetrize()]
        moved += [Q.permuted(perm) for perm in permutations(range(3))]
        for p in (2, 3, 5, 7):
            want = res_p_theta(Q, p)
            for M in moved:
                got = res_p_theta(M, p)
                check(got == want, (Q.terms, p, got, want))


def criterion_09(ctx: AcceptanceContext):
    """Casson-Walker over p approaches its growth-rate prediction:
    |casson_walker/p - casson_growth| <= 0.02 at p = 200 for corpus knots
    and monomial classes, casson_walker's (1/3) res_p(Q) + (1/8) sigma_p
    summed here after one regularity test per knot; the trefoil signature
    average is -4/3."""
    sa = signature_average([[-1, 1], [0, -1]])
    want = float(ctx.expected["trefoil_signature_average"])
    check(abs(sa - want) <= 1e-9, sa)
    qs = [
        ThetaClass.zero(),
        ThetaClass.constant(1),
        ThetaClass.monomial(1, 1, 1, Fraction(3, 2)),
        ThetaClass.monomial(2, -1, 3, Fraction(-2)),
    ]
    p = 200
    for rec in corpus_records():
        knot = rec.knot
        check(knot.beta(p) != 0, "%s must be regular at %d" % (rec.name, p))
        sig = knot.sigma_p(p)  # total_sigma_p on a p known regular
        for Q in qs:
            cw = res_p_theta(Q, p) / 3 + Fraction(sig, 8)  # casson_walker's sum
            cg = casson_growth(knot, Q)
            err = abs(float(cw) / p - cg)
            check(err <= 0.02, "%s: |%s/%d - %s| = %g" % (rec.name, cw, p, cg, err))


def criterion_10(ctx: AcceptanceContext):
    """Wheels coefficients: the Bernoulli closed form equals direct series
    composition and the frozen exact values."""
    got = wheels_coefficients(4)
    # independent route: log(1+u) = sum (-1)^(k+1) u^k / k composed directly,
    # on coefficient lists truncated at x^8; u = O(x^2), so k <= 4 suffices
    order = 8
    u = [Fraction(0)] * (order + 1)
    for k in range(1, 5):
        u[2 * k] = Fraction(1, 4 ** k * math.factorial(2 * k + 1))
    acc = [Fraction(0)] * (order + 1)
    upow = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, 5):
        upow = [sum(upow[i] * u[m - i] for i in range(m + 1)) for m in range(order + 1)]
        acc = [a + Fraction((-1) ** (k + 1), k) * c for a, c in zip(acc, upow)]
    other = [acc[2 * n] / 2 for n in range(1, 5)]
    check(got == other, "closed form and series log disagree: %r vs %r" % (got, other))
    check(got == ctx.expected["wheels"], "frozen wheels values: %r" % (got,))


def criterion_11(ctx: AcceptanceContext):
    """Denominator rewriting: r == P / Qp(t^p) identically, with Qp an
    honest polynomial in t^p, for 50 random local fractions."""
    rng = random.Random(ctx.seed + 11)
    count = 0
    while count < 50:
        num = LaurentPoly(
            {e: rng.randint(-5, 5) for e in range(rng.randint(-4, 0), rng.randint(1, 5))}
        )
        if num.is_zero:
            continue
        dn = LaurentPoly({e: rng.randint(-3, 3) for e in range(0, rng.randint(2, 4))})
        dn = dn - LaurentPoly.const(dn.eval_one() - 1)  # force value 1 at t = 1
        if dn.is_zero or dn.coeff(0) == 0 or dn.max_exp == 0:
            continue
        r = RatFun(num, dn)
        if r.den == LaurentPoly.one():
            continue
        count += 1
        for p in (2, 3, 5):
            P, Qp = denominator_to_tp(r, p)
            Qp_tp = LaurentPoly({p * e: c for e, c in Qp.coeffs.items()})
            check(r.num * Qp_tp == P * r.den, "rewrite not identical: %s, p=%d" % (r, p))
            check(all(e % p == 0 for e in Qp_tp.coeffs), "Qp(t^p) support off the p-grid")
            z = Fraction(rng.randint(2, 7), rng.randint(8, 11))
            if r.den.evaluate(z) != 0 and Qp_tp.evaluate(z) != 0:
                check(
                    r.evaluate(z) == P.evaluate(z) / Qp_tp.evaluate(z),
                    "evaluation mismatch at %s" % z,
                )


def criterion_12(ctx: AcceptanceContext):
    """Twisted cycle matrix: (T_t)^p = t I for p <= 8, and the twisted
    substitution of a Hermitian matrix is Hermitian and restricts to the
    plain cycle substitution at t = 1."""
    t = LaurentPoly.t()
    for p in range(1, 9):
        T = twisted_cycle_matrix(p)
        check(T ** p == LambdaMatrix.identity(p) * t, "T_t^%d != t I" % p)
        check(T @ T.bar_transpose() == LambdaMatrix.identity(p), p)
    rng = random.Random(ctx.seed + 12)
    for _ in range(50):
        n = rng.randint(1, 4)
        M = LambdaMatrix(
            [
                [
                    LaurentPoly({e: rng.randint(-3, 3) for e in range(-3, 4)})
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )
        W = M + M.bar_transpose()
        check(W.is_hermitian)
        p = rng.choice([2, 3, 4, 5])
        Tw = subst_twisted(W, p)
        check(Tw.is_hermitian, "twisted substitution must stay Hermitian")
        S = subst_cycle(W, p)
        check(
            tuple(tuple(r) for r in Tw.eval_at_one()) == S,
            "twisted substitution at t = 1 must match the cycle substitution",
        )


CRITERIA: list[tuple[int, str, Callable[[AcceptanceContext], None]]] = [
    (1, "clover congruence identity on 200 random Seifert matrices", criterion_01),
    (2, "clover determinant = Alexander; per-root signatures agree", criterion_02),
    (3, "exact total signature = per-root sum (regular p <= 10)", criterion_03),
    (4, "torsion order: Seifert = resultant = determinant route (p <= 12)", criterion_04),
    (5, "figure-8 torsion growth converges to the Mahler measure", criterion_05),
    (6, "lift count = residue of the symbol, exhaustively, p in {2,3,5}", criterion_06),
    (7, "beadless graphs lift p^(components) ways", criterion_07),
    (8, "2-loop residues invariant under loop relation and symmetry", criterion_08),
    (9, "Casson-Walker per-cover values converge to the growth rate", criterion_09),
    (10, "wheels coefficients: Bernoulli closed form, series log and frozen values", criterion_10),
    (11, "denominators rewrite as polynomials in t^p, identically", criterion_11),
    (12, "twisted cycle substitution: torsion relation and Hermitian-ness", criterion_12),
]


def run_selftest(
    criteria: list[int] | None = None,
    inject_corruption: bool = False,
) -> bool:
    """Run acceptance criteria; print one line per criterion; True iff all
    pass.  ValueError for a number that names no criterion, before any runs."""
    unknown = sorted(set(criteria or ()) - {num for num, _, _ in CRITERIA})
    if unknown:
        raise ValueError("no criterion numbered %s (have 1..%d)"
                         % (", ".join(map(str, unknown)), len(CRITERIA)))
    ctx = AcceptanceContext(corrupt=inject_corruption)
    ok_all = True
    for num, title, fn in CRITERIA:
        if criteria and num not in criteria:
            continue
        t0 = time.monotonic()
        try:
            fn(ctx)
            status, detail = "PASS", ""
        except AssertionError as e:
            status, detail = "FAIL", " -- %s" % e
            ok_all = False
        except Exception as e:  # noqa: BLE001 - a crash is a failure, keep going
            status, detail = "FAIL", " -- %s: %s" % (type(e).__name__, e)
            ok_all = False
        dt = time.monotonic() - t0
        print("criterion %2d: %s (%6.2fs)  %s%s" % (num, status, dt, title, detail))
    return ok_all
