"""Cyclic branched cover invariants: torsion, signatures, Casson-Walker."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import knotcovers.exactalg
import knotcovers.lambdamat
import knotcovers.seifert
from knotcovers.branched import (
    BranchedReport,
    NotPRegular,
    branched_report,
    casson_growth,
    casson_walker,
    is_p_regular,
    signature_average,
    torsion_growth,
    torsion_order,
    total_sigma_p,
)
from knotcovers.cli import main
from knotcovers.exactalg import SingularEvaluation, circle_roots, cyclotomic_norm, mahler_measure
from knotcovers.lambdamat import (
    LambdaMatrix,
    rational_det,
    root_of_unity,
    subst_cycle,
    varsigma_p,
)
from knotcovers.seifert import (
    Knot,
    alexander,
    clover_matrix,
    corpus_records,
    random_seifert,
    sigma_at_omega,
    signature_function,
)
from knotcovers.seifert import _arc_signature, _simplest_tangent
from knotcovers.theta import ThetaClass, res_p_theta
from test_seifert import chi_beta, torus_seifert


def by_roots(A, p):
    """Per-root oracle for total_sigma_p: the signature of the Seifert form
    at each p-th root of unity other than 1, each root solved on its own
    slice of one stacked eigensolve, summed."""
    return int(sigma_at_omega(A, root_of_unity(np.arange(1, p), p)).sum())


def arc_kernel_sizes(knot):
    """The sizes of the kernel calls behind ``knot.arcs``: arc 0 is 0 by
    theory, each later arc takes the 4g x 4g real form of its Hermitian form
    and the last, through w = -1, the 2g x 2g A + A^T."""
    later, n = len(knot.arcs[1]) - 1, len(knot.seifert)
    return [2 * n] * (later - 1) + [n] if later else []


def block_sum(*mats):
    """Seifert matrix of the connected sum: the block-diagonal sum.  Its
    basis is x_1, y_1, x_2, y_2, ..., so it is not banded."""
    n = sum(len(A) for A in mats)
    out = [[0] * n for _ in range(n)]
    off = 0
    for A in mats:
        for i, row in enumerate(A):
            out[off + i][off:off + len(A)] = row
        off += len(A)
    return out


class TestRegularity:
    def test_trefoil_irregular_exactly_at_multiples_of_six(self, trefoil):
        regular = [p for p in range(1, 20) if is_p_regular(trefoil, p)]
        assert [p for p in range(1, 20) if p not in regular] == [6, 12, 18]

    def test_figure8_always_regular(self, figure8):
        assert all(is_p_regular(figure8, p) for p in range(1, 40))


class TestTorsion:
    def test_trefoil_frozen_values(self, trefoil):
        assert torsion_order(trefoil, 2) == 3
        assert torsion_order(trefoil, 3) == 4
        assert torsion_order(trefoil, 5) == 1

    def test_figure8_frozen_values(self, figure8):
        assert [torsion_order(figure8, p) for p in (2, 3, 4, 5)] == [5, 16, 45, 121]

    def test_both_routes_agree_on_corpus(self, trefoil, figure8):
        # oracles: |det| of the clover form at the p-cycle matrix, and the
        # cyclotomic norm of the Alexander polynomial (resultant route)
        for A in (trefoil, figure8):
            for p in range(2, 9):
                if is_p_regular(A, p):
                    det = rational_det(subst_cycle(clover_matrix(A), p))
                    assert abs(det) == torsion_order(A, p)
                    assert abs(cyclotomic_norm(alexander(A), p)) == torsion_order(A, p)

    def test_irregular_p_rejected(self, trefoil):
        assert Knot(trefoil).beta(6) == 0 == cyclotomic_norm(alexander(trefoil), 6)
        with pytest.raises(NotPRegular):
            torsion_order(trefoil, 6)

    def test_growth_rows_skip_irregular(self, trefoil):
        rows = torsion_growth(trefoil, range(1, 14))
        assert [r[0] for r in rows] == [1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 13]

    def test_growth_limit_is_mahler(self, figure8):
        m = mahler_measure(alexander(figure8))
        assert m == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=1e-12)
        rows = torsion_growth(figure8, [30, 60])
        assert rows[-1][2] == pytest.approx(m, abs=1e-9)


class TestTotalSignature:
    def test_methods_agree(self, trefoil, figure8):
        for A in (trefoil, figure8):
            for p in (2, 3, 5, 8):
                got = total_sigma_p(A, p)
                assert got == varsigma_p(clover_matrix(A), p)
                assert got == by_roots(A, p)

    def test_trefoil_values(self, trefoil):
        assert [total_sigma_p(trefoil, p) for p in (2, 3, 4, 5)] == [-2, -4, -6, -8]

    def test_large_p_uses_roots_route(self, trefoil, figure8):
        # the production route sums per-root signatures and must stay fast
        # at large p.  The figure-8 has no roots on the unit circle, so
        # sigma vanishes there; the trefoil's sigma is -2 on the middle
        # arc (1/6, 5/6), which holds 22 of the 33rd roots of unity.
        got = total_sigma_p(figure8, 201)
        assert got == by_roots(figure8, 201) == 0
        got = total_sigma_p(trefoil, 33)
        assert got == varsigma_p(clover_matrix(trefoil), 33) == by_roots(trefoil, 33) == -44

    def test_irregular_p_rejected(self, trefoil):
        with pytest.raises(NotPRegular):
            total_sigma_p(trefoil, 6)

    def test_sizes_the_exact_route_used_to_serve(self):
        # the largest regular p with 2g * p <= 64 on each corpus knot of
        # genus >= 1: the per-root sum against the exact cycle substitution
        for rec in corpus_records():
            if rec.knot.genus == 0:
                continue
            p = 64 // len(rec.knot.seifert)
            while not is_p_regular(rec.knot, p):
                p -= 1
            assert total_sigma_p(rec.knot, p) == varsigma_p(rec.knot.clover, p), rec.name

    def test_connected_sums_add(self, trefoil, figure8):
        # block sums are valid Seifert matrices outside the banded basis,
        # where the clover form does not exist; sigma_p adds under #
        for parts in ((trefoil, trefoil), (trefoil, figure8), (trefoil, trefoil, trefoil)):
            A = block_sum(*parts)
            for p in (2, 3, 5, 7):
                assert total_sigma_p(A, p) == sum(total_sigma_p(B, p) for B in parts)


class TestStackedRoots:
    CHUNK = 1 << 12  # the per-root route's old stack size: p across its boundaries

    def test_per_root_oracle_on_corpus_random_knots_and_sums(self, rng, trefoil):
        knots = [rec.knot for rec in corpus_records()]
        knots += [Knot(random_seifert(rng.randint(1, 3), rng)) for _ in range(40)]
        knots.append(Knot(block_sum(trefoil, trefoil)))
        for knot in knots:
            for p in range(2, 14):
                if is_p_regular(knot, p):
                    assert total_sigma_p(knot, p) == by_roots(knot, p), (knot.seifert, p)

    @staticmethod
    def _outcome(fn, *args):
        try:
            return fn(*args)
        except SingularEvaluation:
            return "singular"

    @pytest.mark.parametrize("extra", [0, 1, CHUNK + 1])
    def test_chunk_boundaries(self, extra, trefoil):
        # p = 4096, 4097 and 8193 without beta_p: the arc table's count
        # against the per-root sum, both refusing at an irregular p
        p = self.CHUNK + extra
        names = {"trefoil", "random-g2-c", "random-g3-a"}
        knots = [rec.knot for rec in corpus_records() if rec.name in names]
        knots.append(Knot(block_sum(trefoil, trefoil)))
        for knot in knots:
            got = self._outcome(knot.sigma_p, p)
            assert got == self._outcome(by_roots, knot, p), (knot.seifert, p)

    def test_one_kernel_call_per_arc_per_chunk(self, monkeypatch, figure8, trefoil):
        # the arc table is one exact inertia per arc per knot, arc 0 (0 by
        # theory) aside, 4g x 4g inside the half circle and 2g x 2g at
        # w = -1; every p of the report, the signature average and the
        # signature rows read it, and no eigensolve runs, at a root of unity
        # or anywhere else
        calls, solves = [], []
        inertia, eigvalsh = knotcovers.seifert._inertia, np.linalg.eigvalsh
        monkeypatch.setattr(knotcovers.seifert, "_inertia",
                            lambda M: calls.append(len(M)) or inertia(M))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: solves.append(H.shape) or eigvalsh(H))
        for A in (figure8, trefoil, block_sum(trefoil, trefoil), torus_seifert(2, 5)):
            knot = Knot(A)
            del calls[:], solves[:]
            rows = branched_report(knot, range(2, self.CHUNK + 2))
            signature_average(knot)
            signature_function(knot, 3, 7)
            assert calls == arc_kernel_sizes(knot)
            assert solves == []
            assert all(r.sigma_p == by_roots(A, r.p) for r in rows[:60] + rows[-3:] if r.regular)


K112 = [[1, 1], [0, 2]]  # Delta = 2t^-1 - 3 + 2t, circle roots at u = 3/2
GENUS5 = [[2, 3, 1, 0, -2, 0, -3, -3, -2, 0], [3, -2, -1, 2, 0, 3, 3, 3, -1, 0],
          [1, -1, 1, 3, 0, 1, -1, 2, 1, 0], [0, 2, 3, 1, -2, -1, 2, -3, 4, -1],
          [-2, 0, 0, -2, 1, 2, 2, -2, 2, 4], [-1, 3, 1, -1, 2, -1, 1, 1, 1, -3],
          [-3, 2, -1, 2, 2, 1, 2, 2, -2, 2], [-3, 3, 1, -3, -2, 1, 2, 3, 1, -1],
          [-2, -1, 1, 3, 2, 1, -2, 1, -1, -3], [0, 0, 0, -1, 3, -3, 2, -1, -3, -3]]


def mp_average(A):
    """Oracle for the signature average of a knot whose Delta has simple
    roots: the circle roots from mpmath's roots at 50 digits, each arc's
    value the per-root signature at its midpoint."""
    mpmath = pytest.importorskip("mpmath")
    knot = Knot(A)
    lo = knot.delta.min_exp
    coeffs = [knot.delta.coeff(e) for e in range(knot.delta.max_exp, lo - 1, -1)]
    with mpmath.workdps(50):
        roots = mpmath.polyroots(coeffs, maxsteps=400, extraprec=400)
        turns = sorted(mpmath.arg(z) / (2 * mpmath.pi) for z in roots
                       if abs(abs(z) - 1) < mpmath.mpf(10) ** -30 and mpmath.im(z) > 0)
        ends = [mpmath.mpf(0)] + turns + [mpmath.mpf(1) / 2]
        mids = np.array([float((a + b) / 2) for a, b in zip(ends, ends[1:])])
        sigs = sigma_at_omega(knot, root_of_unity(mids, 1))
        return float(2 * sum(int(sg) * (b - a) for sg, a, b in zip(sigs, ends, ends[1:])))


class TestArcTable:
    def test_continued_fraction_denominators_from_theory(self):
        # sigma_p = 2(p - 1 - 2 floor(p alpha)), alpha = arccos(3/4)/2 pi: at
        # 281352 and 1130459 a k/p lies within 3e-12 and 7e-14 of a turn of
        # alpha, where the per-root eigensolve refused
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            alpha = mpmath.acos(mpmath.mpf(3) / 4) / (2 * mpmath.pi)
            want = {p: 2 * (p - 1 - 2 * int(mpmath.floor(p * alpha)))
                    for p in (5, 26, 113, 5051, 20011, 281352, 1130459)}
        assert want[281352] == 433254 and want[1130459] == 1740784
        knot = Knot(K112)
        for p, sig in want.items():
            assert knot.sigma_p(p) == sig, p
            if p < 10 ** 5:
                assert total_sigma_p(knot, p) == by_roots(knot, p) == sig, p

    def test_connected_sum_with_circle_roots_2_to_the_minus_40_apart(self, capsys, tmp_path):
        # [[M, 1], [0, 1]] has Delta = M t^-1 + 1 - 2M + M t, one circle root,
        # at u = t + 1/t = 2 - 1/M, and A + A^T = [[2M, 1], [1, 2]] positive
        # definite: its signature function is 0 before the root and 2 past it.
        # By additivity the sum for M = N, N + 1, N = 2^20, roots 2^-40 apart
        # in u, has arc values 0, 2, 4; every k/p with p <= 60 lies past both
        # roots (about 1.55e-4 turns), so sigma_p = 4(p - 1).  The float
        # eigensolve at the middle arc's midpoint refused this knot.
        N = 2 ** 20
        A = [[N, 0, 1, 0], [0, N + 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
        knot = Knot(A)
        assert knot.arcs[1] == [0, 2, 4]
        assert all(total_sigma_p(knot, p) == 4 * (p - 1) for p in range(2, 61))
        f = tmp_path / "knot.json"
        f.write_text(json.dumps(A))
        assert main(["branched", "--file", str(f), "--p", "2..6"]) == 0
        sigmas = [line.split()[2] for line in capsys.readouterr().out.splitlines()[1:]]
        assert sigmas == ["4", "8", "12", "16", "20"]

    @pytest.mark.parametrize("M", [2 ** 52, 2 ** 60], ids=["2^52", "2^60"])
    def test_a_circle_root_closer_to_t_1_than_floats_separate(self, M, capsys, tmp_path):
        # [[M, 1], [0, 1]] has one circle root, at u = 2 - 1/M, under 2.4e-9
        # turns from t = 1, and A + A^T = [[2M, 1], [1, 2]] positive definite:
        # the signature function is 0 before the root and 2 past it, so
        # sigma_p = 2(p - 1) for every p <= 20.  No float lies between the
        # root's bracket and u = 2, where the arc table once refused the knot.
        A = [[M, 1], [0, 1]]
        knot = Knot(A)
        assert knot.arcs[1] == [0, 2]
        assert knot.signature_average == pytest.approx(2, abs=1e-8)
        f = tmp_path / "knot.json"
        f.write_text(json.dumps(A))
        assert main(["branched", "--file", str(f), "--p", "2..20", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [(r[0], r[1], r[2]) for r in rows] == [(p, True, 2 * (p - 1)) for p in range(2, 21)]
        assert [r[3] for r in rows] == [chi_beta(A, p) for p in range(2, 21)]

    def test_arc_0_is_0_on_the_kernel_route_it_replaced(self):
        # arc 0, from t = 1 to the first circle root, is 0 by theory; the
        # exact inertia at its simplest point (w = -1 with no circle root)
        # agrees on the corpus, on torus knots and on random knots
        knots = [rec.knot.seifert for rec in corpus_records()]
        knots += [torus_seifert(a, b) for a, b in ((2, 3), (3, 4), (2, 7), (4, 5))]
        rng = random.Random(31)
        knots += [random_seifert(rng.randint(1, 6), rng) for _ in range(200)]
        for A in knots:
            knot = Knot(A)
            brackets = circle_roots(knot.delta)  # ascending in u: arc 0 is above the last
            a, b = _simplest_tangent(Fraction(brackets[-1][1]), Fraction(2)) if brackets else (1, 0)
            assert _arc_signature(knot.seifert, a, b) == 0 == knot.arcs[1][0], A

    def test_genus_5_average_past_the_old_circle_test(self, capsys, tmp_path):
        # numpy puts its circle roots 1.1e-8 off |t| = 1; the bracket is exact
        f = tmp_path / "knot.json"
        f.write_text(json.dumps(GENUS5))
        want = mp_average(GENUS5)
        assert want == pytest.approx(1.892835851098416, abs=1e-14)
        assert signature_average(GENUS5) == pytest.approx(want, abs=1e-14)
        assert main(["growth", "--file", str(f), "--ps", "10"]) == 0
        assert "signature_average = 1.8928358511\n" in capsys.readouterr().out

    def test_average_is_the_limit_of_sigma_p_over_p(self):
        # |average - sigma_p / p| <= 2g(2g + 1)/p against the per-root sum at
        # p = 4001, on knots of genus 4..6, where numpy's circle roots can
        # fall past the old 1e-8 test; the sum runs over k < p/2 and doubles,
        # the form at conj(w) being the conjugate of the form at w
        rng, p = random.Random(11), 4001
        for _ in range(200):
            knot = Knot(random_seifert(rng.choice([4, 5, 6]), rng))
            g = knot.genus
            oracle = 2 * int(sigma_at_omega(knot, root_of_unity(np.arange(1, p // 2 + 1), p)).sum())
            assert knot.sigma_p(p) == oracle
            assert abs(knot.signature_average - oracle / p) <= 2 * g * (2 * g + 1) / p, knot.seifert

    def test_table_matches_the_per_root_sum(self, trefoil, figure8):
        knots = [rec.knot for rec in corpus_records()]
        rng = random.Random(23)
        knots += [Knot(random_seifert(rng.randint(1, 6), rng)) for _ in range(250)]
        knots += [Knot(torus_seifert(a, b)) for a, b in ((2, 3), (2, 5), (3, 4), (3, 5), (5, 6),
                                                         (2, 13), (4, 7), (7, 8), (2, 21))]
        t34 = torus_seifert(3, 4)
        knots += [Knot(block_sum(*parts)) for parts in ((trefoil, trefoil), (trefoil, figure8),
                                                        (trefoil, trefoil, trefoil), (t34, t34))]
        outcome = TestStackedRoots._outcome
        pairs = 0
        for knot in knots:
            for p in [*range(2, 41), 101, 499, 1009]:
                got = outcome(knot.sigma_p, p)
                assert got == outcome(by_roots, knot, p), (knot.seifert, p)
                pairs += got != "singular"
        assert pairs > 11000

    def test_one_kernel_call_per_arc_for_every_signature_row(self, monkeypatch):
        calls, solves = [], []
        inertia, real = knotcovers.seifert._inertia, knotcovers.seifert.complex_signature
        monkeypatch.setattr(knotcovers.seifert, "_inertia",
                            lambda M: calls.append(len(M)) or inertia(M))
        monkeypatch.setattr(knotcovers.seifert, "complex_signature",
                            lambda H: solves.append(H.shape) or real(H))
        (rec,) = [r for r in corpus_records() if r.name == "random-g3-a"]
        # random-g3-a has no circle root; K112 # [[1, 1], [0, 3]] has two, at
        # u = 5/3 and 3/2, off every root of unity
        pair = Knot(block_sum(K112, [[1, 1], [0, 3]]))
        for knot, sizes in ((rec.knot, []), (pair, [8, 4])):
            del calls[:]
            for p in range(2, 51):
                rows = [signature_function(knot, k, p) for k in range(1, p)]
                if is_p_regular(knot, p):
                    assert total_sigma_p(knot, p) == sum(rows)
            assert calls == sizes == arc_kernel_sizes(knot) and solves == []


class TestDerivedOnce:
    def test_report_computes_each_beta_once_and_no_delta(self, monkeypatch):
        recs = [r for r in corpus_records() if r.name in ("trefoil", "random-g3-a")]
        dets, rdets, norms, bdets = [], [], [], []
        det, rdet, norm = LambdaMatrix.det, knotcovers.seifert.rational_det, cyclotomic_norm
        bareiss = knotcovers.seifert._bareiss

        def counted_det(M):
            dets.append(M.n)
            return det(M)

        def counted_rdet(rows):
            rdets.append(len(rows))
            return rdet(rows)

        def counted_norm(f, p):
            norms.append(p)
            return norm(f, p)

        def counted_bareiss(M):
            bdets.append(len(M))
            return bareiss(M)

        monkeypatch.setattr(LambdaMatrix, "det", counted_det)
        monkeypatch.setattr(knotcovers.seifert, "rational_det", counted_rdet)
        monkeypatch.setattr(knotcovers.exactalg, "cyclotomic_norm", counted_norm)
        monkeypatch.setattr(knotcovers.seifert, "_bareiss", counted_bareiss)
        exact = []
        signature_exact = knotcovers.lambdamat.signature_exact

        def counted_exact(S):
            exact.append(S)
            return signature_exact(S)

        monkeypatch.setattr(knotcovers.lambdamat, "signature_exact", counted_exact)
        irregular = {"trefoil": [6, 12, 18], "random-g3-a": []}
        for rec in recs:
            n = len(rec.knot.seifert)
            dets.clear()
            bdets.clear()
            rows = branched_report(rec.knot, range(2, 21))
            assert [r.p for r in rows] == list(range(2, 21))
            assert [r.p for r in rows if not r.regular] == irregular[rec.name]
            # beta_p comes from Delta's trace polynomial, and Delta from one
            # Kronecker determinant of the 2g x 2g Seifert pencil A - t A^T
            assert dets == [n], rec.name
            # the run p = 2..20 is 19 degrees: at genus 1, past 3 2^g = 6, the
            # recurrence's u_1, u_2 and the window's u_3, z_2 and z_3 (u_2
            # read from the recurrence's), 2 2^g + 1 g x g integer norms, then
            # one recurrence step and no norm per p; at genus 3, short of
            # 3 2^g = 24, one norm per p; one more for beta_2 per knot; and no
            # characteristic polynomial; sigma_p is read off the arc table,
            # so neither the clover form nor exact inertia runs
            paid = {"trefoil": 2 * 2 + 1, "random-g3-a": 19}[rec.name]
            assert bdets == [n // 2] * (paid + 1), rec.name
            assert rdets == [] and exact == []
        for name in ("_mat_pow", "_mat_mul", "_charpoly"):
            assert not hasattr(knotcovers.seifert, name), name
        assert not hasattr(knotcovers.exactalg, "_charpoly")  # no characteristic polynomial
        assert not hasattr(knotcovers.exactalg, "_mat_mul")  # no matrix product left
        for module in (knotcovers.seifert, knotcovers.branched):
            assert not hasattr(module, "cyclotomic_norm")
        assert norms == []

    def test_a_run_short_of_3_2_to_the_g_one_norm_per_p(self, monkeypatch):
        # T(9, 10) has genus 36: the run p = 2..20 is far short of 3 2^36
        # degrees, so it builds no recurrence and pays one g x g norm per p,
        # regular or not, plus one for beta_2
        knot = Knot(torus_seifert(9, 10))
        knot.half_charpoly
        bdets, bareiss = [], knotcovers.seifert._bareiss
        monkeypatch.setattr(knotcovers.seifert, "_bareiss", lambda M: bdets.append(len(M)) or bareiss(M))
        rows = torsion_growth(knot, range(2, 21))
        # Delta's roots are the 90th roots of unity of orders 6, 15, 18, 30, 45 and 90
        assert [r[0] for r in rows] == [p for p in range(2, 21) if p not in (6, 12, 15, 18)]
        assert bdets == [36] * 20
        assert "_recurrence" not in vars(knot)

    def test_report_reads_each_beta_once(self, monkeypatch):
        # beta_p decides regularity and fills its column: one walk over every
        # p, and none of the public wrappers or single degrees that would each
        # read it again
        recs = [r for r in corpus_records() if r.name in ("trefoil", "random-g3-a")]
        betas, calls = Knot.betas, []

        def counted_betas(self, ps):
            calls.append(list(ps))
            return betas(self, ps)

        def refused(*args):
            raise AssertionError("branched_report went through a wrapper")

        monkeypatch.setattr(Knot, "betas", counted_betas)
        monkeypatch.setattr(Knot, "beta", refused)
        for name in ("is_p_regular", "total_sigma_p", "torsion_order"):
            monkeypatch.setattr(knotcovers.branched, name, refused)
        for rec in recs:
            calls.clear()
            rows = branched_report(rec.knot, range(2, 21), Q=rec.q2loop)
            assert calls == [list(range(2, 21))], rec.name
            assert [r.regular for r in rows] == [r.beta_p is not None for r in rows]
            calls.clear()
            assert [r[0] for r in torsion_growth(rec.knot, range(2, 21))] == [
                r.p for r in rows if r.regular]
            assert calls == [list(range(2, 21))], rec.name

    @pytest.mark.parametrize(
        "argv",
        [
            ["branched", "--p", "2..6"],
            ["growth", "--pmax", "12"],
            ["branched", "--p", "2..6", "--knot", "random-g3-a"],
        ],
        ids=["branched", "growth", "branched-corpus"],
    )
    def test_cli_validates_the_seifert_matrix_once(self, argv, monkeypatch, tmp_path, capsys):
        if "--knot" not in argv:
            (rec,) = [r for r in corpus_records() if r.name == "random-g3-a"]
            f = tmp_path / "knot.json"
            f.write_text(json.dumps(rec.knot.seifert))
            argv = argv + ["--file", str(f)]
        calls = []
        validate = knotcovers.seifert.validate_seifert

        def counted_validate(A):
            calls.append(len(A))
            return validate(A)

        monkeypatch.setattr(knotcovers.seifert, "validate_seifert", counted_validate)
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == [6]

    def test_growth_finds_the_circle_roots_once(self, monkeypatch, capsys):
        # the summary's signature average and casson_growth (on the trefoil
        # record's own 2-loop class) share one Knot value
        calls = []
        circle_roots = knotcovers.seifert.circle_roots

        def counted_roots(delta):
            calls.append(delta)
            return circle_roots(delta)

        monkeypatch.setattr(knotcovers.seifert, "circle_roots", counted_roots)
        assert main(["growth", "--knot", "trefoil", "--pmax", "12", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["casson_growth"] is not None
        assert len(calls) == 1


class TestAverages:
    def test_trefoil_signature_average(self, trefoil):
        assert signature_average(trefoil) == pytest.approx(-4.0 / 3.0, abs=1e-9)

    def test_figure8_signature_average(self, figure8):
        # roots of -t + 3 - 1/t on the circle at angle +-acos(3/2 - 1)... none:
        # all roots are real (golden-ratio-squared), so sigma is 0 everywhere
        assert signature_average(figure8) == pytest.approx(0.0, abs=1e-12)

    def test_unknot(self):
        assert signature_average([]) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("copies", [2, 3, 4])
    def test_repeated_circle_roots(self, trefoil, copies):
        # Delta of T#...#T is Delta_T^copies, a repeated pair of circle
        # roots; the average adds under #, -4/3 per trefoil
        A = block_sum(*[trefoil] * copies)
        assert alexander(A) == alexander(trefoil) ** copies
        assert signature_average(A) == pytest.approx(-4.0 * copies / 3.0, abs=1e-9)

    def test_mixed_connected_sum(self, trefoil, figure8):
        # the figure-8 adds 0, the trefoil -4/3
        A = block_sum(trefoil, figure8, trefoil)
        assert signature_average(A) == pytest.approx(-8.0 / 3.0, abs=1e-9)


class TestMahlerOfRepeatedRoots:
    def test_figure8_squared(self, figure8):
        # log Mahler adds under #: twice log((3 + sqrt 5)/2)
        A = block_sum(figure8, figure8)
        assert alexander(A) == alexander(figure8) ** 2
        want = 2 * math.log((3 + math.sqrt(5)) / 2)
        assert mahler_measure(alexander(A)) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("power", [2, 3, 6])
    def test_trefoil_powers_are_zero(self, trefoil, power):
        # every root of Delta_T is on the unit circle
        assert mahler_measure(alexander(trefoil) ** power) == pytest.approx(0.0, abs=1e-12)


class TestSliceAndAmphichiral:
    """Signatures that theory fixes: a slice knot's signature function
    vanishes off the roots of Delta, and so does an amphichiral knot's."""

    def test_k_sum_minus_k(self, rng):
        # -K has Seifert matrix -A^T, and K # -K is slice: Delta = Delta_K^2,
        # beta_p = beta_p(K)^2, and sigma_p = 0 at every regular p, so the
        # signature average is 0 too
        ps = (*range(2, 61), 97, 1009)
        for _ in range(150):
            A = random_seifert(rng.randint(1, 3), rng)
            K, S = Knot(A), Knot(block_sum(A, [[-x for x in col] for col in zip(*A)]))
            assert alexander(S) == alexander(K) ** 2
            for p in ps:
                assert is_p_regular(S, p) == is_p_regular(K, p), (A, p)
                if is_p_regular(K, p):
                    assert torsion_order(S, p) == torsion_order(K, p) ** 2, (A, p)
                    assert total_sigma_p(S, p) == 0, (A, p)
            assert signature_average(S) == 0, A

    def test_figure8_sigma_p_vanishes(self, figure8):
        # the figure-eight is amphichiral and regular at every p
        K = Knot(figure8)
        assert [p for p in range(2, 2000) if total_sigma_p(K, p) != 0] == []


class TestCassonWalker:
    def test_trefoil_with_zero_two_loop_part(self, trefoil):
        val = casson_walker(trefoil, ThetaClass.zero(), 2)
        assert val == Fraction(-1, 4)

    def test_growth_value(self, trefoil):
        got = casson_growth(trefoil, ThetaClass.zero())
        assert got == pytest.approx(-1.0 / 6.0, abs=1e-9)

    def test_converges(self, trefoil):
        Q = ThetaClass.monomial(1, 2, -1, Fraction(1, 2))
        lim = casson_growth(trefoil, Q)
        p = 200
        val = casson_walker(trefoil, Q, p)
        assert abs(float(val) / p - lim) < 0.02

    def test_exactness_for_polynomial_classes(self, figure8):
        val = casson_walker(figure8, ThetaClass.constant(Fraction(3)), 4)
        assert isinstance(val, Fraction)

    def test_is_res_p_over_3_plus_sigma_p_over_8(self, figure8):
        # res_p with a denominator prime to 24 and to 3, and sigma_p of both
        # signs and parities: the one Fraction is the sum of the two parts
        Q = (ThetaClass.monomial(1, 1, 1, Fraction(2, 7))
             + ThetaClass.monomial(0, 2, -1, Fraction(-5, 9)))
        for A in (figure8, [[2, 1], [0, 1]], [[-1, 1], [0, -1]]):
            rows = branched_report(A, range(2, 14), Q=Q)
            for row in rows:
                if row.regular:
                    want = res_p_theta(Q, row.p) / 3 + Fraction(row.sigma_p, 8)
                    assert row.casson == want == casson_walker(A, Q, row.p), (A, row.p)


class TestReport:
    def test_blank_fills_irregular_rows(self, trefoil):
        rows = branched_report(trefoil, [5, 6, 7])
        assert [r.p for r in rows] == [5, 6, 7]
        assert rows[1].regular is False
        assert rows[1].sigma_p is None and rows[1].beta_p is None
        assert rows[0] == BranchedReport(
            p=5, regular=True, sigma_p=-8, beta_p=1, log_beta_over_p=0.0
        )

    def test_casson_column_present_only_with_q(self, trefoil):
        rows = branched_report(trefoil, [2], Q=ThetaClass.zero())
        assert rows[0].casson == Fraction(-1, 4)
        rows = branched_report(trefoil, [2])
        assert rows[0].casson is None

    def test_q_singular_at_p_leaves_cell_blank(self, trefoil):
        from knotcovers.exactalg import LaurentPoly, RatFun

        t = LaurentPoly.t()
        one = LaurentPoly.one()
        # denominator t^2 + t + 1 vanishes at primitive cube roots of unity
        f = RatFun(one, t ** 2 + t + one)
        Q = ThetaClass([(f, f, f, Fraction(1))])
        rows = branched_report(trefoil, [3], Q=Q)
        assert rows[0].regular is True
        assert rows[0].casson is None
