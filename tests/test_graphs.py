"""Beaded trivalent graphs: lifts, automorphisms, symbols, residues."""

import json
import random
from itertools import product

import numpy as np
import pytest

import knotcovers.graphs as graphs
from knotcovers.cli import main
from knotcovers.graphs import (
    BeadedGraph,
    Edge,
    automorphisms,
    count_admissible,
    cycle_monodromies,
    disjoint_union,
    eyes_graph,
    fundamental_cycles,
    liftres_check,
    liftres_sweep,
    phi_R,
    res_p_graph,
    theta_graph,
)


THETA, EYES = theta_graph(), eyes_graph()
SWEEP_GRAPHS = {
    "theta": THETA,
    "eyes": EYES,
    "theta-theta": disjoint_union(THETA, THETA),
    "theta-eyes": disjoint_union(THETA, EYES),
}


def _all_tuples(G, p):
    return np.array(list(product(range(p), repeat=len(G.edges))), dtype=np.int64)


def _loop_cycle_matrices(G, cycles, auts):
    """Oracle for the automorphism tensor: D[a][i][e] entry by entry."""
    E = len(G.edges)
    D = np.zeros((len(auts), len(cycles), E), dtype=np.int64)
    for ai, aut in enumerate(auts):
        for e in range(E):
            target = aut.eperm[e]
            sgn = -1 if aut.flips[e] else 1
            for ci, cyc in enumerate(cycles):
                c = cyc.get(target)
                if c:
                    D[ai, ci, e] = sgn * c
    return D


def push_at_vertex(G, v):
    """Slide a unit bead through vertex v: every non-loop edge entering v
    gains +1 on its bead, every one leaving v loses 1, loops at v are
    untouched.  Lift counts and cycle monodromies are invariant."""
    edges = []
    for e in G.edges:
        m = e.bead
        if e.tail != e.head:
            m += (e.head == v) - (e.tail == v)
        edges.append((e.tail, e.head, m))
    return BeadedGraph(G.n_vertices, edges)


def _per_automorphism_hits(G, tuples, p):
    """Oracle for the residue side: one matmul per automorphism, counting
    the automorphisms whose pushed-forward monodromies all vanish mod p."""
    _, cycles = fundamental_cycles(G)
    D = _loop_cycle_matrices(G, cycles, automorphisms(G))
    hits = np.zeros(tuples.shape[0], dtype=np.int64)
    for Da in D:
        hits += np.all((tuples @ Da.T) % p == 0, axis=1)
    return hits


def _brute_lift_count(G, p):
    """Independent oracle: try every vertex labeling in {0..p-1}^V."""
    count = 0
    for labels in product(range(p), repeat=G.n_vertices):
        if all((labels[e.head] - labels[e.tail] - e.bead) % p == 0 for e in G.edges):
            count += 1
    return count


class TestGraphBasics:
    def test_theta_shape(self):
        G = theta_graph()
        assert G.n_vertices == 2 and len(G.edges) == 3
        assert G.b0 == 1 and G.b1 == 2
        assert G.beads == (0, 0, 0)

    def test_eyes_shape(self):
        G = eyes_graph()
        assert G.n_vertices == 2 and len(G.edges) == 3
        assert G.b0 == 1 and G.b1 == 2

    def test_disjoint_union(self):
        G = disjoint_union(theta_graph(), eyes_graph())
        assert G.n_vertices == 4 and len(G.edges) == 6
        assert G.b0 == 2 and G.b1 == 4

    def test_rejects_wrong_valence(self):
        with pytest.raises(ValueError):
            BeadedGraph(2, [Edge(0, 1, 0)])

    def test_with_beads(self):
        G = theta_graph().with_beads([1, 2, 0])
        assert [e.bead for e in G.edges] == [1, 2, 0]
        assert G.beads == (1, 2, 0)

    def test_json_roundtrip(self):
        G = eyes_graph().with_beads([3, 1, 4])
        back = BeadedGraph.from_json(G.to_json())
        assert back.n_vertices == G.n_vertices
        assert back.edges == G.edges


class TestLiftCounts:
    def test_matches_brute_force(self, rng):
        graphs = [theta_graph(), eyes_graph(), disjoint_union(theta_graph(), theta_graph())]
        for G0 in graphs:
            for p in (2, 3, 4):
                for _ in range(10):
                    beads = [rng.randrange(p) for _ in G0.edges]
                    G = G0.with_beads(beads)
                    assert count_admissible(G, p) == _brute_lift_count(G, p)

    def test_beadless_lift_is_p_power(self):
        G = disjoint_union(theta_graph(), eyes_graph())
        for p in range(1, 7):
            assert count_admissible(G, p) == p ** 2

    def test_lift_count_is_all_or_nothing_per_component(self):
        G = theta_graph().with_beads([1, 0, 0])
        assert count_admissible(G, 2) == 0
        assert count_admissible(G.with_beads([2, 0, 0]), 2) == 2


class TestAutomorphisms:
    def test_orders(self):
        assert len(automorphisms(theta_graph())) == 12
        assert len(automorphisms(eyes_graph())) == 8
        assert len(automorphisms(disjoint_union(theta_graph(), theta_graph()))) == 288

    def test_identity_present(self):
        auts = automorphisms(theta_graph())
        assert any(
            a.vperm == tuple(range(2)) and a.eperm == tuple(range(3)) and not any(a.flips)
            for a in auts
        )

    def test_computed_once_per_topology(self):
        # beads are ignored, so every bead tuple shares one immutable tuple
        auts = automorphisms(THETA)
        assert isinstance(auts, tuple)
        assert automorphisms(THETA.with_beads([1, 4, 2])) is auts
        assert automorphisms(BeadedGraph.from_json(THETA.to_json())) is auts
        assert automorphisms(EYES) is not auts and len(automorphisms(EYES)) == 8


class TestSymbols:
    def test_fundamental_cycles_count_is_b1(self):
        for G in (theta_graph(), eyes_graph(), disjoint_union(theta_graph(), eyes_graph())):
            nonforest, cycles = fundamental_cycles(G)
            assert len(nonforest) == len(cycles) == G.b1

    def test_cycle_monodromies_are_bead_differences(self):
        G = theta_graph().with_beads([5, 7, 11])
        nonforest, cycles = fundamental_cycles(G)
        assert nonforest == [1, 2]
        # each fundamental cycle pairs one non-forest edge against the forest
        # edge, so monodromies are differences of bead values: 7-5, 11-5
        assert cycle_monodromies(G.beads, cycles) == (2, 6)

    def test_forest_choice_does_not_change_residue(self):
        G = theta_graph().with_beads([2, 3, 1])
        vals = [res_p_graph(phi_R(G, forest=[i]), G, 5) for i in range(3)]
        assert vals[0] == vals[1] == vals[2]

    def test_forest_must_be_a_forest(self):
        # loops can never belong to a spanning forest
        G = eyes_graph().with_beads([2, 3, 1])
        with pytest.raises(ValueError):
            phi_R(G, forest=[0])

    def test_symbol_coefficients_sum_to_one(self):
        # phi_R averages over automorphisms, so coefficients add up to 1
        for beads in ([0, 0, 0], [1, 2, 3]):
            f = phi_R(theta_graph().with_beads(beads))
            assert sum(f.values()) == 1


class TestLiftResIdentity:
    def test_exhaustive_small(self):
        for G0 in (theta_graph(), eyes_graph()):
            for p in (2, 3):
                for beads in product(range(p), repeat=3):
                    assert liftres_check(G0.with_beads(beads), p)

    def test_sweep_matches_per_case(self):
        th2 = disjoint_union(theta_graph(), theta_graph())
        cases, failures = liftres_sweep(th2, 2)
        assert (cases, failures) == (64, 0)

    def test_sweep_sampling(self, rng):
        th2 = disjoint_union(theta_graph(), theta_graph())
        cases, failures = liftres_sweep(th2, 7, max_cases=50, rng=rng)
        assert cases == 50 and failures == 0
        with pytest.raises(ValueError):
            liftres_sweep(th2, 7, max_cases=50)

    def test_push_preserves_everything(self):
        G = theta_graph().with_beads([1, 2, 3])
        for v in (0, 1):
            H = push_at_vertex(G, v)
            assert H.beads != G.beads
            for p in (2, 3, 5):
                assert count_admissible(H, p) == count_admissible(G, p)
                assert res_p_graph(phi_R(H), H, p) == res_p_graph(phi_R(G), G, p)


class TestSweepEngine:
    """The batched sweep against the per-automorphism loop and the scalar
    lift counts it replaced."""

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
    def test_automorphism_tensor_matches_loop(self, name):
        G = SWEEP_GRAPHS[name]
        auts = automorphisms(G)
        C = graphs._certified_cycle_matrix(G)
        _, cycles = fundamental_cycles(G)
        want = _loop_cycle_matrices(G, cycles, auts)
        assert np.array_equal(graphs._aut_cycle_matrices(C, auts), want)

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
    def test_residue_side_matches_per_automorphism_loop(self, name):
        G = SWEEP_GRAPHS[name]
        naut = len(automorphisms(G))
        C = graphs._certified_cycle_matrix(G)
        for p in range(1, 6):
            tuples = _all_tuples(G, p)
            hits = _per_automorphism_hits(G, tuples, p)
            assert set(np.unique(hits)) <= {0, naut}
            assert np.array_equal(naut * graphs._cycles_vanish(C, tuples, p), hits)

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
    def test_batched_coloring_matches_scalar_lift_counts(self, name):
        G = SWEEP_GRAPHS[name]
        plan = graphs._coloring_plan(G)
        assert plan.comps == G.b0
        for p in range(1, 6 if len(G.edges) == 3 else 4):
            tuples = _all_tuples(G, p)
            lifts = np.where(graphs._colorable(plan, tuples, p), p ** plan.comps, 0)
            for row, lift in zip(tuples.tolist(), lifts.tolist()):
                H = G.with_beads(row)
                assert lift == count_admissible(H, p) == _brute_lift_count(H, p), (row, p)

    def test_chunks_enumerate_in_product_order(self, monkeypatch):
        monkeypatch.setattr(graphs, "_CHUNK", 7)
        for p, E in ((3, 3), (2, 6), (5, 2), (1, 4)):
            blocks = list(graphs._bead_chunks(p, E, None, None))
            assert all(b.shape[0] <= 7 for b in blocks)
            got = np.concatenate(blocks).tolist()
            assert got == [list(t) for t in product(range(p), repeat=E)]

    def test_samples_keep_the_draw_order(self, monkeypatch):
        monkeypatch.setattr(graphs, "_CHUNK", 7)
        draws = random.Random(5)
        want = [[draws.randrange(7) for _ in range(6)] for _ in range(50)]
        got = np.concatenate(list(graphs._bead_chunks(7, 6, 50, random.Random(5))))
        assert got.tolist() == want

    def test_sweep_across_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(graphs, "_CHUNK", 7)
        assert liftres_sweep(SWEEP_GRAPHS["theta-eyes"], 3) == (729, 0)

    def test_theta_cubed_exhaustive(self):
        assert liftres_sweep(disjoint_union(THETA, THETA, THETA), 3) == (19683, 0)

    def test_dropping_one_edges_checks_is_detected(self, monkeypatch):
        G = SWEEP_GRAPHS["theta-theta"]
        plan = graphs._coloring_plan(G)
        tree = {e for _, _, e, _ in plan.sets}
        cotree = sorted(set(range(len(G.edges))) - tree)
        assert len(cotree) == G.b1
        for k in cotree:
            partial = plan._replace(checks=[c for c in plan.checks if c[2] != k])
            monkeypatch.setattr(graphs, "_coloring_plan", lambda G, partial=partial: partial)
            cases, failures = liftres_sweep(G, 4)
            assert cases == 4 ** 6 and failures > 0, k

    @pytest.mark.parametrize("corrupt", ["entry", "scale"])
    def test_corrupted_automorphism_tensor_raises(self, monkeypatch, corrupt):
        G = SWEEP_GRAPHS["theta-theta"]
        nonforest, _ = fundamental_cycles(G)
        forest_edge = min(set(range(len(G.edges))) - set(nonforest))
        tensor = graphs._aut_cycle_matrices

        def corrupted(C, auts):
            D = tensor(C, auts)
            if corrupt == "entry":
                D[5, 0, forest_edge] += 1  # D[a] leaves the row space of C
            else:
                D[5] *= 2  # D[a] = (2 U_a) C, and det(2 U_a) = 16
            return D

        monkeypatch.setattr(graphs, "_aut_cycle_matrices", corrupted)
        monkeypatch.setattr(graphs, "_CERTIFIED", {})  # certify afresh
        with pytest.raises(ArithmeticError):
            liftres_sweep(G, 2)
        assert graphs._CERTIFIED == {}

    def test_certificate_checked_once_per_topology(self, monkeypatch):
        calls = []
        tensor = graphs._aut_cycle_matrices

        def counted(C, auts):
            calls.append(len(auts))
            return tensor(C, auts)

        monkeypatch.setattr(graphs, "_aut_cycle_matrices", counted)
        monkeypatch.setattr(graphs, "_CERTIFIED", {})
        G = SWEEP_GRAPHS["theta-theta"]
        for p in (2, 3, 4):
            assert liftres_sweep(G, p) == (p ** 6, 0)
        assert liftres_sweep(G.with_beads([1, 2, 3, 4, 5, 6]), 5, max_cases=50,
                             rng=random.Random(2)) == (50, 0)
        assert calls == [len(automorphisms(G))]
        C = graphs._certified_cycle_matrix(G)
        assert graphs._certified_cycle_matrix(BeadedGraph.from_json(G.to_json())) is C
        with pytest.raises(ValueError):
            C[0, 0] = 7  # read-only: no caller can corrupt the kept certificate
        assert liftres_sweep(THETA, 3) == (27, 0)
        assert len(calls) == 2 and len(graphs._CERTIFIED) == 2

    def test_no_per_tuple_graphs_or_lift_counts(self, monkeypatch):
        counts = {"count_admissible": 0, "BeadedGraph": 0}
        scalar, init = graphs.count_admissible, BeadedGraph.__init__

        def counted_scalar(G, p):
            counts["count_admissible"] += 1
            return scalar(G, p)

        def counted_init(self, *args, **kwargs):
            counts["BeadedGraph"] += 1
            init(self, *args, **kwargs)

        G = SWEEP_GRAPHS["theta-theta"]
        monkeypatch.setattr(graphs, "count_admissible", counted_scalar)
        monkeypatch.setattr(BeadedGraph, "__init__", counted_init)
        assert liftres_sweep(G, 3) == (729, 0)
        assert liftres_sweep(G, 5, max_cases=100, rng=random.Random(1)) == (100, 0)
        assert counts == {"count_admissible": 0, "BeadedGraph": 0}


class TestSweepLimits:
    @pytest.mark.parametrize("bad", [0, -3])
    def test_max_cases_below_one(self, bad, rng):
        with pytest.raises(ValueError, match="max_cases"):
            liftres_sweep(THETA, 3, max_cases=bad, rng=rng)

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_cli_max_cases_below_one(self, capsys, bad):
        code = main(["liftres", "--graph", "theta", "--p", "3", "--max-cases", bad])
        err = capsys.readouterr().err
        assert code == 2
        assert "max_cases" in err and "matmul" not in err

    @pytest.mark.parametrize("p", [0, 2 ** 63 // 5, 2 ** 64])
    def test_p_outside_the_int64_range(self, capsys, p, rng):
        with pytest.raises(ValueError, match="p must lie"):
            liftres_sweep(THETA, p, max_cases=10, rng=rng)
        if p:
            assert main(["liftres", "--graph", "theta", "--p", str(p), "--max-cases", "10"]) == 2
            assert "p must lie" in capsys.readouterr().err

    def test_largest_p_in_range(self, rng):
        p = 2 ** 63 // 5 - 1
        assert liftres_sweep(THETA, p, max_cases=200, rng=rng) == (200, 0)
        plan, C = graphs._coloring_plan(THETA), graphs._certified_cycle_matrix(THETA)
        beads = np.array([[p - 1, p - 1, p - 1], [0, p - 1, 1]], dtype=np.int64)
        assert graphs._colorable(plan, beads, p).tolist() == [True, False]
        assert graphs._cycles_vanish(C, beads, p).tolist() == [True, False]

    def test_cap_admits_theta_cubed_at_5_only(self):
        assert 5 ** 9 <= graphs._SWEEP_CAP < 7 ** 9

    def test_oversized_sweeps_refused_before_work(self, monkeypatch, rng):
        def no_work(G):
            raise AssertionError("the sweep started work")

        monkeypatch.setattr(graphs, "automorphisms", no_work)
        monkeypatch.setattr(graphs, "_coloring_plan", no_work)
        G = disjoint_union(THETA, THETA, THETA)
        with pytest.raises(ValueError, match="--max-cases"):
            liftres_sweep(G, 7)
        with pytest.raises(ValueError, match="--max-cases"):
            liftres_sweep(G, 7, max_cases=graphs._SWEEP_CAP + 1, rng=rng)

    def test_cli_refuses_theta_cubed_at_7(self, capsys, monkeypatch, tmp_path):
        def no_work(G):
            raise AssertionError("the sweep started work")

        monkeypatch.setattr(graphs, "automorphisms", no_work)
        f = tmp_path / "theta3.json"
        f.write_text(json.dumps(disjoint_union(THETA, THETA, THETA).to_json()))
        code = main(["liftres", "--file", str(f), "--p", "7"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--max-cases" in captured.err
