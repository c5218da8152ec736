"""Beaded trivalent graphs: lifts, automorphisms, symbols, residues."""

from itertools import product

import pytest

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
    push_at_vertex,
    res_p_graph,
    theta_graph,
)


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
        assert G.is_beadless

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
        assert not G.is_beadless

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
