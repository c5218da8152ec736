"""Beaded trivalent graphs: lifts, automorphisms, symbols, residues."""

import json
import random
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

import knotcovers.graphs as graphs
from knotcovers.cli import main
from knotcovers.graphs import (
    BeadedGraph,
    Edge,
    GraphAut,
    automorphisms,
    count_admissible,
    disjoint_union,
    eyes_graph,
    fundamental_cycles,
    liftres_check,
    liftres_sweep,
    phi_R,
    res_p_graph,
    theta_graph,
)
from knotcovers.lambdamat import rational_det


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


def _signed_rows(auts):
    """The automorphisms' edge permutations and flips (0 or 1) as int8
    rows, the arrays ``_aut_cycle_matrices`` reads."""
    eperm = np.array([aut.eperm for aut in auts], dtype=np.int8)
    return eperm, np.array([aut.flips for aut in auts], dtype=np.int8)


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


def cycle_monodromies(beads, cycles):
    """The monodromy of each cycle (a map edge -> signed multiplicity) under
    a bead labeling: the signed sum of its beads."""
    return tuple(sum(c * beads[e] for e, c in cyc.items()) for cyc in cycles)


def _phi_by_push(G):
    """Oracle for ``phi_R``: push the beads through every automorphism
    (edge e's bead lands on eperm[e], negated when e is flipped) and read
    the cycle monodromies of the pushed labeling, per call (the
    production route before the pulled-back cycles were kept per
    topology)."""
    _, cycles = fundamental_cycles(G)
    auts = automorphisms(G)
    beads = G.beads
    hits = {}
    for aut in auts:
        pushed = [0] * len(beads)
        for e, m in enumerate(beads):
            pushed[aut.eperm[e]] = -m if aut.flips[e] else m
        exps = cycle_monodromies(pushed, cycles)
        hits[exps] = hits.get(exps, 0) + 1
    return {k: Fraction(v, len(auts)) for k, v in hits.items()}


def _pulled_cycles_by_loop(n, ends, auts):
    """Oracle for ``_pulled_cycles``: the per-automorphism, per-cycle,
    per-edge loop over ``GraphAut`` tuples that built the pulled cycles
    before they were read from the automorphism arrays.  Per automorphism,
    its b1 pulled cycles, each the pairs (e, c) with c = +-C[i][eperm[e]],
    - when it flips e, in edge order."""
    G = BeadedGraph.__new__(BeadedGraph)  # the key need not be trivalent
    G.n_vertices, G.edges = n, tuple(Edge(tail, head, 0) for tail, head in ends)
    _, cycles = fundamental_cycles(G)
    return [[tuple((e, -cyc[f] if flip else cyc[f])
                   for e, (f, flip) in enumerate(zip(aut.eperm, aut.flips)) if f in cyc)
             for cyc in cycles]
            for aut in auts]


def _reference_sample(rng, p, E, n):
    """Independent re-implementation of the sampling recipe in Python ints,
    one word at a time: a word is the fewest of 1, 2, 4 or 8 bytes that
    holds p, read little-endian off the stream of ``rng.randbytes`` taken 4
    bytes at a time, rejected when at or above the largest multiple of p
    the word holds, else reduced mod p; n tuples of E such draws, as rows."""
    width = next(w for w in (1, 2, 4, 8) if p < 256 ** w)
    bound = 256 ** width - 256 ** width % p
    stream, draws = b"", []
    while len(draws) < n * E:
        while len(stream) < width:
            stream += rng.randbytes(4)
        word, stream = int.from_bytes(stream[:width], "little"), stream[width:]
        if word < bound:
            draws.append(word % p)
    return [draws[i * E:(i + 1) * E] for i in range(n)]


class _UnitRandom(random.Random):
    """A ``random.Random`` that records the size of every ``randbytes``
    request and refuses one that is not a whole number of 4-byte units,
    the only sizes whose bytes concatenate to one stream."""

    def __init__(self, seed):
        super().__init__(seed)
        self.requests = []

    def randbytes(self, n):
        assert n % 4 == 0, n
        self.requests.append(n)
        return super().randbytes(n)


class _Bytes:
    """An rng stand-in whose ``randbytes`` serves fixed bytes in order and
    records the size of each request, which must be a multiple of 4."""

    def __init__(self, data):
        self.data, self.calls = bytes(data), []

    def randbytes(self, nbytes):
        assert nbytes % 4 == 0, nbytes
        self.calls.append(nbytes)
        take, self.data = self.data[:nbytes], self.data[nbytes:]
        return take


def _block_bytes(tuples, p, E):
    """The ``_BLOCK_BYTES`` that makes blocks of the given tuples at (p, E)."""
    return tuples * max(E, 1) * np.min_scalar_type(-(E + 2) * p).itemsize


def _signed_order_by_powers(aut):
    """Oracle for ``_signed_order``: multiply the signed permutation matrix
    P_a (P[eperm[e], e] = -1 if flipped else 1) by itself until it is I."""
    E = len(aut.eperm)
    P = np.zeros((E, E), dtype=np.int64)
    for e, (f, flip) in enumerate(zip(aut.eperm, aut.flips)):
        P[f, e] = -1 if flip else 1
    power, k = P, 1
    while not np.array_equal(power, np.eye(E, dtype=np.int64)):
        power, k = power @ P, k + 1
    return k


def _forest_walk_cycles(G, forest):
    """Oracle for ``fundamental_cycles``: a depth-first walk of the given
    spanning forest alone, from the lowest unvisited vertex, keeping the
    signed forest path to each vertex; ValueError unless the forest is
    acyclic and spans every component of G."""
    forest = sorted(set(forest))
    n = G.n_vertices
    adj = [[] for _ in range(n)]
    for idx in forest:
        e = G.edges[idx]
        if e.tail == e.head:
            raise ValueError("a loop cannot belong to a forest")
        adj[e.tail].append((e.head, idx, +1))
        adj[e.head].append((e.tail, idx, -1))
    pathvec = [None] * n
    roots = 0
    for start in range(n):
        if pathvec[start] is not None:
            continue
        pathvec[start] = {}
        roots += 1
        stack = [start]
        while stack:
            v = stack.pop()
            for w, idx, sgn in adj[v]:
                if pathvec[w] is None:
                    vec = dict(pathvec[v])
                    vec[idx] = vec.get(idx, 0) + sgn
                    pathvec[w] = vec
                    stack.append(w)
    # acyclic: |forest| = V - (forest components); spanning: those
    # components coincide with the graph components
    if len(forest) != n - roots or roots != G.b0:
        raise ValueError("not a spanning forest")
    nonforest = [i for i in range(len(G.edges)) if i not in set(forest)]
    cycles = []
    for idx in nonforest:
        e = G.edges[idx]
        vec = {idx: 1}
        for k, s in pathvec[e.tail].items():
            vec[k] = vec.get(k, 0) + s
        for k, s in pathvec[e.head].items():
            vec[k] = vec.get(k, 0) - s
        cycles.append({k: s for k, s in vec.items() if s})
    return nonforest, cycles


def _random_multigraph(rng, max_vertices):
    """A trivalent multigraph of 1..3 components, each a random matching of
    the 3V half-edges of V = 2, 4, ... vertices (loops and parallel edges
    come up often), randomly oriented and beaded, with the vertex labels
    and the edge order of the union shuffled."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        V = 2 * rng.randint(1, max_vertices // 2)
        halves = [v for v in range(V) for _ in range(3)]
        rng.shuffle(halves)
        parts.append(BeadedGraph(V, [(a, b, rng.randint(-3, 3))
                                     for a, b in zip(halves[::2], halves[1::2])]))
    G = disjoint_union(*parts)
    label = list(range(G.n_vertices))
    rng.shuffle(label)
    edges = [(label[e.tail], label[e.head], e.bead) for e in G.edges]
    rng.shuffle(edges)
    return BeadedGraph(G.n_vertices, edges)


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

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, "1", None])
    @pytest.mark.parametrize("field", ["vertices", "from", "to", "bead"])
    def test_from_json_takes_only_json_ints(self, field, bad):
        # int() would truncate 1.5 to 1 and accept True and "1", sweeping a
        # graph nobody wrote
        obj = theta_graph().to_json()
        if field == "vertices":
            obj[field] = bad
        else:
            obj["edges"][1][field] = bad
        with pytest.raises(ValueError, match="'%s' must be an integer" % field):
            BeadedGraph.from_json(obj)


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

    def test_any_p_in_python_ints(self):
        # far past int64: the scalar count replays the plan on Python ints
        p = 2 ** 70 + 1
        for a in (0, 7, -3, 2 ** 80):
            assert count_admissible(theta_graph(a, a + p, a - p), p) == p
            assert count_admissible(theta_graph(a, a + p + 1, a - p), p) == 0
            assert count_admissible(theta_graph(a, a + p, a - p - 1), p) == 0
        G = disjoint_union(theta_graph(1, 1 + p, 1 - p), eyes_graph(p, 5, -p))
        assert count_admissible(G, p) == p ** 2
        with pytest.raises(ValueError):
            count_admissible(THETA, 0)

    def test_replays_the_coloring_plan(self, monkeypatch):
        # the plan is the one walk: drop one cotree edge's checks and the
        # count on a tuple that violates only that edge must change
        G = SWEEP_GRAPHS["theta-theta"]
        plan = graphs._coloring_plan(G)
        tree = {e for _, _, e, _ in plan.sets}
        cotree = sorted(set(range(len(G.edges))) - tree)
        assert len(cotree) == G.b1
        for k in cotree:
            H = G.with_beads([1 if e == k else 0 for e in range(len(G.edges))])
            assert count_admissible(H, 4) == 0
            partial = plan._replace(checks=[c for c in plan.checks if c[2] != k])
            with monkeypatch.context() as m:
                m.setattr(graphs, "_coloring_plan", lambda G, partial=partial: partial)
                assert count_admissible(H, 4) == 16, k


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


def _brute_automorphisms(G):
    """Oracle: every vertex permutation, edge bijection and flip tuple whose
    every edge, reversed when flipped, lands on its image's incidences.  The
    condition is one test per edge, so the flip tuples that pass are the
    product of the flips each edge passes with."""
    E = len(G.edges)
    out = set()
    for vperm in permutations(range(G.n_vertices)):
        for eperm in permutations(range(E)):
            per_edge = []
            for e, f in zip(G.edges, (G.edges[i] for i in eperm)):
                image = (vperm[e.tail], vperm[e.head])
                per_edge.append([fl for fl in (False, True)
                                 if image == ((f.head, f.tail) if fl else (f.tail, f.head))])
            out.update(GraphAut(vperm, eperm, flips) for flips in product(*per_edge))
    return out


# multigraphs with E <= 6, loops and parallel edges in mixed orientation
ORACLE_GRAPHS = {
    "theta": THETA,
    "theta-mixed": BeadedGraph(2, [(0, 1, 0), (1, 0, 0), (0, 1, 0)]),
    "eyes": EYES,
    "eyes-reversed-bridge": BeadedGraph(2, [(0, 0, 0), (1, 0, 0), (1, 1, 0)]),
    "theta-theta": SWEEP_GRAPHS["theta-theta"],
    "theta-eyes": SWEEP_GRAPHS["theta-eyes"],
    "eyes-eyes": disjoint_union(EYES, eyes_graph()),
    "K4-mixed": BeadedGraph(4, [(0, 1, 0), (2, 0, 0), (0, 3, 0), (1, 2, 0), (3, 1, 0), (2, 3, 0)]),
    "double-edge-4-cycle": BeadedGraph(4, [(0, 1, 0), (1, 0, 0), (1, 2, 0), (2, 3, 0), (3, 2, 0),
                                           (3, 0, 0)]),
    "loop-and-double-edge": BeadedGraph(4, [(0, 0, 0), (0, 1, 0), (1, 2, 0), (1, 3, 0), (2, 3, 0),
                                            (3, 2, 0)]),
    "two-loops-double-middle": BeadedGraph(4, [(0, 0, 0), (0, 1, 0), (1, 2, 0), (2, 1, 0),
                                               (2, 3, 0), (3, 3, 0)]),
}


def _automorphisms_by_choice(n, ends):
    """Oracle for ``_aut_arrays``: the per-choice loop that built the
    automorphisms one ``GraphAut`` at a time before the arrays.  Per vertex
    permutation carrying each class of edges with equal unordered endpoints
    onto one of the same size, every choice of a bijection per class, a
    loop either way round, any other edge reversed exactly when the image
    of its tail is not its image's tail."""
    classes = {}
    for idx, (tail, head) in enumerate(ends):
        classes.setdefault((min(tail, head), max(tail, head)), []).append(idx)
    out = []
    for vperm in permutations(range(n)):
        per_class = []
        for (a, b), src in sorted(classes.items()):
            tgt = classes.get((min(vperm[a], vperm[b]), max(vperm[a], vperm[b])), ())
            if len(tgt) != len(src):
                break
            opts = []
            for assign in permutations(tgt):
                if a == b:
                    opts += [(src, assign, fl) for fl in product((False, True), repeat=len(src))]
                else:
                    opts.append((src, assign, tuple(vperm[ends[e][0]] != ends[f][0]
                                                    for e, f in zip(src, assign))))
            per_class.append(opts)
        else:
            for choice in product(*per_class):
                eperm, flips = [0] * len(ends), [False] * len(ends)
                for src, assign, fl in choice:
                    for e, f, x in zip(src, assign, fl):
                        eperm[e], flips[e] = f, x
                out.append(GraphAut(vperm, tuple(eperm), tuple(flips)))
    return out


CUBE = BeadedGraph(8, [(0, 1, 0), (1, 3, 0), (3, 2, 0), (2, 0, 0), (4, 5, 0), (5, 7, 0),
                       (7, 6, 0), (6, 4, 0), (0, 4, 0), (1, 5, 0), (2, 6, 0), (3, 7, 0)])
# topology keys (vertex count, edge ends); the last two are not trivalent,
# but the search reads only the key: a loop class of two, and three
# parallel edges in mixed orientation
AUT_TOPOLOGIES = {
    **{name: graphs._topology(G) for name, G in SWEEP_GRAPHS.items()},
    "theta3": graphs._topology(disjoint_union(THETA, THETA, THETA)),
    "cube": graphs._topology(CUBE),
    "two-loops-at-one-vertex": (1, ((0, 0), (0, 0))),
    "triple-edge": (2, ((0, 1), (1, 0), (0, 1))),
}


class TestAutomorphismArrays:
    @pytest.mark.parametrize("name", sorted(AUT_TOPOLOGIES))
    def test_rows_match_the_per_choice_loop(self, name):
        # the same automorphisms in the same order, as read-only int8 rows,
        # and automorphisms() still returns them as the same GraphAut tuples
        n, ends = AUT_TOPOLOGIES[name]
        want = _automorphisms_by_choice(n, ends)
        arrays = graphs._aut_arrays(n, ends)
        assert all(a.dtype == np.int8 and not a.flags.writeable for a in arrays)
        vperm, eperm, flips = (a.tolist() for a in arrays)
        assert vperm == [list(a.vperm) for a in want]
        assert eperm == [list(a.eperm) for a in want]
        assert flips == [[int(x) for x in a.flips] for a in want]
        assert graphs._automorphisms(n, ends) == tuple(want)
        expected = {"theta": 12, "eyes": 8, "theta-theta": 288, "theta-eyes": 96,
                    "theta3": 10368, "cube": 48, "two-loops-at-one-vertex": 8, "triple-edge": 12}
        assert len(want) == expected[name]

    def test_cube_is_searched_at_the_vertex_cap(self):
        assert CUBE.n_vertices == graphs._VERTEX_CAP
        assert all(type(x) is bool for aut in automorphisms(CUBE) for x in aut.flips)
        with pytest.raises(graphs.TooLarge):
            automorphisms(disjoint_union(CUBE, THETA))
        with pytest.raises(graphs.TooLarge):
            liftres_sweep(disjoint_union(CUBE, THETA), 2, max_cases=10, rng=random.Random(1))


class TestAutomorphismOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_matches_brute_force(self, name):
        G = ORACLE_GRAPHS[name]
        auts = automorphisms(G)
        assert len(set(auts)) == len(auts)
        assert set(auts) == _brute_automorphisms(G)


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
        # rotating theta's edge list puts each of its edges first, where the
        # plan's walk takes it into the forest
        for beads in product(range(3), repeat=3):
            edges = [(0, 1, m) for m in beads]
            for p in (2, 3, 5):
                vals = set()
                for k in range(3):
                    G = BeadedGraph(2, edges[k:] + edges[:k])
                    assert fundamental_cycles(G)[0] == [1, 2]
                    vals.add(res_p_graph(phi_R(G), G, p))
                assert vals == {count_admissible(G, p)}, (beads, p)

    def test_cycles_match_the_forest_walk(self):
        # the cycles read off the plan's walk against a second walk over the
        # plan's forest alone, on multigraphs with loops, parallel edges and
        # interleaved components
        rng = random.Random(26)
        for _ in range(400):
            G = _random_multigraph(rng, 10)
            forest = [e for _, _, e, _ in graphs._coloring_plan(G).sets]
            assert fundamental_cycles(G) == _forest_walk_cycles(G, forest), G

    def test_random_multigraphs_satisfy_the_identity(self):
        # the residue over the plan's cycles against the lift count, where
        # automorphisms are cheap enough (V <= 6): random beads, which mostly
        # do not lift, and color differences mod p, which always do
        rng = random.Random(2026)
        for _ in range(40):
            G = _random_multigraph(rng, 6)
            if G.n_vertices > 6:
                continue
            for p in (2, 3):
                color = [rng.randrange(p) for _ in range(G.n_vertices)]
                lifting = G.with_beads([color[e.head] - color[e.tail] + p * rng.randint(-2, 2)
                                        for e in G.edges])
                assert count_admissible(lifting, p) == p ** G.b0
                for H in (G, lifting):
                    assert liftres_check(H, p), (H, p)

    @pytest.mark.parametrize("name", ["theta", "eyes", "theta-theta", "theta-eyes",
                                      "theta-theta-theta"])
    def test_phi_matches_the_per_automorphism_push(self, name, rng):
        G = SWEEP_GRAPHS.get(name) or disjoint_union(THETA, THETA, THETA)
        for _ in range(40 if len(G.edges) < 9 else 3):
            H = G.with_beads([rng.randint(-7, 7) for _ in G.edges])
            assert phi_R(H) == _phi_by_push(H)
        assert phi_R(G) == {(0,) * G.b1: 1}

    @pytest.mark.parametrize("name", sorted(AUT_TOPOLOGIES) + ["edgeless"])
    def test_pulled_cycles_match_the_per_automorphism_loop(self, name):
        # the same pulled cycles per automorphism, cycle by cycle, from the
        # arrays as from the loop over the GraphAut tuples in the same order
        n, ends = AUT_TOPOLOGIES.get(name, (0, ()))
        vectors, auts = graphs._pulled_cycles(n, ends)
        want = _pulled_cycles_by_loop(n, ends, _automorphisms_by_choice(n, ends))
        assert len(auts) == len(want) and len(set(vectors)) == len(vectors)
        assert [[vectors[i] for i in idx] for idx in auts] == want

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS) + ["theta-theta-theta", "edgeless"])
    def test_phi_matches_the_push_on_large_signed_beads(self, name, rng):
        G = {**SWEEP_GRAPHS, "theta-theta-theta": disjoint_union(THETA, THETA, THETA),
             "edgeless": BeadedGraph(0, [])}[name]
        for bound in (1, 9, 2 ** 40, 2 ** 200):
            H = G.with_beads([rng.randint(-bound, bound) for _ in G.edges])
            assert phi_R(H) == _phi_by_push(H), (name, bound)

    def test_pulled_cycles_kept_once_per_topology(self):
        graphs._pulled_cycles.cache_clear()
        for beads in ([1, 2, 3], [0, -4, 5], [7, 7, 7]):
            phi_R(THETA.with_beads(beads))
        phi_R(BeadedGraph.from_json(THETA.to_json()))
        info = graphs._pulled_cycles.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)

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
        assert np.array_equal(graphs._aut_cycle_matrices(C, *_signed_rows(auts)), want)

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
    def test_residue_side_matches_per_automorphism_loop(self, name):
        G = SWEEP_GRAPHS[name]
        naut = len(automorphisms(G))
        C = graphs._certified_cycle_matrix(G)
        for p in range(1, 6):
            tuples = _all_tuples(G, p)
            hits = _per_automorphism_hits(G, tuples, p)
            assert set(np.unique(hits)) <= {0, naut}
            assert np.array_equal(naut * graphs._cycles_vanish(C, tuples.T, p), hits)

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
    def test_batched_coloring_matches_scalar_lift_counts(self, name):
        G = SWEEP_GRAPHS[name]
        plan = graphs._coloring_plan(G)
        assert plan.comps == G.b0
        for p in range(1, 6 if len(G.edges) == 3 else 4):
            tuples = _all_tuples(G, p)
            lifts = np.where(graphs._colorable(plan, tuples.T, p), p ** plan.comps, 0)
            for row, lift in zip(tuples.tolist(), lifts.tolist()):
                H = G.with_beads(row)
                assert lift == count_admissible(H, p) == _brute_lift_count(H, p), (row, p)

    @pytest.mark.parametrize("name", sorted(set(ORACLE_GRAPHS) - set(SWEEP_GRAPHS)))
    def test_batched_coloring_on_longer_walks(self, name):
        # four vertices to a component: a check's difference can reach +-p,
        # which _colorable's mod-free test must count as 0 mod p
        G = ORACLE_GRAPHS[name]
        plan = graphs._coloring_plan(G)
        for p in (2, 3, 4):
            tuples = _all_tuples(G, p)
            want = [count_admissible(G.with_beads(row), p) > 0 for row in tuples.tolist()]
            assert graphs._colorable(plan, tuples.T, p).tolist() == want
            assert liftres_sweep(G, p) == (p ** len(G.edges), 0)

    def test_chunks_enumerate_in_product_order(self, monkeypatch):
        for p, E in ((3, 3), (2, 6), (5, 2), (1, 4), (3, 0)):
            monkeypatch.setattr(graphs, "_BLOCK_BYTES", _block_bytes(7, p, E))
            blocks = list(graphs._bead_chunks(p, E, None, None))
            assert all(b.shape == (E, min(7, b.shape[1])) for b in blocks)
            got = np.concatenate(blocks, axis=1).T.tolist()
            assert got == [list(t) for t in product(range(p), repeat=E)]

    @pytest.mark.parametrize("p", [7, 255, 256, 65535, 65536, 2 ** 32 - 1, 2 ** 32, 3 << 61])
    def test_samples_keep_the_draw_order(self, monkeypatch, p):
        # p on either side of each word width step (1, 2, 4, 8 bytes), so
        # 0-3 spare bytes are carried between blocks; p = 255, 65535 and
        # 3 << 61 reject about a quarter of all words, so the top-up runs.
        # Blocks of 7 and 13 tuples and the production size, each over more
        # than one block, give the same tuples and the same final rng state
        # as one word at a time, asking only for whole 4-byte units
        E = 6
        production = graphs._BLOCK_BYTES // _block_bytes(1, p, E)
        for chunk in (7, 13, production):
            n = 50 if chunk < 50 else chunk + 5
            ref, rng = _UnitRandom(5), _UnitRandom(5)
            want = _reference_sample(ref, p, E, n)
            monkeypatch.setattr(graphs, "_BLOCK_BYTES", _block_bytes(chunk, p, E))
            blocks = list(graphs._bead_chunks(p, E, n, rng))
            assert [b.shape for b in blocks] == [(E, min(chunk, n - i)) for i in range(0, n, chunk)]
            width = np.min_scalar_type(-(E + 2) * p)
            assert all(b.dtype == width and b.flags.c_contiguous for b in blocks)
            assert np.concatenate(blocks, axis=1).T.tolist() == want, (chunk, n, p)
            assert rng.getstate() == ref.getstate()
            assert sum(rng.requests) == sum(ref.requests)

    @pytest.mark.parametrize("name, p", [("theta", 60), ("theta-theta", 6), ("theta-theta", 17),
                                         ("theta", 70000), ("theta", 2 ** 40)])
    def test_blocks_are_sized_in_bytes(self, name, p):
        # a block holds _BLOCK_BYTES of beads at its width: more tuples
        # when narrow, no more bytes when wide; a sample fills every block
        # but the last
        G = SWEEP_GRAPHS[name]
        E = len(G.edges)
        chunk = graphs._BLOCK_BYTES // _block_bytes(1, p, E)
        n = 2 * chunk + 1
        sampled = list(graphs._bead_chunks(p, E, n, random.Random(p)))
        assert [b.shape[1] for b in sampled] == [chunk, chunk, 1]
        assert graphs._BLOCK_BYTES - E * 8 < sampled[0].nbytes <= graphs._BLOCK_BYTES
        if p ** E <= graphs._SWEEP_CAP:
            blocks = list(graphs._bead_chunks(p, E, None, None))
            assert sum(b.shape[1] for b in blocks) == p ** E
            assert all(b.nbytes <= graphs._BLOCK_BYTES for b in blocks)
            assert blocks[0].nbytes > graphs._BLOCK_BYTES // 2

    @pytest.mark.parametrize("name, p, n, width", [
        ("theta", 25, None, np.int8), ("theta", 26, None, np.int16),
        ("theta", 6553, 3000, np.int16), ("theta", 6554, 3000, np.int32),
        ("theta", 429496729, 3000, np.int32), ("theta", 429496730, 3000, np.int64),
        ("theta-theta", 16, 3000, np.int8), ("theta-theta", 17, 3000, np.int16),
        ("theta-eyes", 16, 3000, np.int8), ("theta-eyes", 17, 3000, np.int16),
    ])
    def test_width_boundaries(self, name, p, n, width):
        # a batch is as narrow as (E + 2) p allows, on either side of each
        # step; the kernels on it agree with themselves at int64, also on
        # the extreme tuples of beads 0, 1 and p - 1, which reach the
        # largest sums
        G = SWEEP_GRAPHS[name]
        E = len(G.edges)
        blocks = list(graphs._bead_chunks(p, E, n, random.Random(p)))
        assert {b.dtype for b in blocks} == {np.dtype(width)}
        assert liftres_sweep(G, p, max_cases=n, rng=random.Random(p)) == (n or p ** E, 0)
        plan, C = graphs._coloring_plan(G), graphs._certified_cycle_matrix(G)
        extremes = np.array(list(product((0, 1, p - 1), repeat=E)), dtype=np.int64).T
        assert np.array_equal(graphs._colorable(plan, extremes, p),
                              graphs._cycles_vanish(C, extremes, p))
        for b in blocks + [extremes.astype(width)]:
            wide = b.astype(np.int64)
            assert np.array_equal(graphs._colorable(plan, b, p), graphs._colorable(plan, wide, p))
            assert np.array_equal(graphs._cycles_vanish(C, b, p),
                                  graphs._cycles_vanish(C, wide, p))

    @pytest.mark.parametrize("p", [2, 7, 2 ** 5, 129, 3 << 6, 32769, 3 << 14, 2 ** 31 + 1,
                                   3 << 30, 2 ** 63 // 8 - 1, 3 << 61])
    def test_samples_are_uniform(self, p):
        # chi-square over 16 (or p) bins of equal width, last bin shorter;
        # p = 2^63 // 8 - 1 is the largest p liftres_sweep admits at E = 6;
        # 129, 32769 and 2^31 + 1 reject the most of their word (127 of
        # 256 bytes, and so on), so about half of every draw is topped up;
        # at p = 3 << 6, 3 << 14 and 3 << 30 the word's range is 4p/3, and a
        # sampler without rejection makes the lowest third of the range
        # twice as likely as the rest; at p = 3 << 61, 2^64 = 2p + 2^62, and
        # it makes the lowest two thirds 1.5 times as likely
        n = 3000
        x = np.concatenate(list(graphs._bead_chunks(p, 6, n, random.Random(11))), axis=1).ravel()
        assert x.size == 6 * n and x.min() >= 0 and x.max() <= p - 1
        bins = min(p, 16)
        width = -(-p // bins)
        observed = np.bincount((x // width).astype(np.int64), minlength=bins)
        sizes = [min(width, p - i * width) for i in range(bins)]
        expected = np.array([x.size * s / p for s in sizes])
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        dof = bins - 1
        assert chi2 < dof + 6 * (2 * dof) ** 0.5, (chi2, observed.tolist())

    def test_rejection_boundary_and_top_up(self):
        # p = 7 draws 1-byte words and 256 = 4 mod 7: 251 is the largest
        # word kept, 252 the smallest rejected.  Only the deficit is drawn
        # again, from the byte carried over first: the first top-up reads
        # that byte and asks for nothing, the second asks for one whole
        # 4-byte unit and carries three bytes on
        rng = _Bytes([251, 252, 5, 255, 13, 8, 9, 10, 99])
        (block,) = graphs._bead_chunks(7, 3, 1, rng)
        assert block.tolist() == [[251 % 7], [5], [13 % 7]]
        assert rng.calls == [4, 4] and rng.data == bytes([99])

    def test_cli_sample_is_reproducible(self, capsys):
        argv = ["liftres", "--graph", "theta-eyes", "--p", "7", "--max-cases", "10000",
                "--seed", "17"]
        runs = []
        for _ in range(2):
            assert main(argv + ["--format", "json"]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]
        assert json.loads(runs[0])["rows"] == [[7, 6, 10000, 0]]

    @pytest.mark.parametrize("name", ["theta", "eyes", "theta-theta", "theta-eyes", "theta3"])
    def test_signed_order_matches_powers(self, name):
        # the certificate pairs each automorphism with its inverse in the
        # tuple: the inverse's action is U_a^(k - 1) for the signed order k
        # of a, found by powers of the signed permutation matrix
        G = SWEEP_GRAPHS.get(name) or disjoint_union(THETA, THETA, THETA)
        nonforest, _ = fundamental_cycles(G)
        C = graphs._certified_cycle_matrix(G)
        auts = automorphisms(G)
        U = graphs._aut_cycle_matrices(C, *_signed_rows(auts))[:, :, nonforest]
        step = max(1, len(auts) // 200)  # theta^3 has 10,368: every 52nd
        for a in range(0, len(auts), step):
            k = _signed_order_by_powers(auts[a])
            assert np.array_equal(np.linalg.matrix_power(U[a], k), np.eye(G.b1)), (name, a)
            inv = np.linalg.matrix_power(U[a], k - 1)
            assert (U == inv).all(axis=(1, 2)).any(), (name, a)

    def test_sweep_across_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(graphs, "_BLOCK_BYTES", _block_bytes(7, 3, 6))
        assert liftres_sweep(SWEEP_GRAPHS["theta-eyes"], 3) == (729, 0)
        assert liftres_sweep(SWEEP_GRAPHS["theta-eyes"], 7, max_cases=100,
                             rng=random.Random(4)) == (100, 0)

    def test_theta_cubed_exhaustive(self):
        assert liftres_sweep(disjoint_union(THETA, THETA, THETA), 3) == (19683, 0)

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS) + ["theta3"])
    def test_plan_checks_each_non_forest_edge_once(self, name):
        # theta 2, theta-theta 4, theta^3 6 checks: b1, one per cotree edge,
        # none for a forest edge met again from its other end
        G = ORACLE_GRAPHS.get(name) or disjoint_union(THETA, THETA, THETA)
        plan = graphs._coloring_plan(G)
        edges = [e for _, _, e, _ in plan.sets + plan.checks]
        assert sorted(edges) == list(range(len(G.edges)))
        assert len(plan.sets) == G.n_vertices - G.b0
        assert len(plan.checks) == G.b1, plan.checks

    def test_missing_inverse_raises(self, monkeypatch):
        G = SWEEP_GRAPHS["theta-theta"]
        auts = automorphisms(G)
        dropped = next(i for i, a in enumerate(auts)
                       if _signed_order_by_powers(a) > 2)  # a^-1 != a
        kept = tuple(np.delete(rows, dropped, axis=0)
                     for rows in graphs._aut_arrays(*graphs._topology(G)))
        monkeypatch.setattr(graphs, "_aut_arrays", lambda n, ends: kept)
        graphs._certificate.cache_clear()
        with pytest.raises(ArithmeticError, match="inverse is missing"):
            liftres_sweep(G, 2)
        graphs._certificate.cache_clear()

    def test_a_plan_with_a_repeated_check_is_refused(self, monkeypatch):
        G = SWEEP_GRAPHS["theta-theta"]
        plan = graphs._coloring_plan(G)
        doubled = plan._replace(checks=plan.checks + plan.checks[:1])
        monkeypatch.setattr(graphs, "_coloring_plan", lambda G: doubled)
        with pytest.raises(ArithmeticError, match="non-forest edge once"):
            liftres_sweep(G, 2)

    def test_dropping_one_edges_checks_is_detected(self, monkeypatch):
        G = SWEEP_GRAPHS["theta-theta"]
        plan = graphs._coloring_plan(G)
        tree = {e for _, _, e, _ in plan.sets}
        cotree = sorted(set(range(len(G.edges))) - tree)
        assert len(cotree) == G.b1
        C, tuples = graphs._certified_cycle_matrix(G), _all_tuples(G, 4).T
        for k in cotree:
            # the sweep refuses a plan short of b1 checks before any tuple,
            # and the kernels would tell its lift side from the residue side
            partial = plan._replace(checks=[c for c in plan.checks if c[2] != k])
            monkeypatch.setattr(graphs, "_coloring_plan", lambda G, partial=partial: partial)
            with pytest.raises(ArithmeticError, match="non-forest edge once"):
                liftres_sweep(G, 4)
            lifts = graphs._colorable(partial, tuples, 4)
            assert (lifts != graphs._cycles_vanish(C, tuples, 4)).any(), k

    @pytest.mark.parametrize("corrupt", ["entry", "scale", "shear"])
    def test_corrupted_automorphism_tensor_raises(self, monkeypatch, corrupt):
        G = SWEEP_GRAPHS["theta-theta"]
        nonforest, _ = fundamental_cycles(G)
        forest_edge = min(set(range(len(G.edges))) - set(nonforest))
        tensor = graphs._aut_cycle_matrices
        order = [_signed_order_by_powers(aut) for aut in automorphisms(G)]
        longest = int(np.argmax(order))
        assert order[longest] == 12 > len(G.edges) and order[5] == 2

        def corrupted(C, eperm, flips):
            D = tensor(C, eperm, flips)
            if corrupt == "entry":
                D[5, 0, forest_edge] += 1  # D[a] leaves the row space of C
            elif corrupt == "scale":
                D[5] *= 2  # D[a] = (2 U_a) C, and det(2 U_a) = 16
            else:
                # det shear = 1, but shear^k = I for no k > 0, so no
                # automorphism's action inverts it
                D[longest] = shear @ C
            return D

        shear = np.eye(G.b1, dtype=np.int64)
        shear[0, 1] = 1
        assert rational_det(shear.tolist()) == 1  # a det check alone would pass it

        monkeypatch.setattr(graphs, "_aut_cycle_matrices", corrupted)
        graphs._certificate.cache_clear()  # certify afresh
        match = {"entry": "does not act", "scale": "its inverse's is not I",
                 "shear": "its inverse's is not I"}[corrupt]
        with pytest.raises(ArithmeticError, match=match):
            liftres_sweep(G, 2)
        assert graphs._certificate.cache_info().currsize == 0

    def test_certificate_checked_once_per_topology(self, monkeypatch):
        calls = []
        tensor = graphs._aut_cycle_matrices

        def counted(C, eperm, flips):
            calls.append(len(eperm))
            return tensor(C, eperm, flips)

        monkeypatch.setattr(graphs, "_aut_cycle_matrices", counted)
        graphs._certificate.cache_clear()
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
        assert len(calls) == 2 and graphs._certificate.cache_info().currsize == 2

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
        assert graphs._colorable(plan, beads.T, p).tolist() == [True, False]
        assert graphs._cycles_vanish(C, beads.T, p).tolist() == [True, False]

    def test_cap_admits_theta_cubed_at_5_only(self):
        assert 5 ** 9 <= graphs._SWEEP_CAP < 7 ** 9

    def test_oversized_sweeps_refused_before_work(self, monkeypatch, rng):
        def no_work(*args):
            raise AssertionError("the sweep started work")

        monkeypatch.setattr(graphs, "_aut_arrays", no_work)
        monkeypatch.setattr(graphs, "_coloring_plan", no_work)
        G = disjoint_union(THETA, THETA, THETA)
        with pytest.raises(ValueError, match="--max-cases"):
            liftres_sweep(G, 7)
        with pytest.raises(ValueError, match="--max-cases"):
            liftres_sweep(G, 7, max_cases=graphs._SWEEP_CAP + 1, rng=rng)

    def test_cli_sweeps_the_edgeless_graph(self, capsys, tmp_path):
        # no edges: one empty bead tuple per p, lift count 1 = residue 1
        f = tmp_path / "empty.json"
        f.write_text(json.dumps({"vertices": 0, "edges": []}))
        code = main(["liftres", "--file", str(f), "--p", "2..5", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["rows"] == [[p, 0, 1, 0] for p in range(2, 6)]
        assert all(liftres_check(BeadedGraph(0, []), p) for p in range(2, 6))

    def test_cli_refuses_theta_cubed_at_7(self, capsys, monkeypatch, tmp_path):
        def no_work(*args):
            raise AssertionError("the sweep started work")

        monkeypatch.setattr(graphs, "_aut_arrays", no_work)
        f = tmp_path / "theta3.json"
        f.write_text(json.dumps(disjoint_union(THETA, THETA, THETA).to_json()))
        code = main(["liftres", "--file", str(f), "--p", "7"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--max-cases" in captured.err
