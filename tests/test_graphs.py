"""Beaded trivalent graphs: lifts, automorphisms, symbols, residues."""

import json
import random
import re
from fractions import Fraction
from itertools import permutations, product
from math import prod

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
    rows, the arrays ``_aut_cycle_matrices`` and ``_array_certificate``
    read."""
    eperm = np.array([aut.eperm for aut in auts], dtype=np.int8)
    return eperm, np.array([aut.flips for aut in auts], dtype=np.int8)


def _aut_arrays(n, ends):
    """Oracle for ``_automorphisms``: the automorphisms of a topology as
    int8 arrays, one row each -- vertex permutations (A x n), edge images
    eperm (A x E) and flips (A x E, 1 for a reversed edge) -- built without
    a per-automorphism loop, as the production route did before the class
    options were walked in plain Python.  Per vertex permutation (in
    ``permutations`` order) the options of each class (its bijections in
    ``permutations`` order, a loop class's flips in ``product`` order under
    each) are crossed by one ``np.indices`` grid, the last class fastest."""
    E = len(ends)
    classes = {}
    for idx, (tail, head) in enumerate(ends):
        classes.setdefault((min(tail, head), max(tail, head)), []).append(idx)
    # per class: its bijections onto it, and for a loop class the options
    # (bijection, flips) with the flips of each bijection listed under it;
    # for any other class, the heads of its bijections' edges
    options = {}
    for (a, b), tgt in classes.items():
        assign = np.array(list(permutations(tgt)), dtype=np.int8).reshape(-1, len(tgt))
        if a == b:
            k = len(tgt)
            fl = np.indices((2,) * k, dtype=np.int8).reshape(k, 2 ** k).T
            options[a, b] = (np.repeat(assign, 2 ** k, axis=0), np.tile(fl, (len(assign), 1)))
        else:
            heads = [[ends[f][1] for f in perm] for perm in permutations(tgt)]
            options[a, b] = (assign, np.array(heads, dtype=np.int8))
    order = sorted(classes.items())
    vblocks, eblocks, fblocks = [], [], []
    for vperm in permutations(range(n)):
        opts = []
        for (a, b), src in order:
            key = (min(vperm[a], vperm[b]), max(vperm[a], vperm[b]))
            if len(classes.get(key, ())) != len(src):
                break
            assign, fl = options[key]
            if a != b:
                # an edge is reversed iff the image of its tail is its
                # image's head
                fl = (fl == np.array([vperm[ends[e][0]] for e in src], dtype=np.int8)).view(np.int8)
            opts.append((src, assign, fl))
        else:
            sizes = [len(assign) for _, assign, _ in opts]
            count = prod(sizes)
            pick = np.indices(sizes).reshape(len(sizes), count)
            eperm = np.empty((count, E), dtype=np.int8)
            flips = np.empty((count, E), dtype=np.int8)
            for (src, assign, fl), row in zip(opts, pick):
                eperm[:, src] = assign[row]
                flips[:, src] = fl[row]
            vblocks.append(np.broadcast_to(np.array(vperm, dtype=np.int8), (count, n)))
            eblocks.append(eperm)
            fblocks.append(flips)
    return tuple(np.concatenate(blocks) for blocks in (vblocks, eblocks, fblocks))


def _aut_cycle_matrices(C, eperm, flips):
    """Integer tensor D[a][i][e] with the property that the i-th cycle
    monodromy of the beads pushed forward by automorphism a equals
    sum_e D[a][i][e] * bead_e, for the cycle matrix C[i][e] (int64) and the
    automorphisms' edge permutations eperm[a] and flips[a] (0 or 1)."""
    return C[:, eperm].transpose(1, 0, 2) * (1 - 2 * flips[:, None, :])


def _array_certificate(n, ends, eperm, flips, tensor=_aut_cycle_matrices):
    """The tests' instance of ``_cycle_basis``'s theorem, over the whole
    group.  With C (int64) the fundamental cycles of the topology and
    D = tensor(C, eperm, flips), it checks D[a] == U_a C for U_a the
    non-forest columns of D[a], and U_a U_b = I for the inverse b of a,
    found among the same rows by a key lookup: an integral inverse, hence
    det U_a = +-1.  Returns C; ArithmeticError if any automorphism fails or
    its inverse is missing."""
    nonforest, cycles = fundamental_cycles(graphs._beadless(n, ends))
    E = len(ends)
    C = np.array([[cyc.get(e, 0) for e in range(E)] for cyc in cycles],
                 dtype=np.int64).reshape(len(cycles), E)
    D = tensor(C, eperm, flips)
    U = D[:, :, nonforest]
    if not np.array_equal(D, U @ C):
        raise ArithmeticError("an automorphism does not act on the cycle lattice")
    # each signed permutation is keyed by one integer, the base-2E number
    # with digits 2 eperm[e] + flips[e]; a^-1 moves edge eperm[e] back to
    # e, flipped as a flips e, so its digit at f is own[e] = 2e + flips[e]
    # for e = argsort(eperm)[f].  With no edges, the one key 0 comes back
    # as a scalar
    radix = (2 * E,) * E
    keys = np.ravel_multi_index((2 * eperm + flips).T, radix).reshape(-1)
    index = dict(zip(keys.tolist(), range(len(eperm))))
    own = 2 * np.arange(E, dtype=np.int8) + flips
    back = np.take_along_axis(own, np.argsort(eperm, axis=1), axis=1)
    back_keys = np.ravel_multi_index(back.T, radix).reshape(-1)
    inverse = [index.get(key, -1) for key in back_keys.tolist()]
    if -1 in inverse:
        raise ArithmeticError("an automorphism's inverse is missing from the group")
    if not (U @ U[inverse] == np.eye(len(nonforest), dtype=np.int64)).all():
        raise ArithmeticError("an automorphism's action times its inverse's is not I")
    return C


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


def _assert_oracles_agree(G, p):
    """The lift count and the residue agree on every tuple of {0..p-1}^E
    by the oracles: the plan replayed on all tuples at once (and, up to
    4,096 tuples, the scalar lift count) on one side, one matmul per
    automorphism on the other; |Aut| times the residue is p^b0 times the
    automorphisms whose pushed monodromies vanish."""
    tuples = _all_tuples(G, p)
    lifts = p ** G.b0 * _colorable(graphs._coloring_plan(G), tuples.T, p)
    if len(tuples) <= 4096:
        assert lifts.tolist() == [count_admissible(G.with_beads(t), p) for t in tuples.tolist()]
    hits = _per_automorphism_hits(G, tuples, p)
    assert np.array_equal(lifts * len(automorphisms(G)), p ** G.b0 * hits), (G, p)


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
    per-edge loop over ``GraphAut`` tuples, with no deduplication.  Per
    automorphism, its b1 pulled cycles, each the pairs (e, c) with
    c = +-C[i][eperm[e]], - when it flips e, in edge order."""
    _, cycles = fundamental_cycles(graphs._beadless(n, ends))  # need not be trivalent
    return [[tuple((e, -cyc[f] if flip else cyc[f])
                   for e, (f, flip) in enumerate(zip(aut.eperm, aut.flips)) if f in cyc)
             for cyc in cycles]
            for aut in auts]


def _colorable(plan, beads, p):
    """Oracle for the lift side, vectorised: per bead tuple (column, beads in
    0..p-1), whether the coloring plan's replay goes through (lift count
    p^comps, else 0).  A color plus or minus a bead lies in (-p, 2p),
    reduced as x - (x // p) p, and a check's difference lies in (-p, 2p)
    for s = 1, (-2p, p) for s = -1: it is 0 mod p iff 0 or s * p."""
    colors = np.zeros((plan.n_vertices, beads.shape[1]), dtype=beads.dtype)
    for w, v, e, s in plan.sets:
        x = colors[v] + s * beads[e]
        np.subtract(x, x // p * p, out=colors[w])
    ok = np.ones(beads.shape[1], dtype=bool)
    for w, v, e, s in plan.checks:
        diff = colors[v] + s * beads[e] - colors[w]
        ok &= (diff == 0) | (diff == s * p)
    return ok


def _cycles_vanish(C, beads, p):
    """Oracle for the residue side, vectorised: per bead tuple (column),
    whether every cycle monodromy is 0 mod p, each row of C (entries 0 and
    +-1) adding and subtracting bead rows."""
    ok = np.ones(beads.shape[1], dtype=bool)
    for row in C:
        m = sum(b if c > 0 else -b for c, b in zip(row, beads) if c)
        ok &= m == m // p * p
    return ok


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

    def test_rejects_a_negative_vertex_count(self, capsys, tmp_path):
        # once accepted as a graph with no vertices (count_admissible gave 1)
        msg = "vertex count must be non-negative, got -1"
        with pytest.raises(ValueError, match=msg):
            BeadedGraph(-1, [])
        with pytest.raises(ValueError, match=msg):
            BeadedGraph.from_json({"vertices": -1, "edges": []})
        f = tmp_path / "negative.json"
        f.write_text(json.dumps({"vertices": -1, "edges": []}))
        assert main(["liftres", "--file", str(f), "--p", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: %s\n" % msg

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
    """Oracle for ``_automorphisms``: the per-choice loop, written out
    apart from ``_class_options``, one ``GraphAut`` at a time.  Per vertex
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


def _check_class_options(n, ends):
    """Check of ``_class_options``, the enumeration behind
    ``_automorphisms`` and ``phi_R`` (liftres reads none of it).
    ArithmeticError, naming what failed, unless:

    1. under each vertex permutation the classes are the classes of
       parallel edges;
    2. every option of every class is a bijective chain map on its edges:
       edge e = (t, h) sent to edge f with flip x has (vperm[t], vperm[h])
       equal to ends[f], reversed when x is set;
    3. the identity of the vertices, with every edge kept in place and
       unflipped, is among the options.

    An automorphism is one option per class, so by 2 each is a chain map;
    the walk is read off the module at call time, so a test can corrupt
    it."""
    classes = {}
    for idx, (tail, head) in enumerate(ends):
        classes.setdefault(frozenset((tail, head)), []).append(idx)
    partition, identity, found = sorted(classes.values()), tuple(range(n)), False
    for vperm, per_class in graphs._class_options(n, ends):
        if sorted(vperm) != list(identity) or sorted(src for src, _ in per_class) != partition:
            raise ArithmeticError("the classes under vertex permutation %r are not the classes"
                                  " of parallel edges" % (vperm,))
        for src, opts in per_class:
            for assign, flips in opts:
                if not len(set(assign)) == len(src) == len(flips) or any(
                        (vperm[ends[e][0]], vperm[ends[e][1]]) != (ends[f][::-1] if x else ends[f])
                        for e, f, x in zip(src, assign, flips)):
                    raise ArithmeticError(
                        "an option of edges %r under vertex permutation %r is not a bijective"
                        " chain map" % (src, vperm))
        found = found or vperm == identity and all(
            (tuple(src), (False,) * len(src)) in opts for src, opts in per_class)
    if not found:
        raise ArithmeticError("the identity is not among the automorphisms")


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


def _oracle_topologies():
    """Topology keys on which the array oracle is held against production:
    ``AUT_TOPOLOGIES``, ``ORACLE_GRAPHS``, the edgeless graph and 20 random
    multigraphs of at most 6 vertices."""
    keys = {**AUT_TOPOLOGIES, "edgeless": (0, ())}
    keys.update({name: graphs._topology(G) for name, G in ORACLE_GRAPHS.items()})
    rng, k = random.Random(42), 0
    while k < 20:
        G = _random_multigraph(rng, 6)
        if G.n_vertices <= 6:
            keys["random-%d" % k] = graphs._topology(G)
            k += 1
    return keys


ORACLE_TOPOLOGIES = _oracle_topologies()


class TestAutomorphismArrays:
    @pytest.mark.parametrize("name", sorted(AUT_TOPOLOGIES))
    def test_rows_match_the_per_choice_loop(self, name):
        # the same automorphisms in the same order from the class options
        # as from the per-choice loop
        n, ends = AUT_TOPOLOGIES[name]
        want = _automorphisms_by_choice(n, ends)
        assert graphs._automorphisms(n, ends) == tuple(want)
        expected = {"theta": 12, "eyes": 8, "theta-theta": 288, "theta-eyes": 96,
                    "theta3": 10368, "cube": 48, "two-loops-at-one-vertex": 8, "triple-edge": 12}
        assert len(want) == expected[name]

    @pytest.mark.parametrize("name", sorted(ORACLE_TOPOLOGIES))
    def test_certificate_matches_the_array_oracle(self, name):
        # _automorphisms equals the array oracle row for row, and the array
        # certificate over the whole group (D = U C, U U^-1 = I) passes with
        # the C that _cycle_basis checks as a basis alone
        n, ends = ORACLE_TOPOLOGIES[name]
        auts = graphs._automorphisms(n, ends)
        arrays = [a.tolist() for a in _aut_arrays(n, ends)]
        assert arrays == [[list(a.vperm) for a in auts], [list(a.eperm) for a in auts],
                          [[int(x) for x in a.flips] for a in auts]]
        C = graphs._cycle_basis(n, ends)
        assert _array_certificate(n, ends, *_signed_rows(auts)).tolist() == [list(r) for r in C]

    @pytest.mark.parametrize("name", sorted(ORACLE_TOPOLOGIES) + ["theta4"])
    def test_class_options_are_bijective_chain_maps(self, name):
        key = ORACLE_TOPOLOGIES.get(name) or graphs._topology(
            disjoint_union(THETA, THETA, THETA, THETA))
        _check_class_options(*key)

    @pytest.mark.parametrize("corrupt", ["flip", "class", "repeat", "identity", "partition"])
    def test_corrupted_class_options_raise(self, monkeypatch, corrupt):
        # the check refuses an option that is not a bijective chain map, a
        # walk without the identity or with classes that are not those of
        # the parallel edges
        key = graphs._topology(SWEEP_GRAPHS["theta-theta"])  # classes (0, 1, 2) and (3, 4, 5)
        walk = graphs._class_options

        def corrupted_options(n, ends):
            for k, (vperm, per_class) in enumerate(walk(n, ends)):
                (src, opts), rest = per_class[0], per_class[1:]
                (assign, flips), others = opts[0], opts[1:]
                if corrupt == "flip" and k == 3:  # a non-loop edge reversed
                    opts = [(assign, (not flips[0],) + flips[1:])] + others
                elif corrupt == "class" and k == 3:  # edge 0 into the other class
                    opts = [((per_class[1][1][0][0][0],) + assign[1:], flips)] + others
                elif corrupt == "repeat" and k == 3:  # two edges onto one
                    opts = [((assign[0],) + assign[:-1], flips)] + others
                elif corrupt == "identity" and k == 0:
                    opts = others
                elif corrupt == "partition" and k == 3:  # a class split in two
                    rest = [(src[1:], [(a[1:], f[1:]) for a, f in opts])] + rest
                    src, opts = src[:1], [(a[:1], f[:1]) for a, f in opts]
                yield vperm, [(src, opts)] + rest

        monkeypatch.setattr(graphs, "_class_options", corrupted_options)
        match = {"flip": "not a bijective chain map", "class": "not a bijective chain map",
                 "repeat": "not a bijective chain map", "identity": "identity is not among",
                 "partition": "not the classes of parallel edges"}[corrupt]
        with pytest.raises(ArithmeticError, match=match):
            _check_class_options(*key)
        monkeypatch.undo()
        _check_class_options(*key)

    def test_cube_is_searched_at_the_vertex_cap(self):
        assert CUBE.n_vertices == graphs._VERTEX_CAP
        assert all(type(x) is bool for aut in automorphisms(CUBE) for x in aut.flips)
        with pytest.raises(graphs.TooLarge):
            automorphisms(disjoint_union(CUBE, THETA))
        with pytest.raises(graphs.TooLarge):
            liftres_sweep(disjoint_union(CUBE, THETA), 2, max_cases=10)


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
        # the same pulled cycles per automorphism, cycle by cycle, kept once
        # each as from the loop over the per-choice oracle's GraphAut tuples
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

    def test_sweep_sampling(self):
        # max_cases caps the cases column and draws nothing: no rng is taken
        th2 = disjoint_union(theta_graph(), theta_graph())
        assert liftres_sweep(th2, 7, max_cases=50) == (50, 0)
        assert liftres_sweep(th2, 2, max_cases=64) == liftres_sweep(th2, 2, max_cases=65) == (64, 0)
        with pytest.raises(TypeError):
            liftres_sweep(th2, 7, max_cases=50, rng=random.Random(1))

    def test_push_preserves_everything(self):
        G = theta_graph().with_beads([1, 2, 3])
        for v in (0, 1):
            H = push_at_vertex(G, v)
            assert H.beads != G.beads
            for p in (2, 3, 5):
                assert count_admissible(H, p) == count_admissible(G, p)
                assert res_p_graph(phi_R(H), H, p) == res_p_graph(phi_R(G), G, p)


class TestSweepEngine:
    """liftres decided per topology, against the oracles: the coloring plan
    replayed on every tuple at once (``_colorable``), the scalar and brute
    lift counts, and the residue by one matmul per automorphism."""

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
    def test_automorphism_tensor_matches_loop(self, name):
        G = SWEEP_GRAPHS[name]
        auts = automorphisms(G)
        C = np.array(graphs._cycle_basis(*graphs._topology(G)))
        _, cycles = fundamental_cycles(G)
        want = _loop_cycle_matrices(G, cycles, auts)
        assert np.array_equal(_aut_cycle_matrices(C, *_signed_rows(auts)), want)

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
    def test_residue_side_matches_per_automorphism_loop(self, name):
        G = SWEEP_GRAPHS[name]
        naut = len(automorphisms(G))
        C = graphs._cycle_basis(*graphs._topology(G))
        for p in range(1, 6):
            tuples = _all_tuples(G, p)
            hits = _per_automorphism_hits(G, tuples, p)
            assert set(np.unique(hits)) <= {0, naut}
            assert np.array_equal(naut * _cycles_vanish(C, tuples.T, p), hits)

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
    def test_batched_coloring_matches_scalar_lift_counts(self, name):
        G = SWEEP_GRAPHS[name]
        plan = graphs._coloring_plan(G)
        assert plan.comps == G.b0
        for p in range(1, 6 if len(G.edges) == 3 else 4):
            tuples = _all_tuples(G, p)
            lifts = np.where(_colorable(plan, tuples.T, p), p ** plan.comps, 0)
            for row, lift in zip(tuples.tolist(), lifts.tolist()):
                H = G.with_beads(row)
                assert lift == count_admissible(H, p) == _brute_lift_count(H, p), (row, p)

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS) + ["theta3"])
    def test_decision_matches_the_oracles(self, name):
        # every tuple of {0..p-1}^E, p = 2..5: the lift count (scalar, and
        # the plan on all tuples at once) times |Aut| equals p^b0 times the
        # automorphisms whose pushed monodromies vanish, which is |Aut| times
        # the residue; so the sweep's (p^E, 0) is the count of every tuple.
        # On four vertices to a component a check's difference reaches +-p,
        # which _colorable's mod-free test must count as 0 mod p
        G = ORACLE_GRAPHS.get(name) or disjoint_union(THETA, THETA, THETA)
        for p in range(2, 6):
            if p ** len(G.edges) > 5 ** 6:
                break
            _assert_oracles_agree(G, p)
            assert liftres_sweep(G, p) == (p ** len(G.edges), 0)
            assert liftres_sweep(G, p, max_cases=7) == (7, 0)

    def test_decision_matches_the_oracles_on_random_multigraphs(self):
        # shuffled vertex labels and edge order make the plan check its
        # non-forest edges out of edge order; the rows are paired by edge
        rng = random.Random(41)
        graphs_seen = out_of_order = 0
        while graphs_seen < 60:
            G = _random_multigraph(rng, 6)
            if G.n_vertices > 6:
                continue
            graphs_seen += 1
            checked = [e for _, _, e, _ in graphs._coloring_plan(G).checks]
            out_of_order += checked != sorted(checked)
            for p in range(2, 6):
                if p ** len(G.edges) > 4 ** 6:
                    break
                _assert_oracles_agree(G, p)
                assert liftres_sweep(G, p) == (p ** len(G.edges), 0), (G, p)
            beads = [rng.randrange(2) for _ in G.edges]
            assert count_admissible(G.with_beads(beads), 2) == _brute_lift_count(
                G.with_beads(beads), 2)
        assert out_of_order > 10

    @pytest.mark.parametrize("name", ["theta", "eyes", "theta-theta", "theta-eyes", "theta3"])
    def test_signed_order_matches_powers(self, name):
        # the array oracle pairs each automorphism with its inverse in the
        # tuple: the inverse's action is U_a^(k - 1) for the signed order k
        # of a, found by powers of the signed permutation matrix
        G = SWEEP_GRAPHS.get(name) or disjoint_union(THETA, THETA, THETA)
        nonforest, _ = fundamental_cycles(G)
        C = np.array(graphs._cycle_basis(*graphs._topology(G)))
        auts = automorphisms(G)
        U = _aut_cycle_matrices(C, *_signed_rows(auts))[:, :, nonforest]
        step = max(1, len(auts) // 200)  # theta^3 has 10,368: every 52nd
        for a in range(0, len(auts), step):
            k = _signed_order_by_powers(auts[a])
            assert np.array_equal(np.linalg.matrix_power(U[a], k), np.eye(G.b1)), (name, a)
            inv = np.linalg.matrix_power(U[a], k - 1)
            assert (U == inv).all(axis=(1, 2)).any(), (name, a)

    def test_theta_cubed_exhaustive(self):
        # the plan on all 3^9 tuples against C x = 0 mod p
        G = disjoint_union(THETA, THETA, THETA)
        tuples = _all_tuples(G, 3).T
        lifts = _colorable(graphs._coloring_plan(G), tuples, 3)
        assert np.array_equal(lifts, _cycles_vanish(graphs._cycle_basis(*graphs._topology(G)), tuples, 3))
        assert liftres_sweep(G, 3) == (19683, 0)

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

    def test_missing_inverse_raises(self):
        G = SWEEP_GRAPHS["theta-theta"]
        auts = automorphisms(G)
        dropped = next(i for i, a in enumerate(auts)
                       if _signed_order_by_powers(a) > 2)  # a^-1 != a
        kept = (np.delete(rows, dropped, axis=0) for rows in _signed_rows(auts))
        with pytest.raises(ArithmeticError, match="inverse is missing"):
            _array_certificate(*graphs._topology(G), *kept)

    @staticmethod
    def _use_plan(monkeypatch, plan):
        # the cycle basis is kept per topology: walk the given plan afresh
        monkeypatch.setattr(graphs, "_coloring_plan", lambda G: plan)
        graphs._cycle_basis.cache_clear()

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS) + ["theta3"])
    def test_a_plan_with_a_repeated_check_is_refused(self, monkeypatch, name):
        G = ORACLE_GRAPHS.get(name) or disjoint_union(THETA, THETA, THETA)
        plan = graphs._coloring_plan(G)
        self._use_plan(monkeypatch, plan._replace(checks=plan.checks + plan.checks[:1]))
        refusal = re.escape("topology %r: C has %d rows for %d non-forest edges"
                            % (graphs._topology(G), G.b1 + 1, G.b1))
        with pytest.raises(ArithmeticError, match=refusal):
            liftres_sweep(G, 2)
        # the same checks in another order are the same plan
        self._use_plan(monkeypatch, plan._replace(checks=plan.checks[::-1]))
        assert liftres_sweep(G, 2) == (2 ** len(G.edges), 0)

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS) + ["theta3"])
    def test_dropping_one_edges_checks_is_detected(self, monkeypatch, name):
        G = ORACLE_GRAPHS.get(name) or disjoint_union(THETA, THETA, THETA)
        plan = graphs._coloring_plan(G)
        tree = {e for _, _, e, _ in plan.sets}
        cotree = sorted(set(range(len(G.edges))) - tree)
        assert len(cotree) == G.b1
        C, tuples = graphs._cycle_basis(*graphs._topology(G)), _all_tuples(G, 4).T
        for k in cotree:
            # the decision refuses a plan short of b1 checks, and the oracles
            # tell its lift side from the residue side
            partial = plan._replace(checks=[c for c in plan.checks if c[2] != k])
            self._use_plan(monkeypatch, partial)
            refusal = re.escape("topology %r: C has %d rows for %d non-forest edges"
                                % (graphs._topology(G), G.b1 - 1, G.b1))
            with pytest.raises(ArithmeticError, match=refusal):
                liftres_sweep(G, 4)
            lifts = _colorable(partial, tuples, 4)
            assert (lifts != _cycles_vanish(C, tuples, 4)).any(), k

    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS) + ["theta3"])
    def test_a_flipped_check_is_detected(self, monkeypatch, name):
        # a check read the other way round (bead subtracted where it is
        # added) makes a row that is not a cycle, and the oracles tell it
        # apart; on a loop the check is its bead alone, and the flip is -1
        # times the same row, so the decision stands and the oracles agree
        G = ORACLE_GRAPHS.get(name) or disjoint_union(THETA, THETA, THETA)
        plan = graphs._coloring_plan(G)
        C, tuples = graphs._cycle_basis(*graphs._topology(G)), _all_tuples(G, 4).T
        nonforest, _ = fundamental_cycles(G)
        for k, (w, v, e, s) in enumerate(plan.checks):
            flipped = plan._replace(checks=plan.checks[:k] + [(w, v, e, -s)] + plan.checks[k + 1:])
            self._use_plan(monkeypatch, flipped)
            lifts = _colorable(flipped, tuples, 4)
            if w == v:
                assert liftres_sweep(G, 4) == (4 ** len(G.edges), 0)
                assert np.array_equal(lifts, _cycles_vanish(C, tuples, 4)), k
                continue
            refusal = re.escape("topology %r: row %d of C has nonzero boundary"
                                % (graphs._topology(G), nonforest.index(e)))
            with pytest.raises(ArithmeticError, match=refusal):
                liftres_sweep(G, 4)
            assert (lifts != _cycles_vanish(C, tuples, 4)).any(), k

    @pytest.mark.parametrize("corrupt", ["entry", "scale", "shear"])
    def test_corrupted_automorphism_tensor_raises(self, corrupt):
        # the array oracle over the whole group refuses a tensor that leaves
        # the row space of C or has no integral inverse
        G = SWEEP_GRAPHS["theta-theta"]
        nonforest, _ = fundamental_cycles(G)
        forest_edge = min(set(range(len(G.edges))) - set(nonforest))
        order = [_signed_order_by_powers(aut) for aut in automorphisms(G)]
        longest = int(np.argmax(order))
        assert order[longest] == 12 > len(G.edges) and order[5] == 2

        def corrupted(C, eperm, flips):
            D = _aut_cycle_matrices(C, eperm, flips)
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

        match = {"entry": "does not act", "scale": "its inverse's is not I",
                 "shear": "its inverse's is not I"}[corrupt]
        rows = _signed_rows(automorphisms(G))
        with pytest.raises(ArithmeticError, match=match):
            _array_certificate(*graphs._topology(G), *rows, tensor=corrupted)
        assert _array_certificate(*graphs._topology(G), *rows).tolist() == [
            list(row) for row in graphs._cycle_basis(*graphs._topology(G))]

    @pytest.mark.parametrize("corrupt", ["boundary", "columns", "rows", "components"])
    def test_corrupted_certificate_raises(self, monkeypatch, corrupt):
        # liftres_sweep refuses a plan whose checks are not the fundamental
        # cycles: a row that is not a cycle, a row that is not the identity
        # on the non-forest columns, short of b1 rows, or a plan whose
        # components are not the graph's (its lift count would be p^3)
        G = SWEEP_GRAPHS["theta-theta"]
        plan = graphs._coloring_plan(G)
        (w, v, e, s), rest = plan.checks[0], plan.checks[1:]
        assert w != v and e == 1  # theta's second edge, the first check
        checks = {"boundary": [(w, v, e, -s)] + rest,  # a non-loop check flipped
                  "columns": plan.sets[:1] + rest,  # edge 0 sets a color and is checked
                  "rows": rest,  # a check dropped
                  "components": plan.checks}[corrupt]
        self._use_plan(monkeypatch, plan._replace(checks=checks,
                                                  comps=plan.comps + (corrupt == "components")))
        match = {"boundary": "row 0 of C has nonzero boundary",
                 "columns": "not the identity on the non-forest columns",
                 "rows": "C has 3 rows for 4 non-forest edges, not b1 = 4",
                 "components": "the coloring plan visits 3 components, not b0 = 2"}[corrupt]
        with pytest.raises(ArithmeticError, match=match):
            liftres_sweep(G, 2)
        monkeypatch.undo()
        graphs._cycle_basis.cache_clear()
        assert liftres_sweep(G, 2) == (64, 0)

    def test_cycle_basis_checked_once_per_topology(self, monkeypatch):
        # the plan is walked once per topology, by _cycle_basis, and
        # liftres_sweep never walks the class options
        calls = []
        walk = graphs._coloring_plan

        def counted(G):
            calls.append(G.n_vertices)
            return walk(G)

        def refused(n, ends):
            raise AssertionError("liftres_sweep walked the class options")

        monkeypatch.setattr(graphs, "_coloring_plan", counted)
        monkeypatch.setattr(graphs, "_class_options", refused)
        graphs._cycle_basis.cache_clear()
        G = SWEEP_GRAPHS["theta-theta"]
        for p in (2, 3, 4):
            assert liftres_sweep(G, p) == (p ** 6, 0)
        assert liftres_sweep(G.with_beads([1, 2, 3, 4, 5, 6]), 5, max_cases=50) == (50, 0)
        assert calls == [4]
        C = graphs._cycle_basis(*graphs._topology(G))
        assert graphs._cycle_basis(*graphs._topology(BeadedGraph.from_json(G.to_json()))) is C
        # tuple rows: no caller can corrupt the kept basis
        assert type(C) is tuple and all(type(row) is tuple for row in C)
        with pytest.raises(TypeError):
            C[0][0] = 7
        with pytest.raises(TypeError):
            C[0] = (7,) * 6
        assert liftres_sweep(THETA, 3) == (27, 0)
        assert calls == [4, 2] and graphs._cycle_basis.cache_info().currsize == 2

    @staticmethod
    def _forbid_automorphisms(monkeypatch):
        def refused(*args):
            raise AssertionError("liftres_sweep reached the automorphisms")

        for fn in ("_class_options", "_automorphisms", "automorphisms"):
            monkeypatch.setattr(graphs, fn, refused)
        graphs._cycle_basis.cache_clear()

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS) + ["theta3"])
    def test_decided_without_the_automorphisms(self, monkeypatch, name):
        G = SWEEP_GRAPHS.get(name) or disjoint_union(THETA, THETA, THETA)
        self._forbid_automorphisms(monkeypatch)
        for p in (2, 3, 7):
            assert liftres_sweep(G, p) == (p ** len(G.edges), 0)

    def test_theta4_is_decided_without_the_group(self, monkeypatch):
        # at the vertex cap, theta^4 has 497,664 automorphisms: liftres
        # walks none of their class options and builds none of them
        G = disjoint_union(THETA, THETA, THETA, THETA)
        key = graphs._topology(G)
        assert G.n_vertices == graphs._VERTEX_CAP
        assert sum(prod(len(opts) for _, opts in per_class)
                   for _, per_class in graphs._class_options(*key)) == 497664
        self._forbid_automorphisms(monkeypatch)
        assert liftres_sweep(G, 2) == (2 ** 12, 0)

    def test_no_per_tuple_graphs_or_lift_counts(self, monkeypatch):
        counts = {"count_admissible": 0, "BeadedGraph": 0}
        scalar, init = graphs.count_admissible, BeadedGraph.__init__

        def counted_scalar(G, p):
            counts["count_admissible"] += 1
            return scalar(G, p)

        def counted_init(self, *args, **kwargs):
            counts["BeadedGraph"] += 1
            init(self, *args, **kwargs)

        G, G3 = SWEEP_GRAPHS["theta-theta"], disjoint_union(THETA, THETA, THETA)
        monkeypatch.setattr(graphs, "count_admissible", counted_scalar)
        monkeypatch.setattr(BeadedGraph, "__init__", counted_init)
        assert liftres_sweep(G, 3) == (729, 0)
        assert liftres_sweep(G, 5, max_cases=100) == (100, 0)
        # theta^3 at p = 7, past the 2^22 tuples the bead sweep refused, and
        # far beyond: decided from the topology all the same
        assert liftres_sweep(G3, 5) == (5 ** 9, 0)
        assert liftres_sweep(G3, 7) == (40353607, 0)
        assert liftres_sweep(G3, 7, max_cases=(1 << 22) + 1) == ((1 << 22) + 1, 0)
        assert liftres_sweep(G3, 10 ** 6) == (10 ** 54, 0)
        assert counts == {"count_admissible": 0, "BeadedGraph": 0}


class TestSweepLimits:
    @pytest.mark.parametrize("bad", [0, -3])
    def test_max_cases_below_one(self, bad):
        with pytest.raises(ValueError, match="max_cases"):
            liftres_sweep(THETA, 3, max_cases=bad)

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_cli_max_cases_below_one(self, capsys, bad):
        code = main(["liftres", "--graph", "theta", "--p", "3", "--max-cases", bad])
        err = capsys.readouterr().err
        assert code == 2
        assert "max_cases" in err and "matmul" not in err

    def test_p_below_one(self, capsys):
        with pytest.raises(ValueError, match="positive"):
            liftres_sweep(THETA, 0)
        assert main(["liftres", "--graph", "theta", "--p", "0"]) == 2
        assert capsys.readouterr().err == "error: p must be >= 1, got 0\n"

    @pytest.mark.parametrize("p", [2 ** 63 // 5 - 1, 2 ** 63 // 5, 2 ** 64])
    def test_p_outside_the_int64_range(self, capsys, p):
        # the decision holds for every p: past the old int64 cap of the bead
        # sweep (2^63 // 5 - 1 at three edges) it prints its row, and the
        # per-tuple route agrees on the extreme tuples there
        assert liftres_sweep(THETA, p) == (p ** 3, 0)
        assert liftres_sweep(THETA, p, max_cases=10) == (10, 0)
        for beads in ([p - 1, p - 1, p - 1], [0, p - 1, 1], [p - 1, 2 * p - 1, -1]):
            assert liftres_check(THETA.with_beads(beads), p), beads
        assert count_admissible(THETA.with_beads([0, p - 1, 1]), p) == 0
        argv = ["liftres", "--graph", "theta", "--p", str(p), "--max-cases", "10", "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == [[p, 3, 10, 0]]

    def test_cli_refuses_past_the_vertex_cap(self, capsys, tmp_path):
        # theta^5 has 10 vertices: one line naming the count, for
        # automorphisms and liftres alike, and nothing on stdout
        f = tmp_path / "theta5.json"
        f.write_text(json.dumps(disjoint_union(*[THETA] * 5).to_json()))
        assert main(["liftres", "--file", str(f), "--p", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: graph has 10 vertices; automorphisms and liftres are" \
                               " capped at 8\n"
        with pytest.raises(graphs.TooLarge, match="^graph has 10 vertices;"):
            automorphisms(disjoint_union(*[THETA] * 5))

    def test_cli_sweeps_the_edgeless_graph(self, capsys, tmp_path):
        # no edges: one empty bead tuple per p, lift count 1 = residue 1
        f = tmp_path / "empty.json"
        f.write_text(json.dumps({"vertices": 0, "edges": []}))
        code = main(["liftres", "--file", str(f), "--p", "2..5", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["rows"] == [[p, 0, 1, 0] for p in range(2, 6)]
        assert all(liftres_check(BeadedGraph(0, []), p) for p in range(2, 6))

    def test_cli_decides_theta_cubed_at_7(self, capsys, tmp_path):
        # once refused at the sweep cap (exit 2), now one row
        f = tmp_path / "theta3.json"
        f.write_text(json.dumps(disjoint_union(THETA, THETA, THETA).to_json()))
        code = main(["liftres", "--file", str(f), "--p", "7", "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["rows"] == [[7, 9, 40353607, 0]]

    def test_cli_output_of_the_benchmark_shapes(self, capsys):
        # the exhaustive command shape the benchmark sends, byte for byte
        assert main(["liftres", "--graph", "theta-theta", "--p", "2..6", "--format", "json"]) == 0
        captured = capsys.readouterr()
        rows = "".join(",\n    [\n      %d,\n      6,\n      %d,\n      0\n    ]" % (p, p ** 6)
                       for p in range(2, 7))
        assert captured.err == ""
        assert captured.out == ('{\n  "columns": [\n    "p",\n    "edges",\n    "cases",\n'
                                '    "failures"\n  ],\n  "rows": [%s\n  ]\n}\n' % rows[1:])

    def test_cli_sample_is_reproducible(self, capsys):
        # the benchmark's --max-cases shape: the seed changes nothing, as
        # no tuple is sampled
        runs = []
        for seed in ("17", "1893"):
            argv = ["liftres", "--graph", "theta-eyes", "--p", "7", "--max-cases", "10000",
                    "--seed", seed, "--format", "json"]
            assert main(argv) == 0
            runs.append(capsys.readouterr())
        assert runs[0] == runs[1] and runs[0].err == ""
        assert json.loads(runs[0].out)["rows"] == [[7, 6, 10000, 0]]
