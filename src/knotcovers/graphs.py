"""Beaded trivalent graphs: counting lifts to cyclic covers versus the
residue of the associated rational symbol.

A beaded graph is a closed oriented trivalent multigraph (loops and
parallel edges allowed) with an integer bead exponent on every edge,
standing for a power of the deck variable t.

Two quantities are attached for each p >= 1:

* the state sum ``count_admissible``: colorings of the
  vertices by Z_p such that along every edge (tail -> head, bead m) the
  colors satisfy head = tail + m mod p.  The count is p^(number of
  components) when every cycle monodromy vanishes mod p and 0 otherwise,
  and equals the number of ways the graph lifts to the p-fold cyclic
  cover.
* the residue ``res_p_graph`` of the symbol ``phi_R``: pick a spanning
  forest; the surviving b_1 edges carry independent variables, and the
  bead data of the graph determines a monomial whose exponents are the
  fundamental-cycle monodromies.  ``phi_R`` averages that monomial over
  the automorphism group of the graph (automorphisms may reverse edges,
  which inverts the corresponding variable), and ``res_p_graph`` sums the
  symbol over all tuples of p-th roots of unity, scaled by
  p^(Euler characteristic).

``liftres_check`` verifies that the two agree -- exactly, term by term --
and ``liftres_sweep`` runs the comparison over every bead tuple in
{0..p-1}^(#edges), vectorizing the residue side over tuples via the same
per-automorphism cycle matrices that ``phi_R`` uses.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "TooLarge",
    "Edge",
    "GraphAut",
    "BeadedGraph",
    "theta_graph",
    "eyes_graph",
    "disjoint_union",
    "count_admissible",
    "automorphisms",
    "fundamental_cycles",
    "cycle_monodromies",
    "phi_R",
    "res_p_graph",
    "liftres_check",
    "liftres_sweep",
    "push_at_vertex",
]

_VERTEX_CAP = 8


class TooLarge(ValueError):
    """Brute-force automorphism search is capped at a small vertex count."""


class Edge(NamedTuple):
    tail: int
    head: int
    bead: int


class GraphAut(NamedTuple):
    """Automorphism: vertex permutation, edge assignment e -> eperm[e],
    and a flip flag per source edge (True when the edge is reversed)."""

    vperm: tuple[int, ...]
    eperm: tuple[int, ...]
    flips: tuple[bool, ...]


class BeadedGraph:
    """Closed trivalent multigraph with integer beads on oriented edges."""

    __slots__ = ("n_vertices", "edges")

    def __init__(self, n_vertices: int, edges: Iterable[Sequence[int]]):
        es = []
        for e in edges:
            tail, head, bead = e
            es.append(Edge(int(tail), int(head), int(bead)))
        n = int(n_vertices)
        deg = [0] * n
        for e in es:
            if not (0 <= e.tail < n and 0 <= e.head < n):
                raise ValueError("edge endpoint out of range")
            deg[e.tail] += 1
            deg[e.head] += 1
        if any(d != 3 for d in deg):
            raise ValueError("graph must be trivalent (every vertex of valence 3)")
        self.n_vertices = n
        self.edges = tuple(es)

    @property
    def beads(self) -> tuple[int, ...]:
        return tuple(e.bead for e in self.edges)

    @property
    def is_beadless(self) -> bool:
        return all(e.bead == 0 for e in self.edges)

    def with_beads(self, beads: Sequence[int]) -> "BeadedGraph":
        if len(beads) != len(self.edges):
            raise ValueError("bead tuple length mismatch")
        return BeadedGraph(
            self.n_vertices,
            [(e.tail, e.head, int(m)) for e, m in zip(self.edges, beads)],
        )

    def components(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for e in self.edges:
            adj[e.tail].append(e.head)
            adj[e.head].append(e.tail)
        seen = [False] * self.n_vertices
        comps = []
        for start in range(self.n_vertices):
            if seen[start]:
                continue
            comp = [start]
            seen[start] = True
            stack = [start]
            while stack:
                v = stack.pop()
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            comps.append(comp)
        return comps

    @property
    def b0(self) -> int:
        return len(self.components())

    @property
    def b1(self) -> int:
        return len(self.edges) - self.n_vertices + self.b0

    @property
    def euler(self) -> int:
        return self.n_vertices - len(self.edges)

    def topology_key(self) -> tuple:
        return (self.n_vertices, tuple((e.tail, e.head) for e in self.edges))

    def to_json(self) -> dict:
        return {
            "vertices": self.n_vertices,
            "edges": [{"from": e.tail, "to": e.head, "bead": e.bead} for e in self.edges],
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "BeadedGraph":
        return cls(
            int(obj["vertices"]),
            [(e["from"], e["to"], e.get("bead", 0)) for e in obj["edges"]],
        )

    def __repr__(self) -> str:
        return "BeadedGraph(%d, %r)" % (
            self.n_vertices,
            [(e.tail, e.head, e.bead) for e in self.edges],
        )


# ---------------------------------------------------------------------------
# builders


def theta_graph(m1: int = 0, m2: int = 0, m3: int = 0) -> BeadedGraph:
    """Two vertices joined by three parallel edges carrying the beads."""
    return BeadedGraph(2, [(0, 1, m1), (0, 1, m2), (0, 1, m3)])


def eyes_graph(m1: int = 0, m2: int = 0, m3: int = 0) -> BeadedGraph:
    """Two loops joined by a bridge (dumbbell): beads on loop, bridge, loop."""
    return BeadedGraph(2, [(0, 0, m1), (0, 1, m2), (1, 1, m3)])


def disjoint_union(*graphs: BeadedGraph) -> BeadedGraph:
    n = 0
    edges = []
    for G in graphs:
        for e in G.edges:
            edges.append((e.tail + n, e.head + n, e.bead))
        n += G.n_vertices
    return BeadedGraph(n, edges)


# ---------------------------------------------------------------------------
# lifts as a state sum


def count_admissible(G: BeadedGraph, p: int) -> int:
    """Number of Z_p vertex colorings with head = tail + bead mod p on
    every edge.  Propagates colors over a spanning tree and checks the
    remaining edges; each component, when consistent, is free to shift by
    a global constant, giving p^(b0)."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    n = G.n_vertices
    color: list[int | None] = [None] * n
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, e in enumerate(G.edges):
        incident[e.tail].append((idx, +1))
        incident[e.head].append((idx, -1))
    comps = 0
    for start in range(n):
        if color[start] is not None:
            continue
        comps += 1
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for idx, orient in incident[v]:
                e = G.edges[idx]
                if orient == +1:
                    w, expected = e.head, (color[v] + e.bead) % p
                else:
                    w, expected = e.tail, (color[v] - e.bead) % p
                if color[w] is None:
                    color[w] = expected
                    stack.append(w)
                elif color[w] != expected:
                    return 0
    return p ** comps


# ---------------------------------------------------------------------------
# automorphisms


def automorphisms(G: BeadedGraph) -> list[GraphAut]:
    """All automorphisms of the underlying graph (beads ignored).

    An automorphism is a vertex bijection plus a compatible edge
    bijection; an edge may land on its image with reversed orientation
    (flip), and a loop can map to itself either way, so loops contribute
    a factor of two each.  Brute force over vertex permutations -- fine
    for the handful of vertices these graphs have, guarded by TooLarge.
    """
    n = G.n_vertices
    if n > _VERTEX_CAP:
        raise TooLarge("automorphism search capped at %d vertices" % _VERTEX_CAP)
    classes: dict[tuple[int, int], list[int]] = {}
    for idx, e in enumerate(G.edges):
        key = (min(e.tail, e.head), max(e.tail, e.head))
        classes.setdefault(key, []).append(idx)
    keys = sorted(classes)
    out: list[GraphAut] = []
    for vperm in permutations(range(n)):
        mapped_ok = True
        for key in keys:
            a, b = key
            mk = (min(vperm[a], vperm[b]), max(vperm[a], vperm[b]))
            if mk not in classes or len(classes[mk]) != len(classes[key]):
                mapped_ok = False
                break
        if not mapped_ok:
            continue
        per_class: list[list[tuple[tuple[int, ...], tuple[bool, ...]]]] = []
        for key in keys:
            src = classes[key]
            a, b = key
            mk = (min(vperm[a], vperm[b]), max(vperm[a], vperm[b]))
            tgt = classes[mk]
            opts = []
            for assign in permutations(tgt):
                flipchoices: list[list[bool]] = []
                feasible = True
                for e_idx, f_idx in zip(src, assign):
                    e = G.edges[e_idx]
                    f = G.edges[f_idx]
                    img = (vperm[e.tail], vperm[e.head])
                    if e.tail == e.head:
                        if f.tail != f.head or f.tail != img[0]:
                            feasible = False
                            break
                        flipchoices.append([False, True])
                    elif img == (f.tail, f.head):
                        flipchoices.append([False])
                    elif img == (f.head, f.tail):
                        flipchoices.append([True])
                    else:
                        feasible = False
                        break
                if not feasible:
                    continue
                for combo in product(*flipchoices):
                    opts.append((assign, combo))
            per_class.append(opts)
        for choice in product(*per_class):
            eperm = [0] * len(G.edges)
            flips = [False] * len(G.edges)
            for key, (assign, combo) in zip(keys, choice):
                for e_idx, f_idx, fl in zip(classes[key], assign, combo):
                    eperm[e_idx] = f_idx
                    flips[e_idx] = fl
            out.append(GraphAut(tuple(vperm), tuple(eperm), tuple(flips)))
    if not out:
        raise ArithmeticError("identity must always be present")
    return out


# ---------------------------------------------------------------------------
# spanning forests, cycles, and the rational symbol


def _spanning_forest(G: BeadedGraph) -> list[int]:
    """Deterministic spanning forest: BFS from the lowest-numbered vertex
    of each component, taking edges in index order."""
    n = G.n_vertices
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for idx, e in enumerate(G.edges):
        if e.tail != e.head:
            incident[e.tail].append((idx, e.head))
            incident[e.head].append((idx, e.tail))
    for lst in incident:
        lst.sort()
    seen = [False] * n
    forest = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for idx, w in incident[v]:
                    if not seen[w]:
                        seen[w] = True
                        forest.append(idx)
                        nxt.append(w)
            frontier = nxt
    return sorted(forest)


def fundamental_cycles(
    G: BeadedGraph, forest: Sequence[int] | None = None
) -> tuple[list[int], list[dict[int, int]]]:
    """(non-forest edge indices, cycle vectors) for a spanning forest.

    The cycle of a non-forest edge e = (a -> b) is e followed by the
    forest path from b back to a; the vector maps edge index to its
    signed multiplicity (+1 when traversed tail to head).  Any maximal
    forest may be supplied; the default is the BFS forest.
    """
    if forest is None:
        forest = _spanning_forest(G)
    forest = sorted(set(int(i) for i in forest))
    n = G.n_vertices
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for idx in forest:
        e = G.edges[idx]
        if e.tail == e.head:
            raise ValueError("a loop cannot belong to a forest")
        adj[e.tail].append((e.head, idx, +1))
        adj[e.head].append((e.tail, idx, -1))
    pathvec: list[dict[int, int] | None] = [None] * n
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
        vec: dict[int, int] = {idx: 1}
        for k, s in pathvec[e.tail].items():
            vec[k] = vec.get(k, 0) + s
        for k, s in pathvec[e.head].items():
            vec[k] = vec.get(k, 0) - s
        cycles.append({k: s for k, s in vec.items() if s})
    return nonforest, cycles


def cycle_monodromies(
    beads: Sequence[int], cycles: Sequence[Mapping[int, int]]
) -> tuple[int, ...]:
    return tuple(sum(c * beads[e] for e, c in cyc.items()) for cyc in cycles)


def _aut_cycle_matrices(
    G: BeadedGraph, cycles: Sequence[Mapping[int, int]], auts: Sequence[GraphAut]
) -> np.ndarray:
    """Integer tensor D[a][i][e] with the property that the i-th cycle
    monodromy of the beads pushed forward by automorphism a equals
    sum_e D[a][i][e] * bead_e."""
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


def phi_R(
    G: BeadedGraph, forest: Sequence[int] | None = None
) -> dict[tuple[int, ...], Fraction]:
    """The symmetrized rational symbol of a beaded graph.

    In the coordinates given by the fundamental cycles of a spanning
    forest, the unsymmetrized symbol of a bead labeling is the single
    monomial whose exponent vector is the tuple of cycle monodromies.
    phi_R averages this over all graph automorphisms acting on the
    labeling (edge reversal inverts the bead).  Returned as a dict from
    exponent tuples (length b1) to rational coefficients summing to 1.
    """
    _, cycles = fundamental_cycles(G, forest)
    auts = automorphisms(G)
    beads = G.beads
    coeff = Fraction(1, len(auts))
    out: dict[tuple[int, ...], Fraction] = {}
    for aut in auts:
        pushed = [0] * len(beads)
        for e, m in enumerate(beads):
            pushed[aut.eperm[e]] = -m if aut.flips[e] else m
        exps = cycle_monodromies(pushed, cycles)
        out[exps] = out.get(exps, Fraction(0)) + coeff
    return {k: v for k, v in out.items() if v}


def res_p_graph(
    f: Mapping[tuple[int, ...], Fraction], G: BeadedGraph, p: int
) -> Fraction:
    """p-th residue of a multivariable Laurent symbol in cycle coordinates:
    p^(Euler characteristic) times the sum of f over all b1-tuples of p-th
    roots of unity.  A monomial with exponents k survives exactly when p
    divides every k_i, contributing p^b1; so the result is exact."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    b1 = G.b1
    chi = G.euler
    scale = Fraction(p) ** chi
    total = Fraction(0)
    for exps, c in f.items():
        if len(exps) != b1:
            raise ValueError("symbol arity does not match b1 of the graph")
        if all(k % p == 0 for k in exps):
            total += c
    return scale * total * Fraction(p) ** b1


def liftres_check(G: BeadedGraph, p: int, forest: Sequence[int] | None = None) -> bool:
    """Exact agreement of the lift count with the residue of the symbol."""
    return Fraction(count_admissible(G, p)) == res_p_graph(phi_R(G, forest), G, p)


def liftres_sweep(
    G: BeadedGraph,
    p: int,
    max_cases: int | None = None,
    rng=None,
) -> tuple[int, int]:
    """Compare lift count against residue for bead tuples in {0..p-1}^E.

    Exhaustive by default.  The residue side is evaluated for all tuples
    at once from the per-automorphism cycle matrices (the same data
    phi_R uses); the lift side runs the independent coloring propagation
    per tuple.  When max_cases is given and smaller than p^E, a random
    sample of that size is used instead.  Returns (cases, failures).
    """
    E = len(G.edges)
    auts = automorphisms(G)
    _, cycles = fundamental_cycles(G)
    D = _aut_cycle_matrices(G, cycles, auts)
    total = p ** E
    if max_cases is not None and max_cases < total:
        if rng is None:
            raise ValueError("sampling needs an rng")
        tuples = np.array(
            [[rng.randrange(p) for _ in range(E)] for _ in range(max_cases)],
            dtype=np.int64,
        )
    else:
        tuples = np.array(list(product(range(p), repeat=E)), dtype=np.int64)
    ncase = tuples.shape[0]
    hits = np.zeros(ncase, dtype=np.int64)
    for ai in range(D.shape[0]):
        mono = tuples @ D[ai].T
        hits += np.all(mono % p == 0, axis=1)
    # residue * |Aut| = hits * p^b0  (all integers; compare cross-multiplied)
    pb0 = p ** G.b0
    naut = len(auts)
    failures = 0
    for row, h in zip(tuples, hits):
        left = count_admissible(G.with_beads([int(x) for x in row]), p)
        if left * naut != int(h) * pb0:
            failures += 1
    return ncase, failures


def push_at_vertex(G: BeadedGraph, v: int) -> BeadedGraph:
    """Slide a unit bead through vertex v: every non-loop edge entering v
    gains +1 on its bead, every one leaving v loses 1, loops at v are
    untouched.  Lift counts and cycle monodromies are invariant."""
    if not 0 <= v < G.n_vertices:
        raise ValueError("vertex out of range")
    edges = []
    for e in G.edges:
        m = e.bead
        if e.tail != e.head:
            if e.head == v:
                m += 1
            if e.tail == v:
                m -= 1
        edges.append((e.tail, e.head, m))
    return BeadedGraph(G.n_vertices, edges)
