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
{0..p-1}^(#edges), or a seeded sample of them, a chunk of tuples at a
time.  Its residue side rests on one certificate per graph: every
automorphism acts on the cycle lattice by a unimodular matrix, so all of
them share the kernel of the fundamental-cycle matrix mod p, and the
average over the group is one kernel test.  Its lift side replays the
coloring propagation of ``count_admissible`` as column operations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .lambdamat import rational_det

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
]

_VERTEX_CAP = 8
# bead tuples one liftres_sweep may check: admits theta^3 at p = 5 (5^9,
# about 1.95M) and refuses it at p = 7 (40M); and tuples per numpy batch,
# which keeps a batch's temporaries at a few hundred KB
_SWEEP_CAP = 1 << 22
_CHUNK = 1 << 12
# topology -> certified cycle matrix (see _certified_cycle_matrix), a few
# hundred bytes each, kept for the life of the process
_CERTIFIED: dict[tuple, np.ndarray] = {}


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


def automorphisms(G: BeadedGraph) -> tuple[GraphAut, ...]:
    """All automorphisms of the underlying graph (beads ignored).

    An automorphism is a vertex bijection plus a compatible edge
    bijection; an edge may land on its image with reversed orientation
    (flip), and a loop can map to itself either way, so loops contribute
    a factor of two each.  Brute force over vertex permutations -- fine
    for the handful of vertices these graphs have, guarded by TooLarge --
    once per topology (vertex count and edge endpoints), kept as a tuple.
    """
    if G.n_vertices > _VERTEX_CAP:
        raise TooLarge("automorphism search capped at %d vertices" % _VERTEX_CAP)
    return _automorphisms(*_topology(G))


def _topology(G: BeadedGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The cache key of per-topology data: vertex count and edge endpoints."""
    return G.n_vertices, tuple((e.tail, e.head) for e in G.edges)


@lru_cache(maxsize=64)
def _automorphisms(n: int, ends: tuple[tuple[int, int], ...]) -> tuple[GraphAut, ...]:
    classes: dict[tuple[int, int], list[int]] = {}
    for idx, (tail, head) in enumerate(ends):
        key = (min(tail, head), max(tail, head))
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
                    e, f = ends[e_idx], ends[f_idx]
                    img = (vperm[e[0]], vperm[e[1]])
                    if e[0] == e[1]:
                        if f[0] != f[1] or f[0] != img[0]:
                            feasible = False
                            break
                        flipchoices.append([False, True])
                    elif img == f:
                        flipchoices.append([False])
                    elif img == f[::-1]:
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
            eperm = [0] * len(ends)
            flips = [False] * len(ends)
            for key, (assign, combo) in zip(keys, choice):
                for e_idx, f_idx, fl in zip(classes[key], assign, combo):
                    eperm[e_idx] = f_idx
                    flips[e_idx] = fl
            out.append(GraphAut(tuple(vperm), tuple(eperm), tuple(flips)))
    if not out:
        raise ArithmeticError("identity must always be present")
    return tuple(out)


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


def _aut_cycle_matrices(C: np.ndarray, auts: Sequence[GraphAut]) -> np.ndarray:
    """Integer tensor D[a][i][e] with the property that the i-th cycle
    monodromy of the beads pushed forward by automorphism a equals
    sum_e D[a][i][e] * bead_e, for the cycle matrix C[i][e]."""
    eperm = np.array([aut.eperm for aut in auts], dtype=np.int64).reshape(len(auts), -1)
    sign = np.where(np.array([aut.flips for aut in auts], dtype=bool), -1, 1)
    return C[:, eperm].transpose(1, 0, 2) * sign.reshape(len(auts), 1, -1)


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
    hits: dict[tuple[int, ...], int] = {}
    for aut in auts:
        pushed = [0] * len(beads)
        for e, m in enumerate(beads):
            pushed[aut.eperm[e]] = -m if aut.flips[e] else m
        exps = cycle_monodromies(pushed, cycles)
        hits[exps] = hits.get(exps, 0) + 1
    return {k: Fraction(v, len(auts)) for k, v in hits.items()}


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


class _Plan(NamedTuple):
    """The coloring propagation of ``count_admissible`` with the beads left
    open.  A step (w, v, edge, sign) reads color[w] = color[v] + sign *
    bead[edge] mod p: ``sets`` fill in the colors in traversal order,
    ``checks`` are every other edge incidence, and ``comps`` counts the
    components, each of which shifts freely."""

    n_vertices: int
    sets: list[tuple[int, int, int, int]]
    checks: list[tuple[int, int, int, int]]
    comps: int


def _coloring_plan(G: BeadedGraph) -> _Plan:
    """Walk the graph as ``count_admissible`` does; which incidence sets
    a color and which checks one depends on the topology alone."""
    n = G.n_vertices
    incident: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for idx, e in enumerate(G.edges):
        incident[e.tail].append((idx, e.head, +1))
        incident[e.head].append((idx, e.tail, -1))
    colored = [False] * n
    sets, checks = [], []
    comps = 0
    for start in range(n):
        if colored[start]:
            continue
        comps += 1
        colored[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for idx, w, sign in incident[v]:
                if colored[w]:
                    checks.append((w, v, idx, sign))
                else:
                    colored[w] = True
                    sets.append((w, v, idx, sign))
                    stack.append(w)
    return _Plan(n, sets, checks, comps)


def _colorable(plan: _Plan, beads: np.ndarray, p: int) -> np.ndarray:
    """Per bead tuple (row), whether a Z_p coloring exists: the lift
    count is p^comps where True and 0 where False."""
    colors = np.zeros((beads.shape[0], plan.n_vertices), dtype=np.int64)
    for w, v, e, s in plan.sets:
        colors[:, w] = (colors[:, v] + s * beads[:, e]) % p
    w, v, e, s = np.array(plan.checks, dtype=np.int64).reshape(-1, 4).T
    return ((colors[:, v] + s * beads[:, e] - colors[:, w]) % p == 0).all(axis=1)


def _certified_cycle_matrix(G: BeadedGraph) -> np.ndarray:
    """The fundamental-cycle matrix C (b1 x E), once every automorphism a
    is shown to act on the cycle lattice by a unimodular U_a.

    C is the identity on the non-forest edges, so U_a can only be the
    non-forest columns of D[a]; the certificate is D[a] == U_a C and
    det U_a = +-1, exactly.  Then D[a] x = 0 mod p iff C x = 0 mod p, for
    every p, and phi_R's average over the group is the single test
    C x = 0 mod p.  ArithmeticError if any automorphism fails.  Certified
    once per topology and kept read-only in _CERTIFIED."""
    key = _topology(G)
    if key in _CERTIFIED:
        return _CERTIFIED[key]
    nonforest, cycles = fundamental_cycles(G)
    C = np.zeros((len(cycles), len(G.edges)), dtype=np.int64)
    for i, cyc in enumerate(cycles):
        for e, c in cyc.items():
            C[i, e] = c
    D = _aut_cycle_matrices(C, automorphisms(G))
    U = D[:, :, nonforest]
    if not np.array_equal(D, U @ C):
        raise ArithmeticError("an automorphism does not act on the cycle lattice")
    for u in {u.tobytes(): u for u in U}.values():
        if abs(rational_det(u.tolist())) != 1:
            raise ArithmeticError("an automorphism acts on the cycle lattice with det != +-1")
    C.flags.writeable = False
    _CERTIFIED[key] = C
    return C


def _cycles_vanish(C: np.ndarray, beads: np.ndarray, p: int) -> np.ndarray:
    """Per bead tuple (row), whether every cycle monodromy is 0 mod p."""
    return ((beads @ C.T) % p == 0).all(axis=1)


def _bead_chunks(p: int, E: int, max_cases: int | None, rng) -> Iterator[np.ndarray]:
    """Bead tuples in int64 blocks of at most _CHUNK rows: all of
    {0..p-1}^E in lexicographic order (mixed-radix digits of a running
    index) when max_cases is None, else max_cases rows of E
    ``rng.randrange(p)`` draws each, drawn row by row."""
    if max_cases is None:
        total = p ** E
        place = p ** np.arange(E - 1, -1, -1, dtype=np.int64)
        for start in range(0, total, _CHUNK):
            index = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
            yield index[:, None] // place % p
    else:
        for start in range(0, max_cases, _CHUNK):
            n = min(_CHUNK, max_cases - start)
            draws = [rng.randrange(p) for _ in range(n * E)]
            yield np.array(draws, dtype=np.int64).reshape(n, E)


def liftres_sweep(
    G: BeadedGraph,
    p: int,
    max_cases: int | None = None,
    rng=None,
) -> tuple[int, int]:
    """Compare lift count against residue for bead tuples in {0..p-1}^E.

    Exhaustive by default; when max_cases is given and smaller than p^E,
    a sample of that size drawn from rng.  On a tuple x both sides are 0
    or p^b0: the lift count when the coloring plan of ``count_admissible``
    goes through, and the residue p^b0 * hits / |Aut| when C x = 0 mod p
    (the certificate makes hits = |Aut| or 0).  Each side is evaluated
    independently over chunks of tuples.  Returns (cases, failures).

    ValueError for p outside 1..2^63 / (E + 2) - 1, for max_cases below
    1, for sampling without an rng, and, before any work, for more than
    _SWEEP_CAP cases.
    """
    E = len(G.edges)
    # int64 must hold a cycle's sum of up to E beads below p, and a color
    # check's sum of three values below p
    pmax = 2 ** 63 // (E + 2) - 1
    if not 1 <= p <= pmax:
        raise ValueError("p must lie in 1..%d, where the int64 batches stay exact" % pmax)
    if max_cases is not None and max_cases < 1:
        raise ValueError("max_cases (--max-cases) must be at least 1, got %d" % max_cases)
    total = p ** E
    if max_cases is not None and max_cases >= total:
        max_cases = None
    if max_cases is not None and rng is None:
        raise ValueError("sampling needs an rng")
    ncase = total if max_cases is None else max_cases
    if ncase > _SWEEP_CAP:
        raise ValueError(
            "%d bead tuples exceed the sweep cap of %d; sample fewer with --max-cases"
            % (ncase, _SWEEP_CAP)
        )
    C = _certified_cycle_matrix(G)
    plan = _coloring_plan(G)
    if plan.comps != G.b0:
        raise ArithmeticError("the coloring plan must visit every component once")
    failures = 0
    for beads in _bead_chunks(p, E, max_cases, rng):
        failures += int(np.count_nonzero(_colorable(plan, beads, p) != _cycles_vanish(C, beads, p)))
    return ncase, failures
