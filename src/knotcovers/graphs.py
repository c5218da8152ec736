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
* the residue ``res_p_graph`` of the symbol ``phi_R``: the coloring
  plan's walk (``_coloring_plan``) picks a spanning forest; the surviving
  b_1 edges carry independent variables, and the bead data determines a
  monomial whose exponents are the fundamental-cycle monodromies, read
  off the same walk.  ``phi_R`` averages that monomial over the
  automorphism group of the graph (automorphisms may reverse edges, which
  inverts the corresponding variable), and ``res_p_graph`` sums the
  symbol over all tuples of p-th roots of unity, scaled by
  p^(Euler characteristic).

``liftres_check`` verifies that the two agree -- exactly, term by term --
and ``liftres_sweep`` runs the comparison over every bead tuple in
{0..p-1}^(#edges), or a seeded sample (drawn from random bytes since the
array-speed sweep, so a seed now gives other tuples than its ``randrange``
draws did), a block of tuples at a time, one row per edge.  Its residue
side rests on one certificate per topology, cached like the
automorphisms: every automorphism acts on the cycle lattice by a matrix
whose inverse is its inverse automorphism's, hence det +-1, so all of
them share the kernel of the fundamental-cycle matrix mod p, and the
average over the group is one kernel test.  Its lift side replays
``count_admissible``'s coloring plan (``_coloring_plan``, the one walk of
the graph, which also gives the fundamental cycles) as row operations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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
            _json_int(obj["vertices"], "vertices"),
            [(_json_int(e["from"], "from"), _json_int(e["to"], "to"),
              _json_int(e.get("bead", 0), "bead")) for e in obj["edges"]],
        )

    def __repr__(self) -> str:
        return "BeadedGraph(%d, %r)" % (
            self.n_vertices,
            [(e.tail, e.head, e.bead) for e in self.edges],
        )


def _json_int(v, key: str) -> int:
    """The value v of a JSON field key, which must be an integer: a float,
    bool or string is refused, not truncated or parsed."""
    if type(v) is not int:
        raise ValueError("%r must be an integer, got %r" % (key, v))
    return v


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
    every edge, for any p >= 1 in Python ints: the coloring plan
    (``_coloring_plan``, the one walk of the graph) is replayed on G's
    beads, its ``sets`` fill in the colors and any failing ``checks``
    entry gives 0; otherwise each component shifts freely, giving
    p^comps."""
    if p < 1:
        raise ValueError("p must be a positive integer")
    plan = _coloring_plan(G)
    beads = G.beads
    color = [0] * plan.n_vertices
    for w, v, e, s in plan.sets:
        color[w] = (color[v] + s * beads[e]) % p
    if any((color[v] + s * beads[e] - color[w]) % p for w, v, e, s in plan.checks):
        return 0
    return p ** plan.comps


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
    """Class matching suffices: a vertex permutation carrying each class of
    edges with equal unordered endpoints onto one of the same size extends by
    every bijection of classes, a loop either way round, any other edge
    reversed exactly when the image of its tail is not its image's tail."""
    classes: dict[tuple[int, int], list[int]] = {}
    for idx, (tail, head) in enumerate(ends):
        classes.setdefault((min(tail, head), max(tail, head)), []).append(idx)
    out: list[GraphAut] = []
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
    if not out:
        raise ArithmeticError("identity must always be present")
    return tuple(out)


# ---------------------------------------------------------------------------
# fundamental cycles and the rational symbol


def fundamental_cycles(G: BeadedGraph) -> tuple[list[int], list[dict[int, int]]]:
    """(non-forest edge indices, cycle vectors) for the spanning forest of
    ``_coloring_plan``, the edges that set a color.

    The cycle of a non-forest edge e = (a -> b) is e followed by the
    forest path from b back to a; the vector maps edge index to its
    signed multiplicity (+1 when traversed tail to head).  The signed
    forest path from its component's root to each vertex is read off the
    plan's walk, which sets a vertex after the vertex it is reached from.
    """
    sets = _coloring_plan(G).sets
    path: list[dict[int, int]] = [{} for _ in range(G.n_vertices)]
    for w, v, e, s in sets:
        path[w] = {**path[v], e: s}
    forest = {e for _, _, e, _ in sets}
    nonforest = [i for i in range(len(G.edges)) if i not in forest]
    cycles = []
    for idx in nonforest:
        e = G.edges[idx]
        vec: dict[int, int] = {idx: 1}
        for k, s in path[e.tail].items():
            vec[k] = vec.get(k, 0) + s
        for k, s in path[e.head].items():
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
    import numpy as np

    eperm = np.array([aut.eperm for aut in auts], dtype=np.int64).reshape(len(auts), -1)
    sign = np.where(np.array([aut.flips for aut in auts], dtype=bool), -1, 1)
    return C[:, eperm].transpose(1, 0, 2) * sign.reshape(len(auts), 1, -1)


def phi_R(G: BeadedGraph) -> dict[tuple[int, ...], Fraction]:
    """The symmetrized rational symbol of a beaded graph.

    In the coordinates of ``fundamental_cycles``, the unsymmetrized symbol
    of a bead labeling is the single monomial whose exponent vector is the
    tuple of cycle monodromies.
    phi_R averages this over all graph automorphisms acting on the
    labeling (edge reversal inverts the bead).  Returned as a dict from
    exponent tuples (length b1) to rational coefficients summing to 1.
    """
    _, cycles = fundamental_cycles(G)
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


def liftres_check(G: BeadedGraph, p: int) -> bool:
    """Exact agreement of the lift count with the residue of the symbol."""
    return Fraction(count_admissible(G, p)) == res_p_graph(phi_R(G), G, p)


class _Plan(NamedTuple):
    """The coloring propagation over G with the beads left open, the one
    walk behind both ``count_admissible`` and ``liftres_sweep``'s lift side.
    A step (w, v, edge, sign) reads color[w] = color[v] + sign * bead[edge]
    mod p: ``sets`` fill in the colors in traversal order, ``checks`` hold
    every other edge once (b1 of them), and ``comps`` counts the
    components, each of which shifts freely."""

    n_vertices: int
    sets: list[tuple[int, int, int, int]]
    checks: list[tuple[int, int, int, int]]
    comps: int


def _coloring_plan(G: BeadedGraph) -> _Plan:
    """Walk the graph once, depth first from the lowest uncolored vertex,
    taking each vertex's incidences in edge order and each edge once, at
    its first incidence: a forest edge sets a color, any other is one
    check.  Which is which depends on the topology alone."""
    n = G.n_vertices
    incident: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for idx, e in enumerate(G.edges):
        incident[e.tail].append((idx, e.head, +1))
        incident[e.head].append((idx, e.tail, -1))
    colored, walked = [False] * n, [False] * len(G.edges)
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
                if walked[idx]:
                    continue
                walked[idx] = True
                if colored[w]:
                    checks.append((w, v, idx, sign))
                else:
                    colored[w] = True
                    sets.append((w, v, idx, sign))
                    stack.append(w)
    return _Plan(n, sets, checks, comps)


def _colorable(plan: _Plan, beads: np.ndarray, p: int) -> np.ndarray:
    """Per bead tuple (column, beads in 0..p-1), whether a Z_p coloring
    exists (lift count p^comps, else 0).  A check's difference lies in
    (-p, 2p) for s = 1, (-2p, p) for s = -1: it is 0 mod p iff 0 or s * p."""
    import numpy as np

    colors = np.zeros((plan.n_vertices, beads.shape[1]), dtype=np.int64)
    for w, v, e, s in plan.sets:
        np.remainder(colors[v] + s * beads[e], p, out=colors[w])
    ok = np.ones(beads.shape[1], dtype=bool)
    for w, v, e, s in plan.checks:
        diff = colors[v] + s * beads[e] - colors[w]
        ok &= (diff == 0) | (diff == s * p)
    return ok


def _certified_cycle_matrix(G: BeadedGraph) -> np.ndarray:
    """The fundamental-cycle matrix C (b1 x E), once every automorphism a
    is shown to act on the cycle lattice by a unimodular U_a.

    C is the identity on the non-forest edges, so U_a can only be the
    non-forest columns of D[a]; the certificate is D[a] == U_a C and
    U_a U_b = I for the inverse b of a, found in the same tuple: an
    integral inverse, hence det U_a = +-1.  Then D[a] x = 0 mod p iff
    C x = 0 mod p, for every p, and phi_R's average over the group is the
    single test C x = 0 mod p.  ArithmeticError if any automorphism fails
    or its inverse is missing.  Certified once per topology, like
    ``automorphisms``, and kept read-only."""
    return _certificate(*_topology(G))


@lru_cache(maxsize=64)
def _certificate(n: int, ends: tuple[tuple[int, int], ...]) -> np.ndarray:
    import numpy as np

    G = BeadedGraph.__new__(BeadedGraph)  # no re-check: ends come from a valid graph
    G.n_vertices, G.edges = n, tuple(Edge(tail, head, 0) for tail, head in ends)
    nonforest, cycles = fundamental_cycles(G)
    C = np.array([[cyc.get(e, 0) for e in range(len(ends))] for cyc in cycles], dtype=np.int64)
    auts = automorphisms(G)
    D = _aut_cycle_matrices(C, auts)
    U = D[:, :, nonforest]
    if not np.array_equal(D, U @ C):
        raise ArithmeticError("an automorphism does not act on the cycle lattice")
    index = {(aut.eperm, aut.flips): i for i, aut in enumerate(auts)}
    inverse = []
    for aut in auts:  # a^-1 takes edge eperm[e] back to e, flipped as a flips e
        eperm, flips = [0] * len(ends), [False] * len(ends)
        for e, f in enumerate(aut.eperm):
            eperm[f], flips[f] = e, aut.flips[e]
        inverse.append(index.get((tuple(eperm), tuple(flips)), -1))
    if -1 in inverse:
        raise ArithmeticError("an automorphism's inverse is missing from the group")
    if not (U @ U[inverse] == np.eye(len(nonforest), dtype=np.int64)).all():
        raise ArithmeticError("an automorphism's action times its inverse's is not I")
    C.flags.writeable = False
    return C


def _cycles_vanish(C: np.ndarray, beads: np.ndarray, p: int) -> np.ndarray:
    """Per bead tuple (column), whether every cycle monodromy is 0 mod p."""
    return ((C @ beads) % p == 0).all(axis=0)


def _bead_chunks(p: int, E: int, max_cases: int | None, rng) -> Iterator[np.ndarray]:
    """Bead tuples as the columns of int64 (E, n) blocks, n <= _CHUNK: all
    of {0..p-1}^E in lexicographic order (mixed-radix digits of a running
    index), or max_cases tuples of little-endian 64-bit ``rng.randbytes``
    words, p < 2^63, rejecting those at or above the largest multiple of p
    below 2^64, drawing only the deficit again and reducing the rest mod p.
    The sample and the rng's final state are thus independent of _CHUNK."""
    import numpy as np

    if max_cases is None:
        total = p ** E
        place = p ** np.arange(E - 1, -1, -1, dtype=np.int64)[:, None]
        for start in range(0, total, _CHUNK):
            index = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
            yield index // place % p
    else:
        top = np.uint64((1 << 64) - (1 << 64) % p - 1)  # the largest word kept
        for start in range(0, max_cases, _CHUNK):
            n = min(_CHUNK, max_cases - start)
            words = np.frombuffer(rng.randbytes(8 * E * n), dtype="<u8")
            words = words[words <= top]
            while words.size < E * n:
                more = np.frombuffer(rng.randbytes(8 * (E * n - words.size)), dtype="<u8")
                words = np.concatenate((words, more[more <= top]))
            block = np.empty((E, n), dtype=np.int64)
            np.remainder(words.reshape(n, E).T, np.uint64(p), out=block.view(np.uint64))
            yield block


def liftres_sweep(
    G: BeadedGraph,
    p: int,
    max_cases: int | None = None,
    rng=None,
) -> tuple[int, int]:
    """Compare lift count against residue for bead tuples in {0..p-1}^E.

    Exhaustive by default; when max_cases is given and smaller than p^E,
    a sample of that size drawn from rng.  On a tuple x both sides are 0
    or p^b0: the lift count when the coloring plan (``_coloring_plan``)
    goes through, and the residue p^b0 * hits / |Aut| when C x = 0 mod p
    (the certificate makes hits = |Aut| or 0).  Each side is evaluated
    independently over chunks of tuples.  Returns (cases, failures).

    ValueError for p outside 1..2^63 / (E + 2) - 1, for max_cases below
    1, for sampling without an rng, and, before any work, for more than
    _SWEEP_CAP cases.
    """
    import numpy as np

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
    if plan.comps != G.b0 or len(plan.checks) != G.b1:
        raise ArithmeticError("the coloring plan must visit every component and check each"
                              " non-forest edge once")
    failures = 0
    for beads in _bead_chunks(p, E, max_cases, rng):
        failures += int(np.count_nonzero(_colorable(plan, beads, p) != _cycles_vanish(C, beads, p)))
    return ncase, failures
