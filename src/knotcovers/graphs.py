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
  inverts the corresponding variable), reading each automorphism's
  cycles pulled back to bead coordinates, kept once per topology like
  the automorphisms themselves, and ``res_p_graph`` sums the
  symbol over all tuples of p-th roots of unity, scaled by
  p^(Euler characteristic).

``liftres_check`` verifies that the two agree -- exactly, term by term --
and ``liftres_sweep`` runs the comparison over every bead tuple in
{0..p-1}^(#edges), or a seeded sample (random bytes read as the
narrowest unsigned words that hold p, so a seed gives other tuples than
the 64-bit words, and before them ``randrange``, drew), a block of a fixed
number of bytes at a time, one row per edge, at the narrowest integer
width that holds every sum the kernels form.  Its residue side rests on
one certificate per topology, cached like the automorphisms, which it
reads as int8 arrays: every automorphism acts on the cycle lattice by a matrix
whose inverse is its inverse automorphism's, hence det +-1, so all of
them share the kernel of the fundamental-cycle matrix mod p, and the
average over the group is one kernel test.  Its lift side replays
``count_admissible``'s coloring plan (``_coloring_plan``, the one walk of
the graph, which also gives the fundamental cycles) as row operations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import prod
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .exactalg import _json_object

__all__ = [
    "TooLarge",
    "BeadedGraph",
    "theta_graph",
    "eyes_graph",
    "disjoint_union",
    "count_admissible",
    "automorphisms",
    "phi_R",
    "res_p_graph",
    "liftres_check",
    "liftres_sweep",
]

_VERTEX_CAP = 8
# bead tuples one liftres_sweep may check: admits theta^3 at p = 5 (5^9,
# about 1.95M) and refuses it at p = 7 (40M); and bytes of beads per numpy
# block, 8,192 tuples of six int8 beads: a block of narrower beads holds
# more tuples, one of wider beads fewer.  The kernels' temporaries grow with
# the block: at four times this size, selftest's peak memory rose 0.13 MB
_SWEEP_CAP = 1 << 22
_BLOCK_BYTES = 8192 * 6


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
        _json_object(obj, "a graph", ("vertices", "edges"), required=("vertices", "edges"))
        edges = [_json_object(e, "an edge", ("from", "to", "bead"), required=("from", "to"))
                 for e in obj["edges"]]
        return cls(_json_int(obj["vertices"], "vertices"),
                   [(_json_int(e["from"], "from"), _json_int(e["to"], "to"),
                     _json_int(e.get("bead", 0), "bead")) for e in edges])

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
    once per topology (vertex count and edge endpoints), kept as a tuple
    of the rows of ``_aut_arrays``.
    """
    return _automorphisms(*_topology(G))


def _topology(G: BeadedGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The cache key of per-topology data: vertex count and edge endpoints."""
    return G.n_vertices, tuple((e.tail, e.head) for e in G.edges)


def _bare_graph(n: int, ends: tuple[tuple[int, int], ...]) -> BeadedGraph:
    """The beadless graph of a ``_topology`` key, with no re-check: the
    key comes from a valid graph."""
    G = BeadedGraph.__new__(BeadedGraph)
    G.n_vertices, G.edges = n, tuple(Edge(tail, head, 0) for tail, head in ends)
    return G


@lru_cache(maxsize=64)
def _automorphisms(n: int, ends: tuple[tuple[int, int], ...]) -> tuple[GraphAut, ...]:
    """The rows of ``_aut_arrays`` as ``GraphAut`` tuples, flips as bools,
    built only for the callers of ``automorphisms``: row by row, holding no
    list of every row, and with one vperm tuple shared by the rows over it."""
    vperms: dict[tuple[int, ...], tuple[int, ...]] = {}
    out = []
    for v, e, f in zip(*_aut_arrays(n, ends)):
        v = tuple(v.tolist())
        out.append(GraphAut(vperms.setdefault(v, v), tuple(e.tolist()), tuple(map(bool, f.tolist()))))
    return tuple(out)


@lru_cache(maxsize=64)
def _aut_arrays(n: int, ends: tuple[tuple[int, int], ...]
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The automorphisms of a topology as read-only int8 arrays, one row
    each: vertex permutations (A x n), edge images eperm (A x E) and flips
    (A x E, 1 for a reversed edge), in a fixed order.

    Class matching suffices: a vertex permutation carrying each class of
    edges with equal unordered endpoints onto one of the same size extends by
    every bijection of classes, a loop either way round, any other edge
    reversed exactly when the image of its tail is not its image's tail.
    Per vertex permutation (in ``permutations`` order) the options of each
    class (its bijections in ``permutations`` order, a loop class's flips
    in ``product`` order under each) are crossed by one ``np.indices`` grid,
    the last class fastest: one block of rows, no per-automorphism loop."""
    import numpy as np

    if n > _VERTEX_CAP:
        raise TooLarge("automorphism search capped at %d vertices" % _VERTEX_CAP)
    E = len(ends)
    classes: dict[tuple[int, int], list[int]] = {}
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
                # an edge is reversed iff the image of its tail is its image's
                # head: an equality, the int8 comparison the sweep makes too,
                # so no other numpy loop is paged in
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
    if not eblocks:
        raise ArithmeticError("identity must always be present")
    out = tuple(np.concatenate(blocks) for blocks in (vblocks, eblocks, fblocks))
    for a in out:
        a.flags.writeable = False
    return out


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


def _aut_cycle_matrices(C: np.ndarray, eperm: np.ndarray, flips: np.ndarray) -> np.ndarray:
    """Integer tensor D[a][i][e] with the property that the i-th cycle
    monodromy of the beads pushed forward by automorphism a equals
    sum_e D[a][i][e] * bead_e, for the cycle matrix C[i][e] and the
    automorphisms' edge permutations eperm[a] and flips[a] (0 or 1)."""
    return C[:, eperm].transpose(1, 0, 2) * (1 - 2 * flips[:, None, :])


def phi_R(G: BeadedGraph) -> dict[tuple[int, ...], Fraction]:
    """The symmetrized rational symbol of a beaded graph.

    In the coordinates of ``fundamental_cycles``, the unsymmetrized symbol
    of a bead labeling is the single monomial whose exponent vector is the
    tuple of cycle monodromies.
    phi_R averages this over all graph automorphisms acting on the
    labeling (edge reversal inverts the bead), each read as its cycles
    pulled back to bead coordinates (``_pulled_cycles``, once per
    topology).  Returned as a dict from exponent tuples (length b1) to
    rational coefficients summing to 1.
    """
    vectors, auts = _pulled_cycles(*_topology(G))
    beads = G.beads
    m = [sum(c * beads[e] for e, c in vec) for vec in vectors]
    hits: dict[tuple[int, ...], int] = {}
    for idx in auts:
        exps = tuple(map(m.__getitem__, idx))
        hits[exps] = hits.get(exps, 0) + 1
    return {k: Fraction(v, len(auts)) for k, v in hits.items()}


@lru_cache(maxsize=64)
def _pulled_cycles(n: int, ends: tuple[tuple[int, int], ...]
                   ) -> tuple[tuple[tuple[tuple[int, int], ...], ...], tuple[tuple[int, ...], ...]]:
    """The fundamental cycles of every automorphism, pulled back to bead
    coordinates: a pushes bead m_e to +-m_e on edge eperm[e] (- when a
    flips e), so the i-th monodromy of the pushed beads is sum_e c * m_e
    over the pairs (e, c), c = +-C[i][eperm[e]], of its pulled cycle i.
    Returned as the distinct pulled cycles and, per automorphism, the
    indices of its b1 of them, so each monodromy is summed once per call."""
    G = _bare_graph(n, ends)
    _, cycles = fundamental_cycles(G)
    index: dict[tuple[tuple[int, int], ...], int] = {}
    auts = tuple(
        tuple(index.setdefault(tuple((e, -cyc[f] if flip else cyc[f])
                                     for e, (f, flip) in enumerate(zip(aut.eperm, aut.flips))
                                     if f in cyc), len(index))
              for cyc in cycles)
        for aut in automorphisms(G))
    return tuple(index), auts


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
    exists (lift count p^comps, else 0).  The colors keep the beads' width:
    a color plus or minus a bead lies in (-p, 2p), reduced as x - (x // p) p,
    which numpy computes faster than x % p, and a check's difference lies
    in (-p, 2p) for s = 1, (-2p, p) for s = -1: it is 0 mod p iff 0 or s * p."""
    import numpy as np

    colors = np.zeros((plan.n_vertices, beads.shape[1]), dtype=beads.dtype)
    for w, v, e, s in plan.sets:
        x = colors[v] + s * beads[e]
        np.subtract(x, x // p * p, out=colors[w])
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
    U_a U_b = I for the inverse b of a, found among the same rows: an
    integral inverse, hence det U_a = +-1.  Then D[a] x = 0 mod p iff
    C x = 0 mod p, for every p, and phi_R's average over the group is the
    single test C x = 0 mod p.  ArithmeticError if any automorphism fails
    or its inverse is missing.  The automorphisms are read as the int8
    rows of ``_aut_arrays``, with no ``GraphAut`` built.  Certified once
    per topology, like the automorphisms, and kept read-only."""
    return _certificate(*_topology(G))


@lru_cache(maxsize=64)
def _certificate(n: int, ends: tuple[tuple[int, int], ...]) -> np.ndarray:
    """``_certified_cycle_matrix`` of a topology key: D and the inverse
    table come straight from the int8 rows of ``_aut_arrays``."""
    import numpy as np

    G = _bare_graph(n, ends)
    nonforest, cycles = fundamental_cycles(G)
    E = len(ends)
    C = np.array([[cyc.get(e, 0) for e in range(E)] for cyc in cycles],
                 dtype=np.int64).reshape(len(cycles), E)
    _, eperm, flips = _aut_arrays(n, ends)
    D = _aut_cycle_matrices(C, eperm, flips)
    U = D[:, :, nonforest]
    if not np.array_equal(D, U @ C):
        raise ArithmeticError("an automorphism does not act on the cycle lattice")
    # each signed permutation is keyed by one integer, the base-2E number
    # with digits 2 eperm[e] + flips[e] (int8: 2E <= 24 under the vertex
    # cap); a^-1 moves edge eperm[e] back to e, flipped as a flips e, so its
    # digit at f is own[e] = 2e + flips[e] for e = argsort(eperm)[f].  Keys
    # are looked up in a dict: numpy's sorted search on them added 0.4 MB to
    # the peak memory of a fresh liftres run (a matrix product, 0.1 MB).
    # With no edges, the empty graph's one key 0 comes back as a scalar
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
    C.flags.writeable = False
    return C


def _cycles_vanish(C: np.ndarray, beads: np.ndarray, p: int) -> np.ndarray:
    """Per bead tuple (column), whether every cycle monodromy is 0 mod p:
    each row of C, whose entries are 0 and +-1, adds and subtracts bead
    rows at the beads' width, which holds a sum of E beads below p."""
    import numpy as np

    ok = np.ones(beads.shape[1], dtype=bool)
    for row in C.tolist():
        m = sum(b if c > 0 else -b for c, b in zip(row, beads) if c)
        ok &= m == m // p * p
    return ok


def _bead_chunks(p: int, E: int, max_cases: int | None, rng) -> Iterator[np.ndarray]:
    """Bead tuples as the columns of (E, n) blocks at the narrowest integer
    width holding (E + 2) p in absolute value, enough for every color,
    check difference and cycle sum the kernels form, each block at most
    the tuples whose beads fit in _BLOCK_BYTES: all of {0..p-1}^E in
    lexicographic order, or max_cases tuples of random words.

    A word is the narrowest unsigned integer holding p (1, 2, 4 or 8
    bytes), read little-endian from the byte stream of ``rng.randbytes``,
    which is one stream only in whole 4-byte units: it is asked for
    multiples of 4 bytes, and the 0-3 bytes left over are carried to the
    next request.  Words at or above the largest multiple of p the word
    holds are rejected, only the deficit is drawn again, and the rest are
    reduced mod p.  The sample and the rng's final state are thus
    independent of _BLOCK_BYTES.

    An exhaustive block is one grid of the trailing k digits, p^k at most
    the block's tuples, made once, repeated under each of the block's
    prefixes of leading digits, which are columns of a second grid: no
    division."""
    import numpy as np

    dtype = np.min_scalar_type(-(E + 2) * p)
    chunk = _BLOCK_BYTES // (max(E, 1) * dtype.itemsize)
    if max_cases is None:
        k = 0
        while k < E and p ** (k + 1) <= chunk:
            k += 1
        tail = np.indices((p,) * k, dtype=dtype).reshape(k, p ** k)
        heads = np.indices((p,) * (E - k), dtype=dtype).reshape(E - k, p ** (E - k))
        step = chunk // p ** k
        for start in range(0, heads.shape[1], step):
            lead = heads[:, start:start + step]
            block = np.empty((E, lead.shape[1] * p ** k), dtype=dtype)
            block[:E - k] = np.repeat(lead, p ** k, axis=1)
            block[E - k:] = np.tile(tail, lead.shape[1])
            yield block
        return
    word = np.min_scalar_type(p).newbyteorder("<")
    span = 1 << 8 * word.itemsize
    top = word.type(span - span % p - 1)  # the largest word kept
    spare = b""

    def draw(count: int) -> np.ndarray:
        """The next count words of the stream, those kept by the rejection."""
        nonlocal spare
        short = count * word.itemsize - len(spare)
        stream = spare + rng.randbytes(short + -short % 4) if short > 0 else spare
        spare = stream[count * word.itemsize:]
        words = np.frombuffer(stream, dtype=word, count=count)
        return words[words <= top]

    for start in range(0, max_cases, chunk):
        n = min(chunk, max_cases - start)
        words = draw(E * n)
        while words.size < E * n:
            words = np.concatenate((words, draw(E * n - words.size)))
        np.remainder(words, word.type(p), out=words)  # in place: no second word array
        yield words.reshape(n, E).T.astype(dtype, order="C")


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
    independently over chunks of tuples, at the narrowest integer width
    holding (E + 2) p (``_bead_chunks``).  Returns (cases, failures).

    ValueError for p outside 1..2^63 / (E + 2) - 1, for max_cases below
    1, for sampling without an rng, and, before any work, for more than
    _SWEEP_CAP cases.
    """
    import numpy as np

    E = len(G.edges)
    # the widest batch, int64, must hold a cycle's sum of up to E beads
    # below p, and a color check's sum of three values below p
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
