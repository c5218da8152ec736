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
  cycles pulled back to bead coordinates once per topology, and
  ``res_p_graph`` sums the symbol over all tuples of p-th roots of unity,
  scaled by p^(Euler characteristic).

The automorphisms of a topology are one choice of one option per class of
parallel edges under each admissible vertex permutation
(``_class_options``); ``phi_R`` reads them, and liftres does not.
``liftres_check`` verifies that the two quantities agree -- exactly, term
by term -- on one beaded graph, and ``liftres_sweep`` decides it for every
bead tuple in {0..p-1}^(#edges) and every p at once, from the topology
alone, by reading the cycle basis C (``_cycle_basis``), built and checked
once per topology.  That is the one replay of ``count_admissible``'s
coloring plan (``_coloring_plan``, the one walk of the graph) on linear
forms in the beads: each check of the plan, times its sign, is the row
of C for its edge, so the lift side's condition is C x = 0 mod p.  C is
checked to be a basis of the cycle lattice; every automorphism is a
chain isomorphism, so it acts on that lattice by an integral matrix with
an integral inverse, and the residue side's average over the group is
the same condition.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Iterable, Mapping, NamedTuple, Sequence

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


class TooLarge(ValueError):
    """Brute-force automorphism search, and liftres, are capped at a small
    vertex count (``_check_vertex_cap``); the message names the graph's."""


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
        if n < 0:
            raise ValueError("vertex count must be non-negative, got %d" % n)
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
    once per topology (vertex count and edge endpoints): one automorphism
    per choice of one option per class (``_class_options``).
    """
    return _automorphisms(*_topology(G))


def _check_vertex_cap(n: int) -> None:
    """TooLarge past ``_VERTEX_CAP`` vertices.  The automorphism search
    walks n! vertex permutations; liftres keeps C (b1 x E) and the plan's
    forms (n x E) dense, so its cost grows as n^2."""
    if n > _VERTEX_CAP:
        raise TooLarge("graph has %d vertices; automorphisms and liftres are capped at %d"
                       % (n, _VERTEX_CAP))


def _topology(G: BeadedGraph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The cache key of per-topology data: vertex count and edge endpoints."""
    return G.n_vertices, tuple((e.tail, e.head) for e in G.edges)


def _class_options(n: int, ends: tuple[tuple[int, int], ...]):
    """Per vertex permutation vperm (in ``permutations`` order) carrying each
    class of edges with equal unordered endpoints onto a class of the same
    size, yield vperm and, per class in sorted order, its edges and their
    options.  An option is a bijection onto the image class (in
    ``permutations`` order) and one flip per edge: a loop either way round
    (in ``product`` order under each bijection), any other edge reversed
    exactly when the image of its tail is not its image's tail.  The
    automorphisms under vperm are every choice of one option per class.
    Only ``_automorphisms`` reads them; the tests check that every option
    is a bijective chain map and that the identity is among them, which
    checks this enumeration, not liftres (``_cycle_basis``)."""
    _check_vertex_cap(n)
    classes: dict[tuple[int, int], list[int]] = {}
    for idx, (tail, head) in enumerate(ends):
        classes.setdefault((min(tail, head), max(tail, head)), []).append(idx)
    order = sorted(classes.items())
    for vperm in permutations(range(n)):
        per_class = []
        for (a, b), src in order:
            tgt = classes.get((min(vperm[a], vperm[b]), max(vperm[a], vperm[b])), ())
            if len(tgt) != len(src):
                break
            opts = []
            for assign in permutations(tgt):
                if a == b:
                    opts += [(assign, fl) for fl in product((False, True), repeat=len(src))]
                else:
                    opts.append((assign, tuple(vperm[ends[e][0]] != ends[f][0]
                                               for e, f in zip(src, assign))))
            per_class.append((src, opts))
        else:
            yield vperm, per_class


@lru_cache(maxsize=64)
def _automorphisms(n: int, ends: tuple[tuple[int, int], ...]) -> tuple[GraphAut, ...]:
    """``automorphisms`` of a topology key: per vertex permutation of
    ``_class_options``, one ``GraphAut`` per choice of one option per class,
    the last class fastest."""
    out = []
    for vperm, per_class in _class_options(n, ends):
        for choice in product(*(opts for _, opts in per_class)):
            eperm, flips = [0] * len(ends), [False] * len(ends)
            for (src, _), (assign, fl) in zip(per_class, choice):
                for e, f, x in zip(src, assign, fl):
                    eperm[e], flips[e] = f, x
            out.append(GraphAut(vperm, tuple(eperm), tuple(flips)))
    return tuple(out)


# ---------------------------------------------------------------------------
# fundamental cycles and the rational symbol


def fundamental_cycles(G: BeadedGraph) -> tuple[list[int], list[dict[int, int]]]:
    """(non-forest edge indices, cycle vectors) for the spanning forest of
    ``_coloring_plan``, the edges that set a color.

    The cycle of a non-forest edge e = (a -> b) is e followed by the
    forest path from b back to a; the vector maps edge index to its
    signed multiplicity (+1 when traversed tail to head).  The vectors are
    the rows of the topology's ``_cycle_basis``.  The forest is read off
    the plan, as C alone does not fix it: a forest edge on one cycle,
    traversed with it, has the same column as that cycle's own edge.
    """
    forest = {e for _, _, e, _ in _coloring_plan(G).sets}
    return ([e for e in range(len(G.edges)) if e not in forest],
            [{e: c for e, c in enumerate(row) if c} for row in _cycle_basis(*_topology(G))])


def _beadless(n: int, ends: tuple[tuple[int, int], ...]) -> BeadedGraph:
    """The graph of a topology key with every bead 0, built with no
    re-check: the key comes from a valid graph."""
    G = BeadedGraph.__new__(BeadedGraph)
    G.n_vertices, G.edges = n, tuple(Edge(tail, head, 0) for tail, head in ends)
    return G


def phi_R(G: BeadedGraph) -> dict[tuple[int, ...], Fraction]:
    """The symmetrized rational symbol of a beaded graph.

    In the coordinates of ``fundamental_cycles``, the unsymmetrized symbol
    of a bead labeling is the single monomial whose exponent vector is the
    tuple of cycle monodromies.
    phi_R averages this over all graph automorphisms acting on the
    labeling (edge reversal inverts the bead), each read as its cycles
    pulled back to bead coordinates (``_pulled_cycles``, built from the
    ``GraphAut`` tuples once per topology).  Returned as a dict from
    exponent tuples (length b1) to
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
    over the pairs (e, c), c = +-C[i][eperm[e]] != 0, of its pulled cycle
    i, in edge order.  Returned as the distinct pulled cycles (first seen
    first, over ``_automorphisms`` in order) and, per automorphism, the
    indices of its b1 of them, so each monodromy is summed once per call."""
    _, cycles = fundamental_cycles(_beadless(n, ends))
    index: dict[tuple[tuple[int, int], ...], int] = {}
    auts = []
    for aut in _automorphisms(n, ends):
        signed = list(enumerate(zip(aut.eperm, aut.flips)))
        auts.append(tuple(
            index.setdefault(tuple((e, -cyc[f] if x else cyc[f]) for e, (f, x) in signed
                                   if f in cyc), len(index))
            for cyc in cycles))
    return tuple(index), tuple(auts)


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
    walk behind ``count_admissible`` and, replayed once per topology on
    linear forms in the beads, the cycle basis (``_cycle_basis``).
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


@lru_cache(maxsize=64)
def _cycle_basis(n: int, ends: tuple[tuple[int, int], ...]) -> tuple[tuple[int, ...], ...]:
    """The fundamental-cycle matrix C of a topology key (b1 x E, one tuple
    per row, so no caller can change the kept copy), read off the coloring
    plan's checks.  The plan's ``sets``, replayed on integer linear forms in
    the beads, give each vertex its color as a form; a check (w, v, e, s)
    holds on beads x when the form forms[v] - forms[w] + s delta_e is 0 at
    x mod p, the condition ``count_admissible`` tests, and s times that
    form is the row of C for edge e: e, plus the forest path to its tail,
    minus the path to its head.  Rows are in edge order.  ArithmeticError, naming the topology
    and what failed, unless the plan visits the b0 components, C has b1
    rows, one per non-forest edge, each of zero boundary, and C is the
    identity on the non-forest columns.

    Why these checks are all that liftres needs.  The rows of C are then a
    basis of the cycle lattice Z_1(G) = H_1(G; Z): the forest holds no
    cycle, so a cycle is the combination of C's rows read off its
    non-forest entries.  An automorphism a maps vertices bijectively, and
    maps edges bijectively while respecting incidence up to a flip, so a is
    a chain isomorphism, and so is a^-1.  Hence D[a] = U_a C, D[a] being
    C's rows pulled back through a and U_a being D[a] on the non-forest
    columns, and U_a U_(a^-1) = I.  So D[a] x = 0 mod p exactly when
    C x = 0 mod p, for every automorphism a and every p, whether
    enumerated or not, and phi_R's average over the group is the single
    test C x = 0 mod p.  C is, up to sign, the lift side's own checks, so
    lift count = residue on every tuple and every p."""
    E, key = len(ends), (n, ends)
    G = _beadless(n, ends)
    plan = _coloring_plan(G)
    forms = [[0] * E for _ in range(n)]
    for w, v, e, s in plan.sets:
        forms[w] = forms[v][:]
        forms[w][e] += s
    checks = []
    for w, v, e, s in plan.checks:
        row = [a - b for a, b in zip(forms[v], forms[w])]
        row[e] += s
        checks.append((e, tuple(s * c for c in row)))
    C = tuple(row for _, row in sorted(checks))
    forest = {e for _, _, e, _ in plan.sets}
    nonforest = [e for e in range(E) if e not in forest]
    if plan.comps != G.b0:
        raise ArithmeticError("topology %r: the coloring plan visits %d components, not b0 = %d"
                              % (key, plan.comps, G.b0))
    if not len(C) == len(nonforest) == G.b1:
        raise ArithmeticError("topology %r: C has %d rows for %d non-forest edges, not b1 = %d"
                              % (key, len(C), len(nonforest), G.b1))
    for i, row in enumerate(C):
        boundary = [0] * n
        for (tail, head), c in zip(ends, row):
            boundary[tail] -= c
            boundary[head] += c
        if any(boundary):
            raise ArithmeticError("topology %r: row %d of C has nonzero boundary" % (key, i))
        if [row[f] for f in nonforest] != [int(j == i) for j in range(len(C))]:
            raise ArithmeticError("topology %r: C is not the identity on the non-forest columns"
                                  % (key,))
    return C


def liftres_sweep(G: BeadedGraph, p: int, max_cases: int | None = None) -> tuple[int, int]:
    """Decide lift count = residue for every bead tuple in {0..p-1}^E at once.

    On a tuple x both sides are 0 or p^b0: the lift count when every check
    of the coloring plan holds (``count_admissible``), and the residue when
    C x = 0 mod p, for the cycle basis C (``_cycle_basis``), which needs no
    automorphism.  C's rows are the plan's checks up to sign, so the two
    conditions are one, for every x and every p, once C passes its checks.
    Returns (cases, 0), cases being p^E, or min(max_cases, p^E) when
    max_cases is given.

    ValueError for p or max_cases below 1; TooLarge past ``_VERTEX_CAP``
    vertices; ArithmeticError, naming the topology, if C fails its checks.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if max_cases is not None and max_cases < 1:
        raise ValueError("max_cases (--max-cases) must be at least 1, got %d" % max_cases)
    _check_vertex_cap(G.n_vertices)
    _cycle_basis(*_topology(G))
    total = p ** len(G.edges)
    return (total if max_cases is None else min(max_cases, total)), 0
