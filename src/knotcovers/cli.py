"""Command line interface.

    knotcovers alexander --knot trefoil
    knotcovers signature --knot figure8 --p 7
    knotcovers branched  --knot trefoil --p 2..8 --format csv
    knotcovers growth    --knot figure8 --ps 10,20,50,100,200 --plot-data
    knotcovers residue   --q q2loop.json --p 2,3,5,7
    knotcovers liftres   --graph theta-theta --p 2..4
    knotcovers selftest

Knots come from the bundled corpus (``--knot NAME``) or from a JSON file
(``--file``) holding either a bare Seifert matrix ``[[0,1],[-1,0]]`` or a
full knot record ``{"name": ..., "seifert": ...}``.  2-loop classes are
JSON ``{"terms": [{"f": ..., "g": ..., "h": ..., "c": ...}]}`` with
Laurent polynomials written as exponent-to-coefficient maps.

Exit status: 0 on success; 1 when the request was well-formed but the
mathematics degenerates everywhere it was asked (for instance a branched
report over a range with no regular p at all); 2 on invalid input; 141
(128 + SIGPIPE), silently, when the reader of stdout closes it early.

Output is deterministic: floats are printed to 12 significant digits,
exact rationals as fraction strings.  ``main`` builds its parser on its
first call and reuses it for every later call in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import sys
from fractions import Fraction

from .exactalg import mahler_measure
from .lambdamat import AtOne, NotHermitian, SingularEvaluation, normalized_determinant
from .seifert import KnotRecord, corpus_record, signature_function
from .branched import (
    branched_report,
    casson_growth,
    is_p_regular,
    signature_average,
    torsion_growth,
)
from .theta import QSingularAtP, SingularOnTorus, ThetaClass, res_p_theta, torus_average
from .graphs import BeadedGraph, disjoint_union, eyes_graph, liftres_sweep, theta_graph
from .acceptance import run_selftest

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INVALID = 2
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader of stdout went away

_VALIDATION_ERRORS = (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError)
MAX_DEGREES = 10 ** 6  # most degrees p one command takes; a longer range exits 2 up front


class _DomainEmpty(Exception):
    """The request was valid but every value degenerated."""


# ---------------------------------------------------------------------------
# input plumbing


def _parse_ps(text: str) -> list[int]:
    """Parse a p specification: "7", "2..10", or "2,3,5"."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError("empty range %r" % text)
        if hi - lo >= MAX_DEGREES:
            raise ValueError("%d degrees in %r, more than %d" % (hi - lo + 1, text, MAX_DEGREES))
        ps = list(range(lo, hi + 1))
    else:
        ps = [int(tok) for tok in text.split(",") if tok.strip()]
    if not ps:
        raise ValueError("no p values in %r" % text)
    for p in ps:
        if p < 1:
            raise ValueError("p must be >= 1, got %d" % p)
    return ps


def _load_knot(args) -> KnotRecord:
    if getattr(args, "knot", None):
        return corpus_record(args.knot)
    if getattr(args, "file", None):
        with open(args.file) as fh:
            obj = json.load(fh)
        if isinstance(obj, list):
            return KnotRecord(name=args.file, seifert=obj)
        return KnotRecord.from_json(obj)
    raise ValueError("pass --knot NAME or --file SEIFERT.json")


def _load_q(args) -> ThetaClass | None:
    path = getattr(args, "q", None)
    if not path:
        return None
    with open(path) as fh:
        return ThetaClass.from_json(json.load(fh))


def _pick_q(args, rec: KnotRecord) -> ThetaClass | None:
    """Explicit --q wins; otherwise fall back to the record's own class."""
    q = _load_q(args)
    return q if q is not None else rec.q2loop


_GRAPHS = {
    "theta": theta_graph,
    "eyes": eyes_graph,
    "theta-theta": lambda: disjoint_union(theta_graph(), theta_graph()),
    "theta-eyes": lambda: disjoint_union(theta_graph(), eyes_graph()),
}


def _load_graph(args) -> BeadedGraph:
    if getattr(args, "graph", None):
        return _GRAPHS[args.graph]()
    if getattr(args, "file", None):
        with open(args.file) as fh:
            return BeadedGraph.from_json(json.load(fh))
    raise ValueError("pass --graph NAME or --file GRAPH.json")


# ---------------------------------------------------------------------------
# output plumbing


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _json_cell(v):
    return str(v) if isinstance(v, Fraction) else v


def _emit_rows(args, columns: list[str], rows: list[list], summary: dict | None = None):
    """Render rows in the requested format to stdout or --out."""
    fmt = args.format
    lines: list[str] = []
    # beta_p outgrows Python's int-to-str digit limit at large p; lift it
    # while rendering only, so input parsing keeps the default
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "csv":
            lines.append(",".join(columns))
            lines.extend(",".join(_cell(v) for v in row) for row in rows)
        elif fmt == "json":
            payload = {
                "columns": columns,
                "rows": [[_json_cell(v) for v in row] for row in rows],
            }
            if summary:
                payload.update({k: _json_cell(v) for k, v in summary.items()})
            lines.append(json.dumps(payload, indent=2))
        else:
            cells = [columns] + [[_cell(v) for v in row] for row in rows]
            widths = [max(len(r[i]) for r in cells) for i in range(len(columns))]
            for r in cells:
                lines.append("  ".join(x.ljust(w) for x, w in zip(r, widths)).rstrip())
            if summary:
                lines.append("")
                lines.extend("%s = %s" % (k, _cell(v)) for k, v in summary.items())
    finally:
        sys.set_int_max_str_digits(limit)
    _write_out(args, "\n".join(lines) + "\n")


def _emit_pairs(args, pairs: list[tuple]):
    """Bare "x y" lines for piping into a plotting tool."""
    _write_out(args, "".join("%s %s\n" % (_cell(x), _cell(y)) for x, y in pairs))


def _write_out(args, text: str):
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _on_torus(fn, *args):
    """fn(*args), or None for a blank cell when the 2-loop class has a pole
    on (or too near) the torus; the refusal's reason goes to stderr."""
    try:
        return fn(*args)
    except SingularOnTorus as e:
        print("note: %s left blank: %s" % (fn.__name__, e), file=sys.stderr)
        return None


# ---------------------------------------------------------------------------
# subcommands


def cmd_alexander(args) -> int:
    rec = _load_knot(args)
    knot = rec.knot
    delta = knot.delta
    rows = [
        ["name", rec.name],
        ["alexander", str(delta)],
        ["genus", knot.genus],
        ["determinant", abs(delta.evaluate(Fraction(-1)))],
        ["mahler", mahler_measure(delta)],
    ]
    try:
        if knot.seifert:
            rows.insert(2, ["clover_determinant", str(normalized_determinant(knot.clover))])
    except NotHermitian:
        pass  # valid, but not in a banded basis: there is no clover form
    _emit_rows(args, ["field", "value"], rows)
    return EXIT_OK


def cmd_signature(args) -> int:
    knot = _load_knot(args).knot
    ps = _parse_ps(args.p)
    if len(ps) != 1:
        raise ValueError("signature takes a single --p, not a range")
    (p,) = ps
    if p - 1 > MAX_DEGREES:
        raise ValueError("signature at p = %d has %d rows, more than %d" % (p, p - 1, MAX_DEGREES))
    knot.arcs  # a refused arc table exits 2 here, at every p, regular or not
    rows = []
    for k in range(1, p):
        try:
            sig = signature_function(knot, k, p)
        except SingularEvaluation:
            sig = None  # Alexander root on the unit circle: jump point
        rows.append([k, Fraction(k, p), sig])
    sigs = [row[2] for row in rows if row[2] is not None]
    summary = {}
    # no refused row means p is regular (a root of Delta at a p-th root of unity
    # refuses its row); else beta_p decides, and sigma_p refuses a near miss
    if len(sigs) == len(rows) or is_p_regular(knot, p):
        summary["total_sigma_p"] = knot.sigma_p(p)
    if not rows:
        raise _DomainEmpty("p = 1 has no interior roots of unity")
    _emit_rows(args, ["k", "k/p", "signature"], rows, summary)
    return EXIT_OK if sigs else EXIT_DOMAIN


def cmd_branched(args) -> int:
    rec = _load_knot(args)
    Q = _pick_q(args, rec)
    ps = _parse_ps(args.p)
    reports = branched_report(rec.knot, ps, Q=Q)
    columns = ["p", "regular", "sigma_p", "beta_p", "log_beta_over_p"]
    if Q is not None:
        columns.append("casson")
    rows = []
    for r in reports:
        row = [r.p, r.regular, r.sigma_p, r.beta_p, r.log_beta_over_p]
        if Q is not None:
            row.append(r.casson)
        rows.append(row)
    _emit_rows(args, columns, rows)
    if not any(r.regular for r in reports):
        raise _DomainEmpty("no regular p in the requested range")
    return EXIT_OK


def cmd_growth(args) -> int:
    rec = _load_knot(args)
    knot = rec.knot
    Q = _pick_q(args, rec)
    if not 1 <= args.pmax <= MAX_DEGREES:
        raise ValueError("pmax must be in 1..%d" % MAX_DEGREES)
    triples = torsion_growth(knot, _parse_ps(args.ps) if args.ps else range(1, args.pmax + 1))
    if not triples:
        raise _DomainEmpty("no regular p in the requested range")
    if args.plot_data:
        _emit_pairs(args, [(p, ratio) for p, _, ratio in triples])
        return EXIT_OK
    summary = {
        "mahler": mahler_measure(knot.delta),
        "signature_average": signature_average(knot),
    }
    if Q is not None:
        summary["casson_growth"] = _on_torus(casson_growth, knot, Q)
    _emit_rows(args, ["p", "beta_p", "log_beta_over_p"], [list(t) for t in triples], summary)
    return EXIT_OK


def cmd_residue(args) -> int:
    Q = _load_q(args)
    if Q is None:
        raise ValueError("residue needs --q FILE")
    ps = _parse_ps(args.p)
    rows = []
    usable = 0
    for p in ps:
        try:
            val = res_p_theta(Q, p)
            usable += 1
        except QSingularAtP:
            val = None
        rows.append([p, val])
    summary = {}
    summary["torus_average"] = _on_torus(torus_average, Q)
    _emit_rows(args, ["p", "res_p"], rows, summary)
    if not usable:
        raise _DomainEmpty("the class degenerates at every requested p")
    return EXIT_OK


def cmd_liftres(args) -> int:
    G = _load_graph(args)
    ps = _parse_ps(args.p)
    rng = random.Random(args.seed)
    rows = [[p, len(G.edges), *liftres_sweep(G, p, max_cases=args.max_cases, rng=rng)] for p in ps]
    _emit_rows(args, ["p", "edges", "cases", "failures"], rows)
    bad = sum(row[3] for row in rows)
    if bad:
        raise _DomainEmpty("%d bead tuples violated the lift/residue identity" % bad)
    return EXIT_OK


def cmd_selftest(args) -> int:
    criteria = [int(tok) for tok in args.criteria.split(",")] if args.criteria else None
    ok = run_selftest(criteria=criteria, inject_corruption=args.inject_corruption)
    return EXIT_OK if ok else EXIT_DOMAIN


# ---------------------------------------------------------------------------


def _add_knot_flags(sp):
    sp.add_argument("--knot", help="name of a bundled corpus knot")
    sp.add_argument("--file", help="JSON file: Seifert matrix or knot record")


def _add_common_flags(sp):
    sp.add_argument("--format", choices=["table", "csv", "json"], default="table")
    sp.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="knotcovers",
        description="abelian knot invariants and their cyclic branched covers",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("alexander", help="Alexander polynomial and scalar invariants")
    _add_knot_flags(sp)
    _add_common_flags(sp)
    sp.set_defaults(fn=cmd_alexander)

    sp = sub.add_parser("signature", help="signature function at p-th roots of unity")
    _add_knot_flags(sp)
    _add_common_flags(sp)
    sp.add_argument("--p", required=True, help="a single cover degree")
    sp.set_defaults(fn=cmd_signature)

    sp = sub.add_parser("branched", help="branched cover report over a range of p")
    _add_knot_flags(sp)
    _add_common_flags(sp)
    sp.add_argument("--p", required=True, help='degrees: "7", "2..10" or "2,3,5"')
    sp.add_argument("--q", help="JSON file with a 2-loop class (else the record's own)")
    sp.set_defaults(fn=cmd_branched)

    sp = sub.add_parser("growth", help="torsion growth toward the Mahler measure")
    _add_knot_flags(sp)
    _add_common_flags(sp)
    degrees = sp.add_mutually_exclusive_group()
    degrees.add_argument("--pmax", type=int, default=100, help="degrees 1..PMAX (default 100)")
    degrees.add_argument("--ps", help="explicit degrees instead of 1..pmax")
    sp.add_argument("--q", help="JSON file with a 2-loop class")
    sp.add_argument(
        "--plot-data", action="store_true", help='emit bare "p ratio" pairs only'
    )
    sp.set_defaults(fn=cmd_growth)

    sp = sub.add_parser("residue", help="res_p of a 2-loop class")
    _add_common_flags(sp)
    sp.add_argument("--q", required=True, help="JSON file with the class")
    sp.add_argument("--p", required=True, help="degrees")
    sp.set_defaults(fn=cmd_residue)

    sp = sub.add_parser("liftres", help="verify lift count = residue on bead sweeps")
    _add_common_flags(sp)
    sp.add_argument("--graph", choices=sorted(_GRAPHS), help="a built-in graph")
    sp.add_argument("--file", help="JSON file with a beaded graph")
    sp.add_argument("--p", required=True, help="degrees")
    sp.add_argument("--max-cases", type=int, help="sample this many bead tuples")
    sp.add_argument("--seed", type=int, default=0, help="sampling seed")
    sp.set_defaults(fn=cmd_liftres)

    sp = sub.add_parser("selftest", help="run the acceptance criteria")
    sp.add_argument("--criteria", help='subset like "1,4,6" (default: all)')
    sp.add_argument(
        "--inject-corruption",
        action="store_true",
        help="flip one frozen expected value; the run must fail",
    )
    sp.set_defaults(fn=cmd_selftest)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # main's own parser, built once per process; build_parser() callers get a fresh one
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows up here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader of stdout stopped early: no input error
        # a stdout with a descriptor goes to devnull, so the flush at exit succeeds
        with contextlib.suppress(AttributeError, ValueError, OSError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (_DomainEmpty, AtOne, QSingularAtP, SingularOnTorus) as e:
        print("domain: %s" % e, file=sys.stderr)
        return EXIT_DOMAIN
    except _VALIDATION_ERRORS as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
