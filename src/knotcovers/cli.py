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
exact rationals as fraction strings.  ``main`` reads a well-formed
command line straight from the command table, ``_COMMANDS``, which
declares every flag once, and loads no ``argparse``.  argparse is built
from the same table, with every command, only for help and usage errors,
and its messages and exit codes are the ones printed.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import sys
import types
from fractions import Fraction
from typing import TYPE_CHECKING

from .exactalg import SingularEvaluation, mahler_measure
from .lambdamat import AtOne, NotHermitian, normalized_determinant
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

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INVALID = 2
EXIT_PIPE = 141  # 128 + SIGPIPE: the reader of stdout went away

_VALIDATION_ERRORS = (ValueError, TypeError, OSError, json.JSONDecodeError)
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
    if type(v) is Fraction:
        return str(v)
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _csv_field(s: str) -> str:
    """s quoted, its quotes doubled, if it holds a comma, quote, CR or LF (RFC 4180)."""
    return '"%s"' % s.replace('"', '""') if any(c in s for c in ',"\r\n') else s


def _json_cell(v):
    return str(v) if type(v) is Fraction else v


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
            lines.append(",".join(map(_csv_field, columns)))
            lines.extend(",".join(_csv_field(_cell(v)) for v in row) for row in rows)
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
    # no table default: argparse skips the --ps clash for a value that `is` the default
    pmax = 100 if args.pmax is None else args.pmax
    if not 1 <= pmax <= MAX_DEGREES:
        raise ValueError("pmax must be in 1..%d" % MAX_DEGREES)
    triples = torsion_growth(knot, _parse_ps(args.ps) if args.ps else range(1, pmax + 1))
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
    rows = [[p, len(G.edges), *liftres_sweep(G, p, max_cases=args.max_cases)] for p in ps]
    _emit_rows(args, ["p", "edges", "cases", "failures"], rows)
    return EXIT_OK


def cmd_selftest(args) -> int:
    criteria = [int(tok) for tok in args.criteria.split(",")] if args.criteria else None
    ok = run_selftest(criteria=criteria, inject_corruption=args.inject_corruption)
    return EXIT_OK if ok else EXIT_DOMAIN


# ---------------------------------------------------------------------------
# the command table: each flag once, as the option and keywords of its
# add_argument call, in the order of -h; a list is a mutually exclusive group

_OUTPUT_FLAGS = (
    ("--format", dict(choices=["table", "csv", "json"], default="table")),
    ("--out", dict(help="write output to this file instead of stdout")),
)
_KNOT_FLAGS = (  # every knot command's flags: the knot's one source, then the output's
    [("--knot", dict(help="name of a bundled corpus knot")),
     ("--file", dict(help="JSON file: Seifert matrix or knot record"))],
    *_OUTPUT_FLAGS,
)

# name -> (help, flags, command), in the order of the usage line and of -h
_COMMANDS = {
    "alexander": ("Alexander polynomial and scalar invariants", _KNOT_FLAGS, cmd_alexander),
    "signature": ("signature function at p-th roots of unity", (
        *_KNOT_FLAGS,
        ("--p", dict(required=True, help="a single cover degree")),
    ), cmd_signature),
    "branched": ("branched cover report over a range of p", (
        *_KNOT_FLAGS,
        ("--p", dict(required=True, help='degrees: "7", "2..10" or "2,3,5"')),
        ("--q", dict(help="JSON file with a 2-loop class (else the record's own)")),
    ), cmd_branched),
    "growth": ("torsion growth toward the Mahler measure", (
        *_KNOT_FLAGS,
        [("--pmax", dict(type=int, help="degrees 1..PMAX (default 100)")),
         ("--ps", dict(help="explicit degrees instead of 1..pmax"))],
        ("--q", dict(help="JSON file with a 2-loop class")),
        ("--plot-data", dict(action="store_true", help='emit bare "p ratio" pairs only')),
    ), cmd_growth),
    "residue": ("res_p of a 2-loop class", (
        *_OUTPUT_FLAGS,
        ("--q", dict(required=True, help="JSON file with the class")),
        ("--p", dict(required=True, help="degrees")),
    ), cmd_residue),
    "liftres": ("decide lift count = residue for every bead tuple", (
        *_OUTPUT_FLAGS,
        [("--graph", dict(choices=sorted(_GRAPHS), metavar="NAME",
                          help="a built-in graph: %s" % ", ".join(sorted(_GRAPHS)))),
         ("--file", dict(help="JSON file with a beaded graph"))],
        ("--p", dict(required=True, help="degrees")),
        ("--max-cases", dict(type=int, help="cap the cases column (every tuple is decided)")),
        ("--seed", dict(type=int, default=0, help="no effect: no tuple is sampled")),
    ), cmd_liftres),
    "selftest": ("run the acceptance criteria", (
        ("--criteria", dict(help='subset like "1,4,6" (default: all)')),
        ("--inject-corruption", dict(
            action="store_true", help="flip one frozen expected value; the run must fail")),
    ), cmd_selftest),
}


def _flag_groups(flags) -> list[list]:
    # each table entry as a list of (option, keywords): a lone flag, or an exclusive group
    return [item if isinstance(item, list) else [item] for item in flags]


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser with every subcommand, built from ``_COMMANDS``."""
    import argparse  # here, not at import: a well-formed command line never needs it

    ap = argparse.ArgumentParser(
        prog="knotcovers",
        description="abelian knot invariants and their cyclic branched covers",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (summary, flags, fn) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for group in _flag_groups(flags):
            into = sp.add_mutually_exclusive_group() if len(group) > 1 else sp
            for option, kw in group:
                into.add_argument(option, **kw)
        sp.set_defaults(fn=fn)
    return ap


def _table_parse(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace argparse gives ``argv``, read from the command table; or None.

    Reads a strict subset of argparse's language: a command's name, then
    only its exact flags, each at most once, each value the next token,
    which must not start with "-", converted by its flag's type and in
    its choices; every required flag given, no exclusive pair together.
    On all of it argparse gives the same namespace.  Anything else, -h
    included, is None, for argparse to answer or refuse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, flags, fn = _COMMANDS[argv[0]]
    groups = _flag_groups(flags)
    table = {option: kw for group in groups for option, kw in group}
    given = {}
    tokens = iter(argv[1:])
    for option in tokens:
        kw = table.get(option)
        if kw is None or option in given:
            return None
        if kw.get("action") == "store_true":
            given[option] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if "type" in kw:
            try:
                value = kw["type"](value)
            except ValueError:
                return None
        if "choices" in kw and value not in kw["choices"]:
            return None
        given[option] = value
    if any(kw.get("required") and option not in given for option, kw in table.items()):
        return None
    if any(sum(option in given for option, _ in group) > 1 for group in groups):
        return None
    args = types.SimpleNamespace(command=argv[0])
    for option, kw in table.items():
        default = kw.get("default", False if kw.get("action") == "store_true" else None)
        setattr(args, option[2:].replace("-", "_"), given.get(option, default))
    args.fn = fn
    return args


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a well-formed command line is read from the table; argparse answers the rest
    args = _table_parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    # a command makes many short-lived containers and almost no cycles: a pass
    # of the cyclic collector there is pure cost, a third of a short command's
    collecting = gc.isenabled()
    gc.disable()
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
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
