"""Checks on the package source itself."""

import argparse
import ast
import doctest
import importlib
import json
import os
import re
import runpy
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import knotcovers

SRC = Path(knotcovers.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_no_assert_in_production_code():
    # python -O strips assert statements; every check in the package must
    # raise explicitly so that it survives optimized runs
    paths = sorted(SRC.glob("*.py"))
    assert paths, "package source not found"
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_tolerance_parameters():
    # numeric tolerances are module constants, not knobs a caller can turn
    found = [
        "%s:%d %s" % (path.name, node.lineno, node.arg)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.arg) and (node.arg == "tol" or node.arg.endswith("_tol"))
    ]
    assert found == []


def test_numpy_roots_only_in_exactalg():
    # exactalg._simple_roots is the one numeric root finder (the Mahler
    # measure by square-free part, the 2-loop poles by exact multiplicity),
    # with the one unit-circle test _ON_CIRCLE; a second np.roots would fork both
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "exactalg.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr == "roots"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"
            and any(alias.name == "roots" for alias in node.names))
    ]
    assert found == []
    exactalg = (SRC / "exactalg.py").read_text(encoding="utf-8")
    assert exactalg.count("np.roots(") == 1


def test_circle_roots_call_no_numpy():
    # circle_roots isolates exactly: neither it nor any helper it reaches
    # (module functions by name, LaurentPoly methods by attribute) calls
    # numpy or the numeric root finder
    tree = ast.parse((SRC / "exactalg.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (laurent,) = [node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "LaurentPoly"]
    methods = {node.name: node for node in laurent.body if isinstance(node, ast.FunctionDef)}
    reached, todo, found = set(), ["circle_roots"], []
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in ast.walk(defs.get(name) or methods[name.split(".")[1]]):
            if isinstance(node, ast.Name) and node.id in defs:
                todo.append(node.id)
            elif isinstance(node, ast.Attribute) and node.attr in methods:
                todo.append("LaurentPoly." + node.attr)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                root = node.func
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in ("np", "numpy"):
                    found.append("%s:%d" % (name, node.lineno))
            if isinstance(node, ast.Name) and node.id in ("_roots_by_part", "_simple_roots"):
                found.append("%s:%d %s" % (name, node.lineno, node.id))
    assert {"_sturm", "_sign_at", "_trace_poly", "_poly_divmod"} <= reached
    assert found == []


def _root_of_unity_exps(tree):
    """Line numbers of the np.exp / numpy.exp / cmath.exp calls in tree whose
    argument mentions pi: each forms a root of unity as a float."""
    def mentions_pi(node):
        return any((isinstance(n, ast.Name) and n.id == "pi")
                   or (isinstance(n, ast.Attribute) and n.attr == "pi") for n in ast.walk(node))

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "exp" and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy", "cmath")
            and any(mentions_pi(arg) for arg in node.args)]


def test_roots_of_unity_only_in_the_helper():
    # lambdamat.root_of_unity is the one float e^(2 pi i k/p): signature
    # rows, the branched sum and selftest's per-root oracles must agree to
    # the bit (theta, which builds no grid any more, is scanned too)
    found = []
    for name in ("seifert", "branched", "lambdamat", "acceptance", "theta"):
        tree = ast.parse((SRC / (name + ".py")).read_text(encoding="utf-8"))
        helper = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "root_of_unity"]
        if name == "lambdamat":
            (helper,) = helper
            assert len(_root_of_unity_exps(helper)) == 1
            tree.body.remove(helper)
        found += ["%s:%d" % (name, line) for line in _root_of_unity_exps(tree)]
    assert found == []
    seifert = ast.parse((SRC / "seifert.py").read_text(encoding="utf-8"))
    assert "cmath" not in [m for node in ast.walk(seifert) for m in _imported_modules(node)]


def test_branched_and_cli_read_the_arc_table():
    # sigma_p, the signature rows and the average are read off Knot.arcs:
    # no per-root sum, no stack size and no float root of unity downstream
    found = []
    for name in ("branched", "cli"):
        tree = ast.parse((SRC / (name + ".py")).read_text(encoding="utf-8"))
        found += ["%s imports %s" % (name, alias.name) for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names
                  if alias.name in ("sigma_at_omega", "root_of_unity")]
        found += ["%s:%d %s" % (name, node.lineno, node.id) for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id in ("_sigma_sum", "_CHUNK")]
    assert found == []
    assert "_sigma_sum" not in "".join(path.read_text("utf-8") for path in SRC.glob("*.py"))


def test_beta_has_one_route_in_the_half_ring():
    # Knot.betas reads beta_p off Z[s]/E, E of degree g from Delta's trace
    # polynomial; the 2g x 2g ladder in Z[x]/chi is a test oracle
    # (test_seifert.chi_beta), and importing its power again would fork a
    # second production route beside the first.  The linear step's
    # multiplication by s is the one reduction by a monic modulus, shared
    assert not hasattr(knotcovers.seifert, "_powmod")
    assert knotcovers.seifert._mulx_mod is knotcovers.exactalg._mulx_mod
    # the one trace polynomial, shared with circle_roots
    assert knotcovers.seifert._trace_poly is knotcovers.exactalg._trace_poly


def _bit_tested_while_loops(tree):
    """Names of the functions in tree with a while loop that tests a bit,
    ``x & 1``: the shape of square and multiply."""
    return sorted({fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   for loop in ast.walk(fn) if isinstance(loop, ast.While)
                   for node in ast.walk(loop)
                   if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
                   and isinstance(node.right, ast.Constant) and node.right.value == 1})


def test_one_square_and_multiply():
    # exactalg._power is the one square and multiply, behind LaurentPoly
    # powers, _powmod and _mat_pow; a second loop would fork it again
    found = {name: _bit_tested_while_loops(ast.parse((SRC / (name + ".py")).read_text("utf-8")))
             for name in ("exactalg", "lambdamat", "seifert")}
    assert found == {"exactalg": ["_power"], "lambdamat": [], "seifert": []}


def test_one_remainder_sequence():
    # exactalg._remainders is the one Euclidean sequence, primitive integer
    # pseudo-remainders, behind poly_gcd, resultant and _sturm;
    # _squarefree_parts divides by each gcd in turn.  A second remainder
    # loop, by division or by pseudo-division (a pop of the leading
    # coefficient in a loop), would fork the sequence again
    def divides(loop):
        return any(isinstance(node, ast.Name) and node.id == "_poly_divmod"
                   or isinstance(node, ast.For) and any(
                       isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                       and call.func.attr == "pop" for call in ast.walk(node))
                   for node in ast.walk(loop))

    found, callers = set(), set()
    for name in ("exactalg", "lambdamat", "seifert", "theta"):
        for fn in ast.walk(ast.parse((SRC / (name + ".py")).read_text("utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                if any(isinstance(loop, ast.While) and divides(loop) for loop in ast.walk(fn)):
                    found.add("%s.%s" % (name, fn.name))
                if any(isinstance(node, ast.Name) and node.id == "_remainders"
                       for node in ast.walk(fn)):
                    callers.add("%s.%s" % (name, fn.name))
    assert sorted(found) == ["exactalg._remainders", "exactalg._squarefree_parts"]
    assert sorted(callers) == ["exactalg._sturm", "exactalg.poly_gcd", "exactalg.resultant"]
    # the members are integers from the start: no rescaling after the fact
    assert not hasattr(knotcovers.exactalg, "_integral")


def test_delta_and_arcs_build_no_fraction(monkeypatch, rng):
    # Delta is one integer determinant of the Seifert pencil, and the arc
    # table reads integer Sturm chains, integer cross products for its
    # tangents and integer inertia: neither constructs a Fraction
    from knotcovers.exactalg import SingularEvaluation
    from knotcovers.seifert import Knot, corpus_records, random_seifert
    from test_seifert import torus_seifert

    made, new = [], Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    knots = [rec.knot for rec in corpus_records()]
    knots += [Knot(random_seifert(g, rng)) for g in range(1, 7) for _ in range(6)]
    knots += [Knot(torus_seifert(a, a + 1)) for a in (2, 3, 4)]
    monkeypatch.setattr(Fraction, "__new__", counted)
    tables = 0
    for knot in knots:
        knot.delta
        try:
            knot.arcs
            tables += 1
        except SingularEvaluation:
            pass
    assert made == [] and tables > 40
    Fraction(1, 3)  # the counter does see one
    assert made == [(1, 3)]


def test_beta_builds_no_fraction_and_feeds_bareiss_ints(monkeypatch, rng):
    # Knot.betas reduces by the monic E in ints: the window, the recurrence,
    # the linear step and a jump's square and multiply construct no
    # Fraction, and every matrix reaching _bareiss holds plain ints
    import knotcovers.seifert
    from knotcovers.seifert import Knot, corpus_records, random_seifert

    knots = [rec.knot for rec in corpus_records()]
    knots += [Knot(random_seifert(g, rng)) for g in range(1, 9)]
    for knot in knots:
        knot.half_charpoly
    made, new, types = [], Fraction.__new__, set()
    bareiss = knotcovers.seifert._bareiss

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    def typed(M):
        types.update(type(x) for row in M for x in row)
        return bareiss(M)

    monkeypatch.setattr(Fraction, "__new__", counted)
    monkeypatch.setattr(knotcovers.seifert, "_bareiss", typed)
    for knot in knots:
        n = 2 ** knot.genus
        # a run from p = 1 on to the recurrence to genus 4 and a norm per p
        # past it, then a jump and a step, a far jump; and one p alone
        knot.betas([*range(1, min(3 * n, 48) + 8), 3 * n + 7, 3 * n + 8, 1001])
        knot.beta(2)
    assert made == [] and types == {int}


def test_beta_keeps_no_state_but_cached_properties(rng):
    # betas walks the requested degrees and keeps nothing between calls but
    # what a cached property derives once per knot (beta_2, the power sums,
    # the recurrence, E); no module constant of seifert picks a beta_p route
    from functools import cached_property

    import knotcovers.seifert
    from knotcovers.seifert import Knot, random_seifert

    cached = {name for name, v in vars(Knot).items() if isinstance(v, cached_property)}
    for g in (1, 2, 3):
        knot = Knot(random_seifert(g, rng))
        before = dict(vars(knot))
        knot.betas(range(1, 3 * 2 ** g + 5))
        knot.beta(7)
        knot.betas([100, 3, 101, 3])
        added = set(vars(knot)) - set(before)
        assert {"_beta2", "_powersums", "_recurrence"} <= added <= cached, added
        assert {name: vars(knot)[name] for name in before} == before
    constants = {name for name, v in vars(knotcovers.seifert).items()
                 if name.lstrip("_").isupper() and isinstance(v, (int, float))}
    assert constants == {"_RANDOM_BOUND", "_TURN_SLACK"}  # random entries, the arcs' slack


def test_one_determinant_kernel_for_the_rewrite(monkeypatch):
    # denominator_to_tp takes its norm polynomial det(sI - M) from
    # LambdaMatrix.det, the Kronecker determinant behind Delta: the package
    # keeps no characteristic polynomial routine, no modular reduction and
    # no prime search (the Hessenberg chi is a test oracle), and the rewrite
    # reaches one integer Bareiss and no numpy
    import knotcovers.lambdamat as lambdamat
    import knotcovers.seifert
    from knotcovers.exactalg import LaurentPoly, RatFun
    from knotcovers.theta import denominator_to_tp

    gone = re.compile(r"\b(_charpoly|_hessenberg|_is_prime|_PRIMES|_MR_BASES)\b")
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if gone.search(path.read_text(encoding="utf-8"))] == []

    dets, seen = [], []
    det, bareiss = lambdamat.LambdaMatrix.det, lambdamat._bareiss

    def counted_det(W):
        dets.append(W.n)
        return det(W)

    def checked(M):
        seen.append({type(x) for row in M for x in row})
        return bareiss(M)

    monkeypatch.setattr(lambdamat.LambdaMatrix, "det", counted_det)
    for module in (lambdamat, knotcovers.seifert):  # seifert holds a copy
        monkeypatch.setattr(module, "_bareiss", checked)
    t = LaurentPoly.t()
    rational = Fraction(1, 3) + Fraction(5, 7) * t - Fraction(1, 21) * t ** 2
    for den in (3 - 4 * t + 2 * t ** 3, rational):
        r = RatFun(LaurentPoly.one() + t, den)
        for p in (1, 5, 12):
            dets.clear()
            seen.clear()
            denominator_to_tp(r, p)
            assert dets == [den.max_exp] and seen == [{int}], (den, p)

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys; from fractions import Fraction; from knotcovers.exactalg import "
            "LaurentPoly as L, RatFun; from knotcovers.theta import denominator_to_tp as rw; "
            "rw(RatFun(L.one(), L({0: 3, 1: -4, 3: 2 ** 300})), 7); "
            "rw(RatFun(L.one(), L({0: Fraction(1, 3), 1: 1, 2: Fraction(-1, 3)})), 12); "
            "print('numpy' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0 and run.stdout.split() == ["False"], run.stderr


def test_res_p_reads_each_slot_once(monkeypatch):
    # res_p_theta sums one integer form per class: a slot held by several
    # terms (t, twice in "mixed") is read once, and a rational slot is
    # rewritten over a denominator in t^p once
    import knotcovers.theta as theta
    from test_theta import RATIONAL_CLASSES

    Q = theta.ThetaClass(RATIONAL_CLASSES["mixed"])
    slots = {slot for term in Q.terms for slot in (term.f, term.g, term.h)}
    rational = {slot for slot in slots if not slot.is_polynomial}
    assert (len(slots), len(rational)) == (7, 2)
    reads = {"_numerators": [], "denominator_to_tp": []}
    for name, calls in reads.items():
        monkeypatch.setattr(theta, name, lambda *args, fn=getattr(theta, name), calls=calls:
                            calls.append(args[0]) or fn(*args))
    for p in (1, 5, 40):
        for calls in reads.values():
            calls.clear()
        theta.res_p_theta(Q, p)
        assert len(reads["_numerators"]) == len(slots), p
        assert sorted(map(repr, reads["denominator_to_tp"])) == sorted(map(repr, rational)), p


def test_selftest_survives_python_O():
    # the acceptance criteria raise explicitly, so -O, which strips asserts,
    # must still pass all twelve and still catch an injected corruption
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    cmd = [sys.executable, "-O", "-m", "knotcovers.cli", "selftest"]
    ok = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert ok.returncode == 0, ok.stderr
    assert sum(": PASS" in line for line in ok.stdout.splitlines()) == 12
    bad = subprocess.run(cmd + ["--criteria", "4", "--inject-corruption"], env=env,
                         capture_output=True, text=True, timeout=300)
    assert bad.returncode == 1 and "FAIL" in bad.stdout


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return []


def test_no_scipy():
    # numpy is the only dependency: no scipy import anywhere in the
    # package (also not deferred inside a function) and none declared
    found = [
        "%s:%d %s" % (path.name, node.lineno, name)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in _imported_modules(node)
        if name.split(".")[0] == "scipy"
    ]
    assert found == []
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    deps = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    assert deps and not [d for d in deps if d.lower().startswith("scipy")]


def test_readme_examples():
    # the library tour runs as written: every ```python block of README.md
    # is a doctest, in file order, sharing one namespace
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    report, globs = [], {}
    for i, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, globs, "README.md[%d]" % i, str(README), 0),
                   out=report.append)
    assert runner.tries > 0
    assert runner.failures == 0, "".join(report)


def test_readme_counts_the_lines_under_src():
    # README's size of the package is the line total of src/knotcovers/*.py
    # (as wc -l counts them), so the figure cannot drift from the code
    text = README.read_text(encoding="utf-8")
    stated = re.search(r"The package is ([\d,]+) lines of Python under\s+`src/`", text)
    assert stated
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == lines


def test_traced_bindings_exist():
    # the benchmark's span tracer wraps these names by lookup; a refactor
    # that drops or renames one must fail here, not in a traced bench run
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    missing = []
    for modname, names in targets.items():
        module = importlib.import_module("knotcovers." + modname)
        for name in names:
            *path, attr = name.split(".")  # "Class.method" for methods
            owner = module
            for part in path:
                owner = getattr(owner, part, None)
            if not callable(getattr(owner, attr, None)):
                missing.append("%s.%s" % (modname, name))
    assert missing == []



def test_one_command_table_for_every_parser():
    # main builds the parser only for help and usage errors, from the one
    # table, which names each cmd_* function once, in the parser's order,
    # and declares each flag once: every subparser's actions are the
    # table's, so the table parse of a well-formed command line cannot
    # drift from argparse
    from knotcovers import cli

    commands = [fn for name, fn in vars(cli).items() if name.startswith("cmd_")]
    table = [fn for _, _, fn in cli._COMMANDS.values()]
    assert set(table) == set(commands) and len(table) == len(commands)
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli._COMMANDS)
    for name, (_, flags, _) in cli._COMMANDS.items():
        parser = sub.choices[name]
        declared = []
        for group in cli._flag_groups(flags):
            for option, kw in group:
                store_true = kw.get("action") == "store_true"
                declared.append((option, option[2:].replace("-", "_"),
                                 kw.get("default", False if store_true else None), kw.get("type"),
                                 kw.get("choices"), kw.get("required", False), store_true,
                                 len(group) > 1))
        grouped = {a for g in parser._mutually_exclusive_groups for a in g._group_actions}
        built = [
            (*a.option_strings, a.dest, a.default, a.type, a.choices, a.required,
             isinstance(a, argparse._StoreTrueAction), a in grouped)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        ]
        assert built == declared, name
        assert [len(g._group_actions) for g in parser._mutually_exclusive_groups] == [
            len(group) for group in cli._flag_groups(flags) if len(group) > 1]


def test_package_exports_the_union_of_the_module_lists():
    # each module's __all__ is the one list of its public names: the package
    # star-imports the six and keeps no hand-kept list of its own
    modules = ["exactalg", "lambdamat", "seifert", "branched", "theta", "graphs"]
    union = set()
    for modname in modules:
        module = importlib.import_module("knotcovers." + modname)
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], modname
        # and lists only names it defines: a re-export would be an alias
        assert [n for n in module.__all__
                if getattr(module, n).__module__ != module.__name__] == [], modname
        union.update(module.__all__)
    public = {n for n, v in vars(knotcovers).items()
              if not n.startswith("_") and not isinstance(v, type(knotcovers))}
    assert public == union
    assert not hasattr(knotcovers, "__all__")


def test_graphs_imports_no_numpy_and_builds_automorphisms_once():
    # graphs imports numpy nowhere (also not inside a function); the
    # GraphAut tuples are built, and the class options walked, in one
    # function alone, which serves phi_R.  The coloring plan's checks are
    # replayed on beads by count_admissible and on linear forms by
    # _cycle_basis alone; fundamental_cycles reads only the plan's forest,
    # and liftres reads the cycle basis and names no plan and no
    # automorphism route
    tree = ast.parse((SRC / "graphs.py").read_text(encoding="utf-8"))
    imported = [m for node in ast.walk(tree) for m in _imported_modules(node)]
    assert [m for m in imported if m.split(".")[0] == "numpy"] == []

    def callers(name):
        return [getattr(top, "name", "<module>") for top in tree.body
                for node in ast.walk(top) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == name]

    assert callers("GraphAut") == ["_automorphisms"]
    assert callers("_class_options") == ["_automorphisms"]
    assert callers("_coloring_plan") == ["count_admissible", "fundamental_cycles", "_cycle_basis"]
    assert [top.name for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr == "checks"] == [
        "count_admissible", "_cycle_basis"]
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    for fn in ("liftres_sweep", "_cycle_basis"):
        named = {node.id for node in ast.walk(functions[fn]) if isinstance(node, ast.Name)}
        assert named & {"_class_options", "_automorphisms", "automorphisms",
                        "_pulled_cycles"} == set(), fn
    named = {node.id for node in ast.walk(functions["liftres_sweep"]) if isinstance(node, ast.Name)}
    assert "_coloring_plan" not in named


def test_graphs_draws_in_blocks_without_lambdamat():
    # liftres decides every bead tuple from the topology, so graphs draws
    # no random tuple; the cycle basis, the plan's check rows, is checked
    # by its boundaries and its non-forest columns, not by a Bareiss
    # determinant
    tree = ast.parse((SRC / "graphs.py").read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Attribute, ast.Name))
             and "randrange" in (node.attr if isinstance(node, ast.Attribute) else node.id)]
    assert calls == []
    imported = [m for node in ast.walk(tree) for m in _imported_modules(node)]
    assert not [m for m in imported if m.split(".")[-1] == "lambdamat"]


def _p_refusal_calls():
    """One call per library function that takes a degree p, with p left
    open, on small valid inputs."""
    t, one = knotcovers.LaurentPoly.t(), knotcovers.LaurentPoly.one()
    trefoil = [[-1, 1], [0, -1]]
    theta = knotcovers.theta_graph()
    return {
        "cyclotomic_norm": lambda p: knotcovers.cyclotomic_norm(t - one - t ** -1, p),
        "res_p_graph": lambda p: knotcovers.res_p_graph(knotcovers.phi_R(theta), theta, p),
        "twisted_cycle_matrix": knotcovers.twisted_cycle_matrix,
        "subst_cycle": lambda p: knotcovers.subst_cycle(knotcovers.clover_matrix(trefoil), p),
        "subst_twisted": lambda p: knotcovers.subst_twisted(knotcovers.clover_matrix(trefoil), p),
        "signature_function": lambda p: knotcovers.signature_function(trefoil, 1, p),
        "denominator_to_tp": lambda p: knotcovers.denominator_to_tp(
            knotcovers.RatFun(one, t - 2 * one), p),
        "res_p_theta": lambda p: knotcovers.res_p_theta(knotcovers.ThetaClass(
            [(knotcovers.RatFun(t), knotcovers.RatFun(t), knotcovers.RatFun(t), Fraction(1))]), p),
    }


@pytest.mark.parametrize("name", sorted(_p_refusal_calls()) + ["res_p_graph-arity"])
def test_library_refuses_p_below_one(name):
    # every library function that takes p refuses p < 1 by name, before
    # any work; res_p_graph also refuses a symbol of the wrong arity
    if name == "res_p_graph-arity":
        with pytest.raises(ValueError, match="^symbol arity does not match b1 of the graph$"):
            knotcovers.res_p_graph({(0,): Fraction(1)}, knotcovers.theta_graph(), 3)
        return
    call = _p_refusal_calls()[name]
    call(3)  # the inputs are valid
    for p in (0, -2):
        with pytest.raises(ValueError, match="^p must be a positive integer$"):
            call(p)


def test_no_module_imports_numpy_at_module_scope():
    # numpy's import is most of a CLI start; only the functions that use
    # it import it, so the exact commands never load it
    def module_scope(node):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield child
                yield from module_scope(child)

    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in module_scope(ast.parse(path.read_text(encoding="utf-8")))
        for name in _imported_modules(node)
        if name.split(".")[0] == "numpy"
    ]
    assert found == []


_THETA3 = {"vertices": 6, "edges": [{"from": a, "to": a + 1} for a in (0, 0, 0, 2, 2, 2, 4, 4, 4)]}
_POLY_CLASS = json.loads((SRC / "corpus" / "trefoil.json").read_text("utf-8"))["q2loop"]
_GENUS_2 = [[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, 1, 1], [0, 0, 0, -1]]  # trefoil # figure-eight


@pytest.mark.parametrize("argv", [
    [],
    ["branched", "--knot", "trefoil", "--p", "2..20"],
    ["branched", "--file", "{knot}", "--q", "{q}", "--p", "2..20", "--format", "json"],
    ["signature", "--knot", "trefoil", "--p", "7"],
    ["residue", "--q", "{q}", "--p", "2..12"],
    ["liftres", "--graph", "theta-theta", "--p", "2..6", "--format", "json"],
    ["liftres", "--graph", "theta-eyes", "--p", "7", "--max-cases", "10000", "--seed", "17",
     "--format", "json"],
    ["liftres", "--file", "{theta3}", "--p", "7"],
], ids=["import", "branched", "branched-q-json", "signature", "residue", "liftres",
        "liftres-sampled", "liftres-theta3-file"])
def test_exact_commands_never_load_numpy(argv, tmp_path):
    # in a fresh interpreter, the CLI import and every command whose numbers
    # are all exact (a polynomial class's torus average included) leave
    # numpy unloaded: they do not move its import into their first call.
    # dataclasses stays unloaded too: it imports inspect, ast, dis and
    # tokenize, about 11 ms of every start
    knot, q, theta3 = tmp_path / "knot.json", tmp_path / "q.json", tmp_path / "theta3.json"
    knot.write_text(json.dumps(_GENUS_2))
    q.write_text(json.dumps(_POLY_CLASS))
    theta3.write_text(json.dumps(_THETA3))
    argv = [a.format(knot=knot, q=q, theta3=theta3) for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, knotcovers.cli; argv = %r; "
            "rc = knotcovers.cli.main(argv) if argv else 0; "
            "print(rc, 'numpy' in sys.modules, 'dataclasses' in sys.modules)" % argv)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "0 False False"


_RATIONAL_CLASS = {"terms": [
    {"f": {"num": {"0": "1"}, "den": {"0": "3", "1": "-1"}}, "g": {"1": "2", "2": "-3"},
     "h": {"-2": "-1", "1": "3"}, "c": "2"},
    {"f": {"num": {"0": "1"}, "den": {"0": "-2", "1": "1"}}, "g": {"num": {"0": "1"}, "den": {
        "0": "1", "1": "-3"}}, "h": {"num": {"1": "1"}, "den": {"0": "9", "1": "-6", "2": "1"}},
     "c": "-1/2"},
]}


@pytest.mark.parametrize("argv", [
    ["growth", "--knot", "trefoil", "--pmax", "20", "--q", "{q}"],
    ["residue", "--q", "{q}", "--p", "2..7"],
], ids=["growth", "residue"])
def test_rational_torus_averages_never_load_the_fft(argv, tmp_path):
    # a rational class's torus average is a closed form over its slots'
    # poles: in a fresh interpreter, the commands that print one leave
    # numpy.fft unloaded
    q = tmp_path / "q.json"
    q.write_text(json.dumps(_RATIONAL_CLASS))
    argv = [a.format(q=q) for a in argv]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, knotcovers.cli; rc = knotcovers.cli.main(%r); "
            "print(rc, 'numpy.fft' in sys.modules)" % argv)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    *out, last = run.stdout.splitlines()
    assert re.fullmatch(r"(casson_growth|torus_average) = -?\d\S*", out[-1]), out[-1]
    assert last == "0 False"


def test_theta_keeps_no_quadrature():
    # the FFT doubling loop, its grid and its tail heuristic live only in
    # the tests, as the oracle of the closed form
    import knotcovers.theta as theta

    left = [name for name in ("_fourier", "_TAIL_RATIO", "_GRID_CAP", "_REFUSE_MARGIN")
            if hasattr(theta, name)]
    assert left == []


def test_well_formed_calls_never_load_argparse(tmp_path):
    # a well-formed command line is read from the command table: argparse,
    # and the gettext and locale that its messages import, load in a fresh
    # interpreter only when help or a usage error needs them
    q = tmp_path / "q.json"
    q.write_text(json.dumps(_POLY_CLASS))
    calls = [
        ["alexander", "--knot", "trefoil"],
        ["signature", "--knot", "trefoil", "--p", "7"],
        ["branched", "--knot", "trefoil", "--p", "2..5", "--q", str(q)],
        ["growth", "--knot", "figure8", "--pmax", "20", "--plot-data"],
        ["residue", "--q", str(q), "--p", "2..7", "--format", "json"],
        ["liftres", "--graph", "theta", "--p", "2", "--seed", "3"],
        ["selftest", "--criteria", "7"],
    ]
    code = "\n".join([
        "import contextlib, io, sys",
        "from knotcovers.cli import main",
        "loaded = lambda: [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [main(argv) for argv in %r]" % calls,
        "    before = loaded()",
        "    try:",
        "        main(['branched', '-h'])",
        "    except SystemExit as e:",
        "        codes.append(e.code)",
        "print(codes, before, 'argparse' in loaded())",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "%r [] True" % ([0] * (len(calls) + 1))


def test_arc_kernel_sees_only_plain_ints(monkeypatch, tmp_path, capsys):
    # every arc's Hermitian form reaches the one inertia kernel as its real
    # integer form: no Gaussian or complex entry on any command.  The corpus
    # commands reach only the arc through w = -1; the file knot, with circle
    # roots at u = 3/2 and 5/3, has an arc inside the half circle
    import knotcovers.cli
    import knotcovers.seifert

    knot = tmp_path / "knot.json"
    knot.write_text(json.dumps([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [0, 0, 0, 3]]))
    inertia, seen = knotcovers.seifert._inertia, []

    def checked(M):
        seen.append((len(M), sorted({type(x).__name__ for row in M for x in row})))
        return inertia(M)

    monkeypatch.setattr(knotcovers.seifert, "_inertia", checked)
    for argv in (["branched", "--knot", "random-g3-a", "--p", "2..30"],
                 ["signature", "--knot", "trefoil", "--p", "7"],
                 ["growth", "--knot", "figure8", "--pmax", "20"],
                 ["branched", "--file", str(knot), "--p", "2..12"]):
        assert knotcovers.cli.main(argv) == 0, capsys.readouterr().err
    assert seen == [(2, ["int"]), (8, ["int"]), (4, ["int"])]


def test_determinant_kernel_sees_only_plain_ints(monkeypatch, capsys):
    # every exact determinant reaches the one Bareiss kernel as an integer
    # matrix: Laurent entries go in by Kronecker substitution, rational ones
    # scaled by the lcm of their denominators; no LaurentPoly or Fraction
    # entry on the selftest's determinant criteria or the CLI
    import knotcovers.cli
    import knotcovers.lambdamat
    import knotcovers.seifert

    bareiss, seen = knotcovers.lambdamat._bareiss, []

    def checked(M):
        seen.append(sorted({type(x).__name__ for row in M for x in row}))
        return bareiss(M)

    for module in (knotcovers.lambdamat, knotcovers.seifert):  # seifert holds a copy
        monkeypatch.setattr(module, "_bareiss", checked)
    for argv, calls in ((["selftest", "--criteria", "2,4"], 202),  # a clover det per knot
                        (["alexander", "--knot", "random-g3-a"], 1)):
        seen.clear()
        assert knotcovers.cli.main(argv) == 0, capsys.readouterr()
        assert len(seen) >= calls and all(kinds in ([], ["int"]) for kinds in seen), argv
    assert "FAIL" not in capsys.readouterr().out


def test_clover_form_makes_no_laurent_ring_operation(monkeypatch):
    # the clover form and the congruence identity are integer coefficient
    # matrices W = sum_e C_e t^e: building them takes no LaurentPoly sum,
    # difference or product
    import random

    from knotcovers.exactalg import LaurentPoly
    from knotcovers.seifert import Knot, congruence_identity_check, corpus_records, random_seifert

    rng = random.Random(7)
    matrices = [rec.knot.seifert for rec in corpus_records()]
    matrices += [random_seifert(g, rng) for g in (1, 2, 3, 6)]
    calls = []  # counted from here: loading the corpus parses its 2-loop classes
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        def counted(self, other, op=getattr(LaurentPoly, name), name=name):
            calls.append(name)
            return op(self, other)

        monkeypatch.setattr(LaurentPoly, name, counted)
    for A in matrices:
        knot = Knot(A)
        assert knot.clover.n == len(A)
        assert congruence_identity_check(knot) and congruence_identity_check(A)
    assert calls == []
    LaurentPoly.t() * 2 - 1  # the counters count
    assert calls == ["__mul__", "__sub__", "__add__"]


def test_det_reaches_bareiss_once_with_plain_ints(monkeypatch):
    # LambdaMatrix.det is one Kronecker substitution into one integer
    # Bareiss, and a plain function in the class body, where the
    # benchmark's tracer wraps it through vars(LambdaMatrix)["det"]
    import types

    import random

    import knotcovers.lambdamat as lambdamat
    from knotcovers.exactalg import LaurentPoly
    from knotcovers.seifert import Knot, random_seifert

    assert isinstance(vars(lambdamat.LambdaMatrix)["det"], types.FunctionType)
    bareiss, seen = lambdamat._bareiss, []

    def checked(M):
        seen.append({type(x) for row in M for x in row})
        return bareiss(M)

    monkeypatch.setattr(lambdamat, "_bareiss", checked)
    t = LaurentPoly.t()
    for W in (Knot(random_seifert(3, random.Random(3))).clover, lambdamat.LambdaMatrix([]),
              lambdamat.LambdaMatrix([[Fraction(1, 3) * t, 2], [t ** -2, Fraction(-5, 2)]])):
        seen.clear()
        W.det()
        assert len(seen) == 1 and seen[0] <= {int}, seen
