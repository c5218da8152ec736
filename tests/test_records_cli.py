"""Command line surface: golden outputs, formats, exit codes."""

import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

import knotcovers.seifert
from knotcovers.cli import MAX_DEGREES, _parse_ps, main
from knotcovers.exactalg import LaurentPoly, RatFun
from knotcovers.seifert import corpus_records, random_seifert


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAlexanderCommand:
    def test_trefoil_table(self, capsys):
        code, out, _ = run(capsys, "alexander", "--knot", "trefoil")
        assert code == 0
        assert "t^-1 - 1 + t" in out
        assert ["determinant", "3"] in [line.split() for line in out.splitlines()]

    def test_determinant_routes_agree_in_output(self, capsys):
        code, out, _ = run(capsys, "alexander", "--knot", "figure8", "--format", "json")
        payload = json.loads(out)
        rows = dict((r[0], r[1]) for r in payload["rows"])
        assert rows["alexander"] == rows["clover_determinant"] == "-t^-1 + 3 - t"

    def test_seifert_matrix_from_file(self, capsys, tmp_path):
        f = tmp_path / "knot.json"
        f.write_text("[[-1, 1], [0, -1]]")
        code, out, _ = run(capsys, "alexander", "--file", str(f))
        assert code == 0
        assert "t^-1 - 1 + t" in out

    def test_non_banded_matrix_from_file(self, capsys, tmp_path):
        # the block sum of two trefoil matrices is a valid Seifert matrix
        # outside the banded basis; Delta multiplies under connected sum
        f = tmp_path / "tt.json"
        f.write_text("[[-1, 1, 0, 0], [0, -1, 0, 0], [0, 0, -1, 1], [0, 0, 0, -1]]")
        code, out, _ = run(capsys, "alexander", "--file", str(f), "--format", "json")
        assert code == 0
        delta_t = LaurentPoly({-1: 1, 0: -1, 1: 1})
        rows = dict((r[0], r[1]) for r in json.loads(out)["rows"])
        assert rows["alexander"] == str(delta_t * delta_t)
        assert "clover_determinant" not in rows

    def test_unknown_knot_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "alexander", "--knot", "nope")
        assert code == 2
        assert "unknown corpus knot" in err

    def test_bad_matrix_is_invalid_input(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("[[1, 0], [0, 1]]")
        code, _, err = run(capsys, "alexander", "--file", str(f))
        assert code == 2

    @pytest.mark.parametrize("command", [["alexander"], ["branched", "--p", "2..4"]],
                             ids=lambda c: c[0])
    @pytest.mark.parametrize("obj, message", [
        ("abc", "a knot record must be a JSON object, got 'abc'"),
        ({"name": "x", "seifert": [[-1, 1], [0, -1]], "q2loop": [1]},
         "a 2-loop class must be a JSON object, got [1]"),
    ], ids=["string", "q2loop-array"])
    def test_a_record_of_the_wrong_json_type_is_invalid_input(self, capsys, tmp_path, command,
                                                              obj, message):
        # .get on a string or an array raised AttributeError: a traceback and exit 1
        f = tmp_path / "knot.json"
        f.write_text(json.dumps(obj))
        code, out, err = run(capsys, *command, "--file", str(f))
        assert (code, out) == (2, "")
        assert err == "error: %s\n" % message


    @pytest.mark.parametrize("command", [["alexander"], ["branched", "--p", "2..4"]],
                             ids=lambda c: c[0])
    def test_an_unknown_record_key_is_invalid_input(self, capsys, tmp_path, command):
        # a misspelt "q2loop" was dropped: branched printed no casson column, exit 0
        f = tmp_path / "knot.json"
        f.write_text(json.dumps({"name": "x", "seifert": [[-1, 1], [0, -1]],
                                 "q2lop": {"terms": []}}))
        code, out, err = run(capsys, *command, "--file", str(f))
        assert (code, out) == (2, "")
        assert err == "error: a knot record has an unknown key 'q2lop'\n"

    @pytest.mark.parametrize("command", [["alexander"], ["branched", "--p", "2..4"]],
                             ids=lambda c: c[0])
    @pytest.mark.parametrize("key", ["name", "seifert"])
    def test_a_missing_record_key_is_named(self, capsys, tmp_path, command, key):
        # a missing key printed the bare "error: 'seifert'"
        obj = {"name": "x", "seifert": [[-1, 1], [0, -1]]}
        del obj[key]
        f = tmp_path / "knot.json"
        f.write_text(json.dumps(obj))
        code, out, err = run(capsys, *command, "--file", str(f))
        assert (code, out) == (2, "")
        assert err == "error: a knot record is missing key %r\n" % key


class TestSignatureCommand:
    def test_table_blanks_singular_roots(self, capsys):
        code, out, _ = run(capsys, "signature", "--knot", "trefoil", "--p", "6")
        assert code == 0
        lines = out.splitlines()
        row1 = [c for c in lines[1].split() if c]
        assert row1 == ["1", "1/6"]  # singular: no signature value
        row3 = [c for c in lines[3].split() if c]
        assert row3 == ["3", "1/2", "-2"]

    def test_range_rejected(self, capsys):
        code, _, err = run(capsys, "signature", "--knot", "trefoil", "--p", "2..4")
        assert code == 2

    def test_total_is_the_sum_of_the_rows_each_root_solved_once(self, capsys, monkeypatch):
        # rows and total read one arc table: one exact inertia for the
        # trefoil's second arc (its first is 0 by theory), the 2 x 2 A + A^T
        # of the arc through w = -1, no eigensolve, at a root of unity or not
        calls, solves = [], []
        inertia, real = knotcovers.seifert._inertia, knotcovers.seifert.complex_signature
        monkeypatch.setattr(knotcovers.seifert, "_inertia",
                            lambda M: calls.append(len(M)) or inertia(M))
        monkeypatch.setattr(knotcovers.seifert, "complex_signature",
                            lambda H: solves.append(H.shape) or real(H))
        code, out, _ = run(capsys, "signature", "--knot", "trefoil", "--p", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_sigma_p"] == sum(row[2] for row in payload["rows"]) == -8
        assert calls == [2] and solves == []

    def test_blank_row_at_regular_p_is_an_error(self, capsys, monkeypatch):
        # a (false) circle root at k/p = 1/5 blanks rows 1 and 4 of the
        # regular p = 5, and the total, read off the same table, refuses
        real = knotcovers.seifert.circle_roots
        u = 2 * math.cos(2 * math.pi / 5)
        monkeypatch.setattr(knotcovers.seifert, "circle_roots",
                            lambda f: sorted(real(f) + [(u - 1e-12, u + 1e-12)]))
        code, out, err = run(capsys, "signature", "--knot", "trefoil", "--p", "5")
        assert code == 2 and out == ""
        assert "singular at the root k = 1 of p = 5" in err

    def test_a_refused_arc_table_is_built_once(self, capsys, monkeypatch):
        # a refused table is kept: the rows and the total read the one
        # refusal, which exits 2 with its message and nothing on stdout at
        # the regular p = 7 and at the irregular p = 6 alike
        calls = []

        def refuse(f):
            calls.append(f)
            raise knotcovers.seifert.SingularEvaluation("circle roots too close to separate")

        monkeypatch.setattr(knotcovers.seifert, "circle_roots", refuse)
        for n, p in enumerate(("7", "6"), 1):
            code, out, err = run(capsys, "signature", "--knot", "trefoil", "--p", p)
            assert (code, out, len(calls)) == (2, "", n), p
            assert "circle roots too close to separate" in err, p

    def test_total_needs_no_beta_when_every_row_is_regular(self, capsys, monkeypatch):
        # no refused row means p is regular, so the total is read off the
        # arcs alone; with a refused row beta_p still decides (trefoil, p = 6)
        def no_beta(self, p):
            raise AssertionError("beta_%d computed" % p)

        monkeypatch.setattr(knotcovers.seifert.Knot, "beta", no_beta)
        monkeypatch.setattr(knotcovers.seifert.Knot, "betas", no_beta)
        for name, total in (("figure8", 0), ("trefoil", -8)):
            code, out, _ = run(capsys, "signature", "--knot", name, "--p", "7", "--format", "json")
            payload = json.loads(out)
            assert code == 0 and None not in [row[2] for row in payload["rows"]]
            assert payload["total_sigma_p"] == sum(row[2] for row in payload["rows"]) == total
        monkeypatch.undo()
        code, out, _ = run(capsys, "signature", "--knot", "trefoil", "--p", "6", "--format", "json")
        assert code == 0 and "total_sigma_p" not in json.loads(out)

    def test_numerically_singular_root_names_p_and_k(self, capsys, monkeypatch, tmp_path):
        # Delta = 2t^-1 - 3 + 2t is regular at every p; its circle root is
        # 7e-10 of a turn from k/p = 581/5051, inside brackets widened by
        # 2^-26 of a turn's fraction instead of 2^-48
        f = tmp_path / "knot.json"
        f.write_text("[[1, 1], [0, 2]]")
        assert run(capsys, "signature", "--file", str(f), "--p", "5051")[0] == 0
        monkeypatch.setattr(knotcovers.seifert, "_TURN_SLACK", 2.0 ** -26)
        code, out, err = run(capsys, "signature", "--file", str(f), "--p", "5051")
        assert code == 2 and out == ""
        assert "numerically singular at the root k = 581 of p = 5051" in err


def test_signature_commands_run_no_eigensolve(capsys, monkeypatch, tmp_path):
    # branched, signature and growth read exact arc tables: with numpy's
    # Hermitian eigensolve refused they still succeed, on the corpus and on
    # random knots of genus 1..5
    def refuse(*args):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rng = random.Random(5)
    sources = [["--knot", rec.name] for rec in corpus_records()]
    for i in range(12):
        f = tmp_path / ("k%d.json" % i)
        f.write_text(json.dumps(random_seifert(rng.randint(1, 5), rng)))
        sources.append(["--file", str(f)])
    for source in sources:
        for command in (["branched", "--p", "2..25"], ["growth", "--pmax", "25"],
                        ["signature", "--p", "7"]):
            assert run(capsys, command[0], *source, *command[1:])[0] == 0, (command, source)


class TestBranchedCommand:
    def test_csv_layout(self, capsys):
        code, out, _ = run(
            capsys, "branched", "--knot", "figure8", "--p", "2,3,4", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,regular,sigma_p,beta_p,log_beta_over_p"
        assert lines[1].startswith("2,yes,")
        assert lines[1].split(",")[3] == "5"

    def test_irregular_rows_blank_filled(self, capsys):
        code, out, _ = run(
            capsys, "branched", "--knot", "trefoil", "--p", "5..7", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        # trefoil corpus record carries a 2-loop class, so casson is present
        assert lines[0] == "p,regular,sigma_p,beta_p,log_beta_over_p,casson"
        assert lines[2] == "6,no,,,,"

    def test_all_irregular_range_is_domain_error(self, capsys):
        code, _, err = run(capsys, "branched", "--knot", "trefoil", "--p", "6")
        assert code == 1
        assert "no regular p" in err

    def test_explicit_q_file(self, capsys, tmp_path):
        f = tmp_path / "q.json"
        f.write_text(json.dumps({"terms": []}))
        code, out, _ = run(
            capsys, "branched", "--knot", "trefoil", "--p", "2", "--q", str(f),
            "--format", "csv",
        )
        assert code == 0
        assert out.strip().splitlines()[1] == "2,yes,-2,3,0.549306144334,-1/4"

    def test_numerically_singular_root_names_p_and_k(self, capsys, tmp_path):
        # Delta = 2t^-1 - 3 + 2t has no cyclotomic factor, so every p is
        # regular; p = 281352 is a continued-fraction denominator of the
        # angle of its circle roots, 3e-12 of a turn from k/p at k = 32363,
        # which the per-root eigensolve refused and the certified bracket
        # (2^-51 wide in u) resolves: sigma_p = 2(p - 1 - 2 floor(p alpha))
        f = tmp_path / "knot.json"
        f.write_text("[[1, 1], [0, 2]]")
        code, out, err = run(capsys, "branched", "--file", str(f), "--p", "281352",
                             "--format", "csv")
        assert code == 0 and err == ""
        assert out.splitlines()[1].startswith("281352,yes,433254,")


class TestGrowthCommand:
    def test_summary_lines(self, capsys):
        code, out, _ = run(capsys, "growth", "--knot", "figure8", "--ps", "10,20")
        assert code == 0
        assert "mahler = 0.962423650119" in out
        assert "signature_average = 0" in out

    def test_pmax_and_ps_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["growth", "--knot", "figure8", "--pmax", "5", "--ps", "10"])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err
        code, _, err = run(capsys, "growth", "--knot", "figure8", "--pmax", "0")
        assert code == 2 and "pmax" in err

    def test_pmax_of_100_with_ps_is_refused_too(self, capsys):
        # 100, the default degree count, given with --ps is refused as 99 is;
        # argparse checks the pair only for a value that is not the default
        # object, and int("100") is the interpreter's cached 100
        errors = []
        for pmax in ("100", "99"):
            with pytest.raises(SystemExit) as exc:
                main(["growth", "--knot", "figure8", "--pmax", pmax, "--ps", "5"])
            assert exc.value.code == 2
            errors.append(capsys.readouterr().err.splitlines()[-1])
        assert errors == ["knotcovers growth: error: argument --ps: "
                          "not allowed with argument --pmax"] * 2
        code, out, _ = run(capsys, "growth", "--knot", "figure8", "--format", "csv")
        assert code == 0
        assert [int(line.split(",")[0]) for line in out.splitlines()[1:101]] == list(range(1, 101))

    def test_plot_data_pairs(self, capsys):
        code, out, _ = run(
            capsys, "growth", "--knot", "figure8", "--ps", "10,20", "--plot-data"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        p, ratio = lines[0].split()
        assert p == "10" and abs(float(ratio) - 0.96241042829) < 1e-9

    def test_out_file(self, tmp_path, capsys):
        dest = tmp_path / "g.csv"
        code, out, _ = run(
            capsys, "growth", "--knot", "figure8", "--ps", "10", "--format", "csv",
            "--out", str(dest),
        )
        assert code == 0
        assert out == ""
        assert dest.read_text().splitlines()[0] == "p,beta_p,log_beta_over_p"


@pytest.mark.parametrize("argv, message", [
    (["branched", "--knot", "trefoil", "--p", "2..100000000000"],
     "error: 99999999999 degrees in '2..100000000000', more than 1000000\n"),
    (["growth", "--knot", "trefoil", "--pmax", "100000000000"],
     "error: pmax must be in 1..1000000\n"),
    (["signature", "--knot", "trefoil", "--p", "1000000000"],
     "error: signature at p = 1000000000 has 999999999 rows, more than 1000000\n"),
    (["signature", "--knot", "trefoil", "--p", str(MAX_DEGREES + 2)],
     "error: signature at p = 1000002 has 1000001 rows, more than 1000000\n"),
], ids=["branched-p", "growth-pmax", "signature-p", "signature-p-cap"])
def test_too_many_degrees_exit_2_up_front(argv, message):
    # 10^11 degrees would exhaust memory building the list (branched) or
    # run for days (growth), and signature builds p - 1 rows: one error
    # line and exit 2 before any work, so the whole process takes well
    # under a second
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(knotcovers.seifert.__file__))]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-m", "knotcovers.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 1.0
    assert (run.returncode, run.stdout, run.stderr) == (2, "", message)
    assert "Traceback" not in run.stderr


@pytest.mark.parametrize("argv, code, message", [
    (["branched", "--knot", "trefoil", "--p", "5..2"], 2, "error: empty range '5..2'"),
    (["branched", "--knot", "trefoil", "--p", ","], 2, "error: no p values in ','"),
    (["branched", "--p", "2"], 2, "error: pass --knot NAME or --file SEIFERT.json"),
    (["liftres", "--p", "2"], 2, "error: pass --graph NAME or --file GRAPH.json"),
    (["signature", "--knot", "trefoil", "--p", str(MAX_DEGREES + 2)], 2,
     "error: signature at p = 1000002 has 1000001 rows, more than 1000000"),
    (["signature", "--knot", "trefoil", "--p", "1"], 1,
     "domain: p = 1 has no interior roots of unity"),
    (["growth", "--knot", "trefoil", "--ps", "6,12"], 1,
     "domain: no regular p in the requested range"),
    (["residue", "--q", "", "--p", "2"], 2, "error: residue needs --q FILE"),
    (["branched", "--file", "SEIFERT", "--p", "2"], 2,
     "error: Seifert matrix entries must be ints"),
    (["liftres", "--file", "GRAPH", "--p", "2"], 2, "error: edge endpoint out of range"),
], ids=["empty-range", "no-p", "no-knot", "no-graph", "signature-rows", "signature-p-1",
        "growth-irregular", "residue-no-q", "seifert-float", "graph-endpoint"])
def test_refusals_print_one_line_and_nothing_on_stdout(capsys, tmp_path, argv, code, message):
    seifert, graph = tmp_path / "seifert.json", tmp_path / "graph.json"
    seifert.write_text(json.dumps([[0.5, 1], [0, -1]]))
    graph.write_text(json.dumps({"vertices": 2, "edges": [
        {"from": 0, "to": 5}, {"from": 0, "to": 1}, {"from": 1, "to": 0}]}))
    argv = [{"SEIFERT": str(seifert), "GRAPH": str(graph)}.get(a, a) for a in argv]
    assert run(capsys, *argv) == (code, "", message + "\n")


def test_degree_cap_counts_the_range():
    assert _parse_ps("%d..%d" % (5, 4 + MAX_DEGREES))[-1] == 4 + MAX_DEGREES
    with pytest.raises(ValueError, match="more than 1000000"):
        _parse_ps("%d..%d" % (5, 5 + MAX_DEGREES))


class TestResidueCommand:
    def test_json_rows_exact(self, capsys, tmp_path):
        f = tmp_path / "q.json"
        f.write_text(
            json.dumps(
                {"terms": [{"f": {"1": "1"}, "g": {"1": "1"}, "h": {"1": "1"}, "c": "3/2"}]}
            )
        )
        code, out, _ = run(capsys, "residue", "--q", str(f), "--p", "2..4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"] == [[2, "3"], [3, "9/2"], [4, "6"]]
        assert payload["torus_average"] == "3/2"

    def test_an_average_with_no_diagonal_prints_an_exact_zero(self, capsys, tmp_path):
        # g = t and h = t^-1 share no exponent: the average is exactly 0,
        # printed as the Fraction 0 a polynomial class would give
        f = tmp_path / "q.json"
        f.write_text(json.dumps({"terms": [{"f": {"num": {"0": "1"}, "den": {"0": "2", "2": "1"}},
                                            "g": {"1": "1"}, "h": {"-1": "1"}, "c": "1"}]}))
        code, out, _ = run(capsys, "residue", "--q", str(f), "--p", "2..5")
        assert code == 0 and out.splitlines()[-1] == "torus_average = 0"
        code, out, _ = run(capsys, "residue", "--q", str(f), "--p", "2..3", "--format", "json")
        assert code == 0 and json.loads(out)["torus_average"] == "0"

    def test_all_singular_is_domain_error(self, capsys, tmp_path):
        f = tmp_path / "q.json"
        q = {
            "terms": [
                {
                    "f": {"num": {"0": "1"}, "den": {"0": "1", "1": "1", "2": "1"}},
                    "g": {"0": "1"},
                    "h": {"0": "1"},
                    "c": "1",
                }
            ]
        }
        f.write_text(json.dumps(q))
        code, _, err = run(capsys, "residue", "--q", str(f), "--p", "3")
        assert code == 1


_ZERO_DENOMINATORS = [
    ({"num": {"0": "1"}, "den": {}}, "1"),
    ({"num": {"0": "1"}, "den": {"0": "0", "1": 0}}, "1"),
    ({"num": {"0": "1"}, "den": {"0": "1/0", "1": "1"}}, "1"),
    ({"0": "1/0"}, "1"),
    ({"0": "1"}, "1/0"),
]


class TestQFileBoundary:
    """A malformed 2-loop class file is invalid input (exit 2), never a
    traceback or the "domain degenerates" exit 1, for every --q command."""

    COMMANDS = [
        ["residue", "--p", "2..4"],
        ["branched", "--knot", "trefoil", "--p", "2..4"],
        ["growth", "--knot", "trefoil", "--pmax", "5"],
    ]

    @staticmethod
    def _q_file(tmp_path, f, c):
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"terms": [{"f": f, "g": {"1": "1"}, "h": {"0": "1"}, "c": c}]}))
        return str(path)

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("f, c", _ZERO_DENOMINATORS)
    def test_zero_denominator_is_invalid_input(self, capsys, tmp_path, command, f, c):
        code, out, err = run(capsys, *command, "--q", self._q_file(tmp_path, f, c))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "zero denominator" in err

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_two_keys_for_one_exponent_are_invalid_input(self, capsys, tmp_path, command):
        # "1" and "01" both name t: res_1 would read 1 where the file says 2t
        q = self._q_file(tmp_path, {"1": "1", "01": "1"}, "1")
        code, out, err = run(capsys, *command, "--q", q)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exponent 1 is given twice" in err

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_a_slot_singular_at_one_is_invalid_input(self, capsys, tmp_path, command):
        # 1/(1 - t) is not in the local ring: the file is refused, exit 2
        slot = {"num": {"0": "1"}, "den": {"0": "1", "1": "-1"}}
        code, out, err = run(capsys, *command, "--q", self._q_file(tmp_path, slot, "1"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "denominator vanishes at t = 1" in err

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_float_coefficient_is_refused(self, capsys, tmp_path, command):
        code, out, err = run(capsys, *command, "--q", self._q_file(tmp_path, {"1": "1"}, 0.1))
        assert (code, out) == (2, "")
        assert "refusing float coefficient 0.1" in err
        for c in ("1/10", 3):  # strings and JSON ints still work
            code, _, _ = run(capsys, *command, "--q", self._q_file(tmp_path, {"1": "1"}, c))
            assert code == 0


    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("f, c", [({"1": "1"}, True), ({"1": "1"}, False),
                                      ({"1": True}, "1"), ({"0": "1", "1": False}, "1")])
    def test_boolean_coefficient_is_refused(self, capsys, tmp_path, command, f, c):
        code, out, err = run(capsys, *command, "--q", self._q_file(tmp_path, f, c))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "refusing bool coefficient" in err

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("f, c, message", [
        ([1], "1", "must be a JSON object, got [1]"),
        ("t", "1", "must be a JSON object, got 't'"),
        ({"num": [1], "den": {"0": "1"}}, "1", "must be a JSON object, got [1]"),
        ({"num": {"0": "1"}, "den": ["1"]}, "1", "must be a JSON object, got ['1']"),
        ({"1_0": "1"}, "1", "exponent key '1_0' is not a plain integer"),
        ({"+1": "1"}, "1", "exponent key '+1' is not a plain integer"),
        ({" 1": "1"}, "1", "exponent key ' 1' is not a plain integer"),
        ({"\u0661": "1"}, "1", "exponent key '\u0661' is not a plain integer"),
        ({"-\u0661": "1"}, "1", "exponent key '-\u0661' is not a plain integer"),
        ({"1/0": "1"}, "1", "invalid literal for int() with base 10: '1/0'"),
        ({"1": "1_0"}, "1", "refusing coefficient '1_0'"),
        ({"1": "1"}, "1_0", "refusing coefficient '1_0'"),
        ({"1": "1/0"}, "1", "zero denominator in coefficient '1/0'"),
        ({"1": "0x10"}, "1", "Invalid literal for Fraction: '0x10'"),
        ({"1": "1"}, 0.5, "refusing float coefficient 0.5; pass Fraction or str"),
        ({"1": 2.0}, "1", "refusing float coefficient 2.0; pass Fraction or str"),
        ({"1": True}, "1", "refusing bool coefficient True; pass Fraction or str"),
    ], ids=["slot-array", "slot-string", "num-array", "den-array", "key-underscore",
            "key-plus", "key-space", "key-arabic-digit", "key-minus-arabic-digit",
            "key-slash", "slot-coefficient", "class-coefficient", "zero-denominator",
            "hex-coefficient", "float-class-coefficient", "float-slot-coefficient",
            "bool-slot-coefficient"])
    def test_a_misread_slot_or_coefficient_is_invalid_input(self, capsys, tmp_path, command,
                                                            f, c, message):
        # reading keys off an array raised AttributeError (a traceback, exit 1),
        # int("1_0") and Fraction("1_0") both read 10 (wrong numbers, exit 0), and
        # int("\u0661") and "\u0661".isdigit() both read the Arabic-Indic digit one
        code, out, err = run(capsys, *command, "--q", self._q_file(tmp_path, f, c))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    def test_a_bare_map_slot_is_the_canonical_form_over_one(self):
        # a slot without "den" skips the normalisation, which over the
        # denominator 1 must leave the map as it is
        rng = random.Random(31)
        for _ in range(300):
            low = rng.randint(-6, 6)
            obj = {str(low + i): "%d/%d" % (rng.randint(-9, 9), rng.randint(1, 4))
                   for i in range(rng.randint(0, 6))}
            slot = RatFun.from_json(obj)
            want = RatFun(LaurentPoly.from_json(obj), LaurentPoly.one())
            assert (slot.num, slot.den) == (want.num, want.den)
            types = [{e: type(v) for e, v in f.num._c.items()} for f in (slot, want)]
            assert types[0] == types[1]  # an int where integral, on both routes

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("obj, message", [
        ({"trms": [{"f": {"1": "1"}, "g": {"1": "1"}, "h": {"0": "1"}, "c": "1"}]},
         "needs a 'terms' array"),
        ({}, "needs a 'terms' array"),
        ({"terms": {"f": {"1": "1"}}}, "needs a 'terms' array"),
        ({"terms": ["t"]}, "a 2-loop term must be a JSON object"),
        ([{"f": {"1": "1"}}], "a 2-loop class must be a JSON object"),
    ], ids=["misspelt", "empty", "terms-object", "term-string", "class-array"])
    def test_a_class_without_a_terms_array_is_invalid_input(self, capsys, tmp_path, command,
                                                            obj, message):
        # a misspelt "terms" was read as the zero class: res_p = 0 with exit 0
        path = tmp_path / "q.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, *command, "--q", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("obj, message", [
        ({"terms": [{"f": {"1": "1"}, "g": {"1": "1"}, "h": {"0": "1"}, "c": "1", "cc": "2"}]},
         "a 2-loop term has an unknown key 'cc'"),
        ({"terms": [{"f": {"num": {"0": "1"}, "dem": {"0": "3", "1": "-1"}},
                     "g": {"1": "1"}, "h": {"0": "1"}, "c": "1"}]},
         "a rational function has an unknown key 'dem'"),
        ({"terms": [], "note": "x"}, "a 2-loop class has an unknown key 'note'"),
    ], ids=["term-key", "slot-key", "class-key"])
    def test_an_unknown_key_is_invalid_input(self, capsys, tmp_path, command, obj, message):
        # an unknown key was dropped with exit 0: "cc" ignored, and a slot
        # with "dem" for "den" read as 1 where the file meant 1/(3 - t)
        path = tmp_path / "q.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, *command, "--q", str(path))
        assert (code, out) == (2, "")
        assert err == "error: %s\n" % message

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("key", ["f", "g", "h", "c"])
    def test_a_missing_term_key_is_named(self, capsys, tmp_path, command, key):
        # a term without "h" printed the bare "error: 'h'"
        term = {"f": {"1": "1"}, "g": {"1": "1"}, "h": {"0": "1"}, "c": "1"}
        del term[key]
        path = tmp_path / "q.json"
        path.write_text(json.dumps({"terms": [term]}))
        code, out, err = run(capsys, *command, "--q", str(path))
        assert (code, out) == (2, "")
        assert err == "error: a 2-loop term is missing key %r\n" % key


# a slot pole within _ON_CIRCLE of |t| = 1, and one 1e-6 outside it, within
# _NEAR_CIRCLE: both are refused as SingularOnTorus
_TORUS_REFUSALS = [("1000000001/1000000000", "vanishes on |t| = 1"),
                   ("1000001/1000000", "a slot pole lies within")]


class TestTorusRefusalNote:
    """A class with a pole on (or too near) the torus leaves its average
    blank with exit 0, as before, and says why on stderr."""

    @pytest.mark.parametrize("pole, reason", _TORUS_REFUSALS)
    @pytest.mark.parametrize("command, key", [
        (["residue", "--p", "2..3"], "torus_average"),
        (["growth", "--knot", "trefoil", "--pmax", "5"], "casson_growth"),
    ], ids=["residue", "growth"])
    def test_refusal_reason_reaches_stderr(self, capsys, tmp_path, command, key, pole, reason):
        path = tmp_path / "q.json"
        slot = {"num": {"0": "1"}, "den": {"0": "-" + pole, "1": "1"}}
        path.write_text(json.dumps({"terms": [{"f": slot, "g": {"0": "1"}, "h": {"0": "1"},
                                               "c": "1"}]}))
        code, out, err = run(capsys, *command, "--q", str(path))
        assert code == 0
        assert out.splitlines()[-1] == "%s = " % key
        assert err.count("\n") == 1 and err.startswith("note: ") and reason in err


class TestLiftresCommand:
    def test_max_cases_past_the_tuple_count_sweeps_them_all(self, capsys):
        # theta at p = 2 has 2^3 = 8 bead tuples: a sample of 100 is all of them
        want = run(capsys, "liftres", "--graph", "theta", "--p", "2")
        got = run(capsys, "liftres", "--graph", "theta", "--p", "2", "--max-cases", "100")
        assert got == want and want[0] == 0
        assert want[1].splitlines()[1].split() == ["2", "3", "8", "0"]

    def test_builtin_graph_sweep(self, capsys):
        code, out, _ = run(capsys, "liftres", "--graph", "eyes", "--p", "2..3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].split() == ["2", "3", "8", "0"]
        assert lines[2].split() == ["3", "3", "27", "0"]

    def test_graph_from_file(self, capsys, tmp_path):
        from knotcovers.graphs import theta_graph

        f = tmp_path / "g.json"
        f.write_text(json.dumps(theta_graph().with_beads([1, 2, 0]).to_json()))
        code, out, _ = run(capsys, "liftres", "--file", str(f), "--p", "3", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[1] == "3,3,27,0"

    def test_non_integer_bead_is_invalid_input(self, capsys, tmp_path):
        from knotcovers.graphs import theta_graph

        obj = theta_graph().with_beads([1, 2, 0]).to_json()
        obj["edges"][0]["bead"] = 1.5
        f = tmp_path / "g.json"
        f.write_text(json.dumps(obj))
        code, out, err = run(capsys, "liftres", "--file", str(f), "--p", "3")
        assert (code, out) == (2, "")
        assert "'bead' must be an integer, got 1.5" in err


    @pytest.mark.parametrize("where, key, message", [
        ("edge", "baed", "an edge has an unknown key 'baed'"),
        ("graph", "vertex", "a graph has an unknown key 'vertex'"),
    ])
    def test_an_unknown_key_is_invalid_input(self, capsys, tmp_path, where, key, message):
        # an edge's misspelt "bead" was dropped, so the edge read as bead 0
        from knotcovers.graphs import theta_graph

        obj = theta_graph().with_beads([1, 2, 0]).to_json()
        (obj["edges"][0] if where == "edge" else obj)[key] = 1
        f = tmp_path / "g.json"
        f.write_text(json.dumps(obj))
        code, out, err = run(capsys, "liftres", "--file", str(f), "--p", "3")
        assert (code, out) == (2, "")
        assert err == "error: %s\n" % message

    @pytest.mark.parametrize("where, key, message", [
        ("edge", "to", "an edge is missing key 'to'"),
        ("edge", "from", "an edge is missing key 'from'"),
        ("graph", "edges", "a graph is missing key 'edges'"),
        ("graph", "vertices", "a graph is missing key 'vertices'"),
    ])
    def test_a_missing_key_is_named(self, capsys, tmp_path, where, key, message):
        # an edge without "to" printed the bare "error: 'to'"; "bead" may be left out
        from knotcovers.graphs import theta_graph

        obj = theta_graph().with_beads([1, 2, 0]).to_json()
        del (obj["edges"][0] if where == "edge" else obj)[key]
        f = tmp_path / "g.json"
        f.write_text(json.dumps(obj))
        code, out, err = run(capsys, "liftres", "--file", str(f), "--p", "3")
        assert (code, out) == (2, "")
        assert err == "error: %s\n" % message


def test_an_internal_key_error_is_not_invalid_input(monkeypatch, tmp_path):
    # KeyError is no validation error: a bug inside the package raising one
    # surfaces as a traceback, not as "error: ..." with exit 2
    import knotcovers.cli

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(knotcovers.cli, "res_p_theta", broken)
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"terms": [{"f": {"1": "1"}, "g": {"1": "1"}, "h": {"0": "1"},
                                           "c": "1"}]}))
    with pytest.raises(KeyError, match="internal"):
        main(["residue", "--q", str(path), "--p", "2"])
    monkeypatch.setattr(knotcovers.cli, "corpus_record", broken)
    with pytest.raises(KeyError, match="internal"):
        main(["alexander", "--knot", "trefoil"])


class TestSelftestCommand:
    def test_subset_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--criteria", "7,10")
        assert code == 0
        assert out.count("PASS") == 2
        assert "FAIL" not in out

    @pytest.mark.parametrize("criteria, unknown", [("13", "13"), ("0", "0"), ("1,99", "99")])
    def test_unknown_criterion_is_refused_before_any_runs(self, capsys, criteria, unknown):
        code, out, err = run(capsys, "selftest", "--criteria", criteria)
        assert code == 2
        assert out == ""
        assert "no criterion numbered %s (have 1..12)" % unknown in err

    def test_corruption_is_detected(self, capsys):
        code, out, _ = run(capsys, "selftest", "--criteria", "4", "--inject-corruption")
        assert code == 1
        assert "FAIL" in out
