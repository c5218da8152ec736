"""Command line surface: golden outputs, formats, exit codes."""

import json

import pytest

import knotcovers.cli
import knotcovers.seifert
from knotcovers.cli import main
from knotcovers.exactalg import LaurentPoly
from knotcovers.lambdamat import SingularEvaluation


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
        solves = []
        real = knotcovers.seifert.complex_signature
        monkeypatch.setattr(knotcovers.seifert, "complex_signature",
                            lambda H: solves.append(H.shape) or real(H))
        code, out, _ = run(capsys, "signature", "--knot", "trefoil", "--p", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total_sigma_p"] == sum(row[2] for row in payload["rows"]) == -8
        assert solves == [(2, 2)] * 4

    def test_blank_row_at_regular_p_is_an_error(self, capsys, monkeypatch):
        real = knotcovers.cli.signature_function

        def singular_at_first_root(knot, k, p):
            if k == 1:
                raise SingularEvaluation("forced")
            return real(knot, k, p)

        monkeypatch.setattr(knotcovers.cli, "signature_function", singular_at_first_root)
        code, _, err = run(capsys, "signature", "--knot", "trefoil", "--p", "5")
        assert code == 2
        assert "singular" in err


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


class TestLiftresCommand:
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
