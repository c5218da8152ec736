"""Tests of the benchmark's own parts: checker, tracer, generator, metadata.

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

import knotcovers.acceptance  # noqa: E402
import knotcovers.branched  # noqa: E402
import knotcovers.cli  # noqa: E402
import knotcovers.seifert  # noqa: E402


def _branched_op(tmp_path, ps=(2, 6)):
    rng = random.Random(7)
    A = gen.seifert(rng, 1)
    q = gen.poly_class(rng)
    knot, qfile = tmp_path / "k.json", tmp_path / "q.json"
    knot.write_text(json.dumps(A))
    qfile.write_text(json.dumps(q))
    argv = ["branched", "--file", str(knot), "--q", str(qfile), "--p", "%d..%d" % ps, "--format", "json"]
    return gen.Op("branched", argv, A=A, q=q, ps=list(range(ps[0], ps[1] + 1)))


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = knotcovers.cli.main(argv)
    return {"rc": rc, "stdout": out.getvalue(), "stderr": ""}


def test_corrupted_beta_counts_as_failed_op(tmp_path):
    op = _branched_op(tmp_path)
    good = _cli(op.argv)
    tally = run.Tally()
    tally.add([op], {"ops": [good]})
    assert (tally.attempted, tally.failed, tally.wrong) == (1, 0, 0)

    payload = json.loads(good["stdout"])
    row = next(r for r in payload["rows"] if r[1])  # first regular p
    row[3] += 1  # beta_p off by one
    bad = dict(good, stdout=json.dumps(payload))
    tally.add([op], {"ops": [bad]})
    assert (tally.attempted, tally.failed, tally.wrong) == (2, 1, 1)
    assert "beta_p" in tally.reasons[0]

    tally.add([op], {"ops": [dict(good, rc=2)]})
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 1)


def test_tracer_sees_copied_bindings_and_nests_spans(tmp_path):
    op = _branched_op(tmp_path, ps=(2, 4))
    t = tracer.Tracer()
    t.install()
    try:
        for binding in (
            knotcovers.branched.alexander,
            knotcovers.cli.alexander,
            knotcovers.acceptance.varsigma_at,
            knotcovers.seifert.LambdaMatrix.det,
        ):
            assert hasattr(binding, tracer.MARK)
        assert _cli(op.argv)["rc"] == 0
    finally:
        t.uninstall()
    assert tracer.wrapped_bindings() == []

    path = tmp_path / "spans.json"
    t.dump(path)
    dump = json.loads(path.read_text())
    summary = tracer.summarize(dump)
    regular = sum(oracle.regular(op.expect["A"], p) for p in op.expect["ps"])
    irregular = len(op.expect["ps"]) - regular
    assert summary["seifert.alexander"]["calls"] == 4 * regular + irregular
    assert summary["cli.main"]["calls"] == 1

    names, starts, ends, parents = dump["spans"]

    def ancestors(i):
        while parents[i] >= 0:
            i = parents[i]
            yield dump["names"][names[i]]

    for i, idx in enumerate(names):
        if dump["names"][idx] == "lambdamat.LambdaMatrix.det":
            chain = list(ancestors(i))
            assert chain[-2:] == ["branched.branched_report", "cli.main"]
            par = parents[i]
            assert starts[par] <= starts[i] <= ends[i] <= ends[par]
    for rec in summary.values():
        assert rec["self_s"] >= 0.0


def test_untraced_worker_leaves_every_function_unwrapped(tmp_path):
    deadline = time.perf_counter() + 60
    plain = run.run_worker([["alexander", "--knot", "trefoil"]], None, deadline, tmp_path)
    assert plain["wrapped"] == []
    assert plain["ops"][0]["rc"] == 0
    assert len(plain["probes"]) == 6 and min(plain["probes"]) > 0
    traced = run.run_worker([["alexander", "--knot", "trefoil"]], tmp_path / "t.json", deadline, tmp_path)
    assert "knotcovers.cli.alexander" in traced["wrapped"]


def test_worker_refuses_a_raised_digit_limit():
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=0", str(HERE / "worker.py"), str(run.SRC)],
        input="", capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "ready" not in proc.stdout
    assert "digit limit" in proc.stderr


def test_pass_count_depends_only_on_workload_and_seconds():
    for workload in run.WORKLOADS:
        assert run.pass_count(workload, 1) == 1
    assert [run.pass_count(w, 25) for w in run.WORKLOADS] == [9, 6, 6, 1]


def test_bigint_op_exceeds_the_digit_limit_on_every_seed(tmp_path):
    for seed in range(4):
        ops = gen.make_pass("growth", seed, 0, tmp_path / str(seed), set())
        big = [op for op in ops if op.expect.get("bigint")]
        assert len(big) == 1
        (p,) = big[0].expect["ps"]
        assert oracle.beta_p(big[0].expect["A"], p) >= 10**gen.DEFAULT_MAX_STR_DIGITS
        for op in ops:
            if not op.expect.get("bigint"):
                betas = oracle.beta_series(op.expect["A"], op.expect["ps"])
                assert max(betas.values()) < 10**gen.DEFAULT_MAX_STR_DIGITS


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_regular_is_exact_near_a_root_of_unity():
    # |Delta(exp(2 pi i / 15))| is about 7e-5 here, yet beta_15 != 0
    A = [[1, 1, 2, 0, 1, 1], [1, -2, 2, 1, 0, -1], [2, 2, 1, 2, -2, 0],
         [-1, 1, 2, 1, 0, 0], [1, -1, -2, 0, -1, 2], [1, -1, -1, 0, 2, -1]]
    assert oracle.regular(A, 15) and oracle.beta_p(A, 15) != 0
    trefoil = [[-1, 1], [0, -1]]  # Delta = t^2 - t + 1, roots of unity of order 6
    assert [p for p in range(2, 13) if not oracle.regular(trefoil, p)] == [6, 12]
