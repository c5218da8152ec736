"""CLI rendering of values past Python's int-to-str digit limit, CSV
fields that need quoting, the exit when the reader of stdout goes away, the command-table parse of a
well-formed command line against argparse, and the one full parser that
``main`` builds for help and usage errors."""

import argparse
import csv
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import knotcovers
from knotcovers.cli import _COMMANDS, EXIT_PIPE, _flag_groups, _table_parse, build_parser, main


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_beta_past_the_digit_limit_is_printed(capsys, fmt):
    # the figure-8's Delta = -t + 3 - 1/t has roots phi^2 and phi^-2, so
    # beta_p = |prod (3 - w - 1/w)| over p-th roots w is L_2p - 2
    limit = sys.get_int_max_str_digits()
    code = main(["growth", "--knot", "figure8", "--ps", "12000", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        want = str(lucas(24000) - 2)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > sys.int_info.default_max_str_digits
    assert want in re.split(r"[\s,\[\]]+", out)


@pytest.mark.parametrize("name", ["a,b.json", 'q"x.json', "line\nbreak.json", "cr\rx.json",
                                  "plain.json"])
def test_csv_quotes_fields_that_need_it(capsys, tmp_path, name):
    # a bare matrix file is named by its path, which may hold a comma, a
    # quote, CR or LF: each such field is quoted, its quotes doubled, so a
    # CSV reader reads two fields on every row and the path back as it is
    path = tmp_path / name
    path.write_text("[[-1, 1], [0, -1]]")
    assert main(["alexander", "--file", str(path), "--format", "csv"]) == 0
    out = capsys.readouterr().out
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert [len(row) for row in rows] == [2] * 7
    assert rows[:3] == [["field", "value"], ["name", str(path)], ["alexander", "t^-1 - 1 + t"]]
    assert (out.count('"') == 0) == (name == "plain.json")


def test_csv_output_loads_no_csv_module(tmp_path):
    # the quoting is done by hand: no csv import on the start path
    path = tmp_path / "a,b.json"
    path.write_text("[[-1, 1], [0, -1]]")
    paths = [str(Path(knotcovers.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = ("import sys; from knotcovers.cli import main; "
            "main(['alexander', '--file', sys.argv[1], '--format', 'csv']); "
            "print('csv' in sys.modules, file=sys.stderr)")
    run = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0 and run.stderr.split() == ["False"], run.stderr
    assert run.stdout.splitlines()[1] == 'name,"%s"' % path


def test_input_keeps_the_digit_limit(capsys, tmp_path):
    f = tmp_path / "knot.json"
    f.write_text("[[%s]]" % ("1" * (sys.int_info.default_max_str_digits + 1)))
    limit = sys.get_int_max_str_digits()
    code = main(["alexander", "--file", str(f)])
    assert code == 2
    assert "limit" in capsys.readouterr().err
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("argv", [["liftres", "--graph", "theta", "--p", "2..4"],
                                  ["selftest", "--criteria", "7"]])
def test_closed_stdout_ends_quietly(argv):
    # the reader closes its end before the command writes: the write fails
    # with EPIPE, which is not invalid input (exit 2) and must not leave an
    # "Exception ignored" line from the interpreter's flush at exit
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(knotcovers.__file__).parents[1])]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-m", "knotcovers.cli", *argv], stdout=write,
                             stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (EXIT_PIPE, "") == (141, "")


def test_closed_stdout_without_a_descriptor(capsys, monkeypatch):
    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["liftres", "--graph", "theta", "--p", "2"]) == EXIT_PIPE
    assert capsys.readouterr().err == ""


def test_well_formed_calls_build_no_parser(capsys, monkeypatch, tmp_path):
    # a well-formed call of any command constructs no parser at all
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "q.json").write_text('{"terms": [{"f": {"0": "1"}, "g": {"0": "1"}, '
                                     '"h": {"0": "1"}, "c": "1"}]}')
    for name, (full, _) in _FLAGS.items():
        assert main([name, *full]) in (0, 1)
    assert built == []


def _argparse_exit(parse, argv, capsys):
    # (exit code, stdout, stderr) of an argv that argparse answers itself
    with pytest.raises(SystemExit) as e:
        parse(argv)
    captured = capsys.readouterr()
    return e.value.code, captured.out, captured.err


_FLAGS = {  # each command's flags: a full set, then one missing a required flag or a value
    "alexander": (["--knot", "trefoil"], ["--knot"]),
    "signature": (["--knot", "trefoil", "--p", "7"], ["--knot", "trefoil"]),
    "branched": (["--knot", "trefoil", "--p", "2..4"], ["--knot", "trefoil"]),
    "growth": (["--knot", "trefoil", "--pmax", "5"], ["--pmax"]),
    "residue": (["--q", "q.json", "--p", "3"], ["--p", "3"]),
    "liftres": (["--graph", "theta", "--p", "2"], ["--graph", "theta"]),
    "selftest": (["--criteria", "7"], ["--criteria"]),
}


def _parse_errors():
    for name, (full, missing) in _FLAGS.items():
        yield [name, "-h"]
        yield [name, *missing]
        yield [name, *full, "--bogus"]  # the subparser passes it up: the top parser refuses it
        if name != "selftest":
            yield [name, *full, "--format", "xml"]
    yield ["growth", "--ps", "5", "--pmax", "3"]
    yield ["-h"]
    yield []
    yield ["bogus"]


def test_main_answers_as_the_full_parser(capsys, monkeypatch):
    # main leaves help and usage errors to argparse: its messages and exit
    # codes are those of the parser with every command
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    full = build_parser()
    seen = []
    for argv in _parse_errors():
        want = _argparse_exit(full.parse_args, argv, capsys)
        assert _argparse_exit(main, argv, capsys) == want, argv
        seen.append(want)
    assert list(_FLAGS) == list(_COMMANDS)
    assert [code for code, _, _ in seen].count(0) == len(_COMMANDS) + 1
    assert {code for code, _, _ in seen} == {0, 2}
    refused = "knotcovers: error: unrecognized arguments: --bogus\n"
    assert [err.endswith(refused) for _, _, err in seen].count(True) == len(_COMMANDS)


def test_help_fits_in_80_columns(capsys, monkeypatch):
    # argparse wraps usage at the terminal width, but never inside an
    # exclusive group, so a long choices list there overflows the line
    monkeypatch.setenv("COLUMNS", "80")
    for argv in [["-h"]] + [[name, "-h"] for name in _COMMANDS]:
        code, out, err = _argparse_exit(main, argv, capsys)
        assert (code, err) == (0, "")
        assert max(len(line) for line in out.splitlines()) <= 80, argv


def test_two_sources_are_refused(capsys, monkeypatch):
    # a knot command takes --knot or --file, liftres --graph or --file, not
    # both: the table parse leaves the pair to argparse, which refuses it
    monkeypatch.setenv("COLUMNS", "80")
    two = [(name, full, full[0]) for name, (full, _) in _FLAGS.items()
           if full[0] in ("--knot", "--graph")]
    assert [name for name, _, _ in two] == ["alexander", "signature", "branched", "growth",
                                            "liftres"]
    for name, full, source in two:
        for argv in ([name, *full, "--file", "x.json"], [name, "--file", "x.json", *full]):
            assert _table_parse(argv) is None, argv
            code, out, err = _argparse_exit(main, argv, capsys)
            first, second = (source, "--file") if argv[1] == source else ("--file", source)
            assert (code, out) == (2, ""), argv
            assert err.endswith("error: argument %s: not allowed with argument %s\n"
                                % (second, first)), argv


_SEQUENCE = [
    ["growth", "--knot", "figure8", "--ps", "5", "--pmax", "3"],  # argparse usage error
    ["branched", "--knot", "bogus", "--p", "2..5"],  # ValueError
    ["growth", "--knot", "figure8", "--pmax", "20", "--plot-data"],
    ["growth", "--knot", "figure8", "--pmax", "20"],
    ["branched", "--knot", "trefoil", "--p", "2..12", "--format", "csv"],
    ["branched", "--knot", "trefoil", "--p", "2..12"],
    ["signature", "--knot", "figure8", "--p", "7", "--out", "{out}"],
    ["signature", "--knot", "figure8", "--p", "7"],
    ["selftest", "--criteria", "10"],
    ["branched", "-h"],
    ["liftres", "--graph", "theta", "--p", "2", "--bogus"],  # top parser's usage error
]


def _untimed(text):
    # selftest's per-criterion seconds are the one field that varies between runs
    return re.sub(r"\(\s*\d+\.\d+s\)", "(s)", text)


def test_one_process_matches_a_fresh_process_per_command(capsys, monkeypatch, tmp_path):
    # a call carries nothing over to the next: each argv of the sequence,
    # run in this process after the ones before it, gives
    # the exit code, stdout, stderr and --out file of its own fresh process
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage at the terminal width
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(knotcovers.__file__).parents[1])]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = tmp_path / "out.txt"

    def written():
        text = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return text

    here, fresh = [], []
    for argv in _SEQUENCE:
        argv = [a.format(out=out) for a in argv]
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        here.append((code, _untimed(captured.out), captured.err, written()))
        run = subprocess.run([sys.executable, "-m", "knotcovers.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        fresh.append((run.returncode, _untimed(run.stdout), run.stderr, written()))
    assert [r[0] for r in here] == [2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2]
    assert here[0][2].startswith("usage: knotcovers growth") and here[1][2].startswith("error:")
    assert here[6][1] == "" and here[6][3] == here[7][1]
    assert here[9][1].startswith("usage: knotcovers branched")
    assert here[10][2].startswith("usage: knotcovers [-h]\n")
    assert "{%s}" % ",".join(_COMMANDS) in here[10][2]
    assert here == fresh


def _options(name):
    # (option, add_argument keywords) of each of the command's flags, groups flattened
    return [flag for group in _flag_groups(_COMMANDS[name][1]) for flag in group]


_POOL = ["", "-", "-3", "--", "-h", "--p=3", "--form", " 7", "+7", "7_0", "x", "xml",
         *sorted({option for name in _COMMANDS for option, _ in _options(name)}), *_COMMANDS]


def _value(rng, kw):
    # mostly a value the flag takes, else any token of the pool
    if rng.random() < 0.2:
        return rng.choice(_POOL)
    if "choices" in kw:
        return rng.choice(kw["choices"])
    if kw.get("type") is int:
        return str(rng.randrange(300))
    return rng.choice(["trefoil", "q.json", "2..5", "7", "2,3,5"])


def _random_argv(rng):
    # a command line near a well-formed one: some of a command's flags in any
    # order (--pmax and --ps together in about one growth line in six), plus
    # stray pool tokens, a repeated flag or a first token that is no command
    name = rng.choice(list(_COMMANDS))
    flags = [f for f in _options(name) if rng.random() < (0.9 if f[1].get("required") else 0.4)]
    rng.shuffle(flags)
    argv = [name]
    for option, kw in flags + rng.sample(flags, min(len(flags), rng.random() < 0.1)):
        argv.append(option)
        if kw.get("action") != "store_true":
            argv.append(_value(rng, kw))
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(_POOL))
    if rng.random() < 0.05:
        argv[0] = rng.choice(_POOL)
    return argv


def test_table_parse_agrees_with_argparse(capsys):
    # the table parse reads a strict subset of argparse's language: what it
    # accepts, argparse accepts with the same namespace; what argparse
    # refuses (or answers with help), the table parse leaves to argparse
    rng = random.Random(20261019)
    parser = build_parser()
    accepted = refused = 0
    for _ in range(2500):
        argv = _random_argv(rng)
        ours = _table_parse(argv)
        try:
            want = vars(parser.parse_args(argv))
        except SystemExit:
            assert ours is None, argv
            refused += 1
            continue
        if ours is not None:
            assert vars(ours) == want, argv
            accepted += 1
    capsys.readouterr()
    assert accepted > 500 and refused > 500
    # left to argparse, which answers -h, refuses the stray "--" and takes the
    # rest: a value after "=", an abbreviation, a repeat, a value starting with "-"
    for argv in (["selftest", "-h"], ["selftest", "--"], ["signature", "--knot", "x", "--p=3"],
                 ["alexander", "--knot", "x", "--form", "csv"],
                 ["alexander", "--knot", "x", "--knot", "y"],
                 ["liftres", "--graph", "theta", "--p", "2", "--seed", "-5"]):
        assert _table_parse(argv) is None, argv


_BENCH_SHAPES = [  # the command lines of the benchmark's ops, one per shape
    ["branched", "--file", "k0.json", "--q", "q0.json", "--p", "2..20", "--format", "json"],
    ["growth", "--file", "k0.json", "--q", "q0.json", "--pmax", "200", "--format", "json"],
    ["growth", "--file", "k1.json", "--ps", "2950,4150", "--format", "json"],
    ["liftres", "--graph", "theta-theta", "--p", "2..6", "--format", "json"],
    ["liftres", "--graph", "theta-eyes", "--p", "7", "--max-cases", "3000", "--seed", "1893",
     "--format", "json"],
    ["selftest", "--criteria", "4"],
]


def test_well_formed_command_lines_take_the_table_path(tmp_path):
    # every well-formed command line of these tests and of the benchmark is
    # read from the table, into argparse's namespace; of _SEQUENCE, all but
    # the usage error first and the -h and --bogus last
    sequence = [[a.format(out=tmp_path / "out.txt") for a in argv] for argv in _SEQUENCE[1:-2]]
    parser = build_parser()
    for argv in [[name, *full] for name, (full, _) in _FLAGS.items()] + sequence + _BENCH_SHAPES:
        ours = _table_parse(argv)
        assert ours is not None, argv
        assert vars(ours) == vars(parser.parse_args(argv)), argv


def test_a_command_runs_with_the_cyclic_collector_paused(monkeypatch, capsys):
    # paused while the command runs and left as the caller had it after: on
    # success, on invalid input (exit 2), on an exception that escapes main,
    # and paused still when the caller had paused it
    import gc

    import knotcovers.cli

    real, seen = knotcovers.cli.signature_function, []
    fail = []

    def recorded(knot, k, p):
        seen.append(gc.isenabled())
        if fail:
            raise fail[0]
        return real(knot, k, p)

    monkeypatch.setattr(knotcovers.cli, "signature_function", recorded)
    argv = ["signature", "--knot", "trefoil", "--p", "7"]
    assert gc.isenabled()
    try:
        assert main(argv) == 0 and seen and not any(seen) and gc.isenabled()
        fail.append(ValueError("bad input"))
        assert main(argv) == 2 and gc.isenabled()
        fail[0] = RuntimeError("a bug")
        with pytest.raises(RuntimeError):
            main(argv)
        assert gc.isenabled()
        fail[0] = ValueError("bad input")
        gc.disable()
        assert main(argv) == 2 and not gc.isenabled()
    finally:
        gc.enable()
    assert len(seen) == 6 + 3 and not any(seen)
    capsys.readouterr()
