"""CLI rendering of values past Python's int-to-str digit limit, the
exit when the reader of stdout goes away, and the parsers that ``main``
builds once per process: one per named command, and the full one."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import knotcovers
from knotcovers.cli import _COMMANDS, EXIT_PIPE, _parser, build_parser, main


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


def test_main_builds_only_the_named_commands_parser(capsys, monkeypatch):
    # a command's first call constructs the top parser and that command's
    # alone, a repeat constructs none; -h, no argv and an unknown command
    # share one full parser, the top one plus one per subcommand
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    _parser.cache_clear()
    try:
        for name in _COMMANDS:
            for _ in range(2):
                with pytest.raises(SystemExit):
                    main([name, "-h"])
            assert built == ["knotcovers", "knotcovers " + name]
            built.clear()
        assert main(["branched", "--knot", "trefoil", "--p", "2..5"]) == 0
        assert built == []
        for argv in (["-h"], [], ["bogus"]):
            with pytest.raises(SystemExit):
                main(argv)
        full = ["knotcovers"] + ["knotcovers " + name for name in _COMMANDS]
        assert built == full
        built.clear()
        assert build_parser() is not _parser(None)  # an outside caller cannot change main's parser
        assert built == full
    finally:
        _parser.cache_clear()


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


def test_each_commands_parser_answers_as_the_full_parser(capsys, monkeypatch):
    # main parses a named command with that command's parser alone: its help,
    # usage errors and exit codes are those of the parser with every command
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
    # the reused parser carries nothing from one call to the next: each argv
    # of the sequence, run in this process after the ones before it, gives
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
