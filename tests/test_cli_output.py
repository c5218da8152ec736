"""CLI rendering of values past Python's int-to-str digit limit, and the
exit when the reader of stdout goes away."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import knotcovers
from knotcovers.cli import EXIT_PIPE, main


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
