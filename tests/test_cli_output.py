"""CLI rendering of values past Python's int-to-str digit limit."""

import re
import sys

import pytest

from knotcovers.cli import main


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
