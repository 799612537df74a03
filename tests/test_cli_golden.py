"""Pinned CLI outputs: every invocation in `cli_golden.json` must print the
same bytes and exit with the same code as when the file was written.

Refactors keep this output byte-identical.  When an output change is
intended, regenerate the file and review its diff:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from concordia.cli import main, render_text

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _chain_point(k: int) -> tuple[str, str]:
    """kP for P = (-5/9, 100/27) on E(-5,5), by the affine chord law in
    Fractions, so the input does not depend on the group law under test."""
    x1, y1 = Fraction(-5, 9), Fraction(100, 27)
    lam = (3 * x1 * x1 - 25) / (2 * y1)  # the tangent of y^2 = x^3 - 25x
    x, y = lam * lam - 2 * x1, lam * (x1 - (lam * lam - 2 * x1)) - y1
    for _ in range(k - 2):
        lam = (y - y1) / (x - x1)
        x, y = lam * lam - x - x1, lam * (x1 - (lam * lam - x - x1)) - y1
    return str(x), str(y)


def invocations() -> list[list[str]]:
    x20, y20 = _chain_point(20)
    return [
        ["classify", "--m", "-1", "--n", "3"],
        ["classify", "--p", "9", "--q", "16", "--k", "1"],
        ["--format", "text", "classify", "--m", "-4", "--n", "5"],
        ["solve", "theta", "--r", "0", "--s", "1", "--k", "5",
         "--bound", "2000"],
        ["solve", "theta", "--r=-1", "--s", "3", "--k", "5",
         "--bound", "2000"],
        ["--format", "text", "solve", "theta", "--r", "2", "--s", "5",
         "--k", "2", "--bound", "2000"],
        ["solve", "concordant", "--p", "5", "--q", "7", "--k", "1",
         "--bound", "2000"],
        ["convert", "chain", "--m", "-5", "--n", "5", f"--x={x20}",
         f"--y={y20}", "--r", "0", "--s", "1"],
        ["--format", "text", "convert", "chain", "--m", "-5", "--n", "5",
         f"--x={x20}", f"--y={y20}"],
        ["convert", "to-concordant", "--r", "1", "--s", "3", "--k", "6"],
        ["verify", "concordant", "--m", "-1", "--n", "3", "--x", "1",
         "--y", "1", "--z", "0", "--w", "2"],
        ["verify", "concordant", "--m", "-1", "--n", "3", "--x", "1",
         "--y", "1", "--z", "1", "--w", "2"],
        ["family", "order8", "--xi", "3", "--eta", "4", "--zeta", "5"],
        ["family", "order36", "--a", "-1", "--b", "3"],
        ["search", "--m", "-5", "--n", "5", "--bound", "2000"],
        ["classify", "--m", "-20", "--n", "108"],
        ["classify", "--m", "1", "--n", "4"],
        ["convert", "to-congruent", "--p", "1", "--q", "3", "--k", "1"],
        ["family", "order4", "--u", "1", "--v", "2"],
        ["--format", "text", "selftest", "--pmax", "6"],
        ["classify", "--m", "81", "--n", "256"],
        ["classify", "--m", "-8", "--n", "12"],
        ["--format", "text", "solve", "concordant", "--p", "1", "--q", "3",
         "--k", "1", "--bound", "100"],
        ["--format", "text", "convert", "to-concordant", "--r", "1", "--s",
         "3", "--k", "6"],
        ["--format", "text", "convert", "to-congruent", "--p", "1", "--q",
         "3", "--k", "1"],
        ["--format", "text", "verify", "concordant", "--m", "-1", "--n", "3",
         "--x", "1", "--y", "1", "--z", "0", "--w", "2"],
        ["--format", "text", "verify", "concordant", "--m", "-1", "--n", "3",
         "--x", "1", "--y", "1", "--z", "1", "--w", "2"],
        ["--format", "text", "search", "--m", "-5", "--n", "5", "--bound",
         "2000"],
        ["--format", "text", "family", "order4", "--u", "2", "--v", "3"],
        ["--format", "text", "family", "order8", "--xi", "3", "--eta", "4",
         "--zeta", "5"],
        ["--format", "text", "family", "order36", "--a", "-1", "--b", "5"],
        ["selftest", "--pmax", "6"],
    ]


def _run(argv, capsys) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def _cases():
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


@pytest.mark.parametrize("case", _cases(), ids=lambda c: " ".join(
    a if len(a) < 20 else a[:8] + "..." for a in c["argv"]))
def test_cli_output_is_pinned(case, capsys):
    code, out = _run(case["argv"], capsys)
    assert code == case["exit"]
    assert out == case["stdout"]


def test_text_is_the_json_document_rendered(capsys):
    # Every pinned `--format text` output is `render_text` of the JSON
    # output of the same argv.  The 20P chain's quadric has 660-digit
    # integers, so the limit is lifted to read and render them.
    text_cases = [c for c in _cases() if c["argv"][:2] == ["--format", "text"]]
    assert len(text_cases) == 13
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for case in text_cases:
            code, out = _run(case["argv"][2:], capsys)
            assert code == case["exit"]
            assert "\n".join(render_text(json.loads(out))) + "\n" == \
                case["stdout"]
    finally:
        sys.set_int_max_str_digits(limit)


def test_golden_file_covers_the_invocations():
    cases = json.loads(GOLDEN.read_text())
    assert [c["argv"] for c in cases] == invocations()


if __name__ == "__main__":
    import contextlib
    import io

    cases = []
    for argv in invocations():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        cases.append({"argv": argv, "exit": code, "stdout": buf.getvalue()})
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
