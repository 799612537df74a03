import argparse
import contextlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from concordia.cli import (DigitLimitError, _check_digits, build_parser, main,
                           render_text)
from concordia.curves import Curve, Point
from concordia.geometry import DegenerateTriangleError, Triangle
from concordia.serialize import point_json
from concordia.torsion import TorsionClass, classify_torsion

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def exit_code(argv):
    """main's exit code, whether it returns it or the parser exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def assert_refused(capsys, argv, flag, reason):
    """The parser's refusal of `flag` in `argv`: nothing on stdout, a usage
    line, then exactly the line that names the flag and the reason."""
    prog = " ".join(["concordia", *itertools.takewhile(
        lambda word: not word.startswith("-"), argv)])
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: {prog} [-h] ")
    assert err.endswith(f"\n{prog}: error: argument {flag}: {reason}\n")


def test_classify_json(capsys):
    code, payload = run_json(capsys, "classify", "--m", "-1", "--n", "3")
    assert code == 0
    assert payload["torsion"]["class"] == "Z2xZ4"
    assert payload["curve"] == {"m": -1, "n": 3}
    expected = ["O", ["-3", "0"], ["-1", "-2"], ["-1", "2"], ["0", "0"],
                ["1", "0"], ["3", "-6"], ["3", "6"]]
    assert sorted(payload["points"], key=str) == sorted(expected, key=str)


def test_classify_via_triple(capsys):
    code, payload = run_json(capsys, "classify", "--p", "1", "--q", "3",
                             "--k", "1")
    assert code == 0
    assert payload["curve"] == {"m": -1, "n": 3}


def test_classify_text_format(capsys):
    code, out = run(capsys, "--format", "text", "classify", "--m", "-1",
                    "--n", "3")
    assert code == 0
    assert "Z2xZ4" in out


def test_classify_usage_errors(capsys):
    assert main(["classify"]) == 1
    assert main(["classify", "--m", "-1"]) == 1


@pytest.mark.parametrize("extra", [["--p", "1"], ["--k", "1"],
                                   ["--p", "1", "--q", "3", "--k", "1"]])
def test_classify_refuses_mn_with_pqk(capsys, extra):
    assert main(["classify", "--m", "-1", "--n", "3", *extra]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: give either --m/--n or --p/--q/--k, not both\n"


def test_bad_flag_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--bogus", "1"])
    assert exc.value.code == 1


def test_degenerate_curve_is_usage_error():
    assert main(["classify", "--m", "3", "--n", "3"]) == 1


def test_solve_theta_json(capsys):
    code, payload = run_json(capsys, "solve", "theta", "--r", "1", "--s", "2",
                             "--k", "1")
    assert code == 0
    assert len(payload["triangles"]) == 1
    assert payload["triangles"][0]["sides"] == ["2", "2", "2"]
    assert len(payload["triangles"][0]["points"]) == 4


def test_solve_concordant_json(capsys):
    code, payload = run_json(capsys, "solve", "concordant", "--p", "1",
                             "--q", "1", "--k", "1", "--bound", "30")
    assert code == 0
    assert payload["solutions"] == []
    assert payload["decidability"] == "bounded"


def test_convert_roundtrip(capsys):
    code, payload = run_json(capsys, "convert", "to-concordant", "--r", "1",
                             "--s", "2", "--k", "1")
    assert code == 0
    assert payload["concordant"] == [1, 3, 1]
    code, payload = run_json(capsys, "convert", "to-congruent", "--p", "1",
                             "--q", "3", "--k", "1")
    assert code == 0
    assert payload["congruent"] == [1, 2, 1]


def test_convert_rejects_impossible(capsys):
    for argv, err in [
        (["to-congruent", "--p", "1", "--q", "2", "--k", "1"],
         "no congruent preimage: p, q of unequal parity require even k"),
        (["to-concordant", "--r", "1", "--s", "0", "--k", "1"],
         "s and k must be positive"),
        (["to-concordant", "--r", "2", "--s", "4", "--k", "1"],
         "r and s must be coprime"),
    ]:
        assert main(["convert", *argv]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")


def test_verify_exit_codes(capsys):
    assert main(["verify", "concordant", "--m", "1", "--n", "4", "--x", "0",
                 "--y", "1", "--z", "1", "--w", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "concordant", "--m", "1", "--n", "4", "--x", "1",
                 "--y", "1", "--z", "1", "--w", "1"]) == 2


@pytest.mark.parametrize("args", ["--m 0 --n 0 --x 1 --y 1 --z 1 --w 1",
                                  "--m 2 --n 2 --x 1 --y 2 --z 3 --w 3"])
def test_verify_refuses_degenerate_forms(args, capsys):
    assert main(["verify", "concordant", *args.split()]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "degenerate cubic" in err


def cli(*argv, **env):
    return subprocess.run([sys.executable, "-m", "concordia.cli", *argv],
                          capture_output=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC, **env))


def test_search_is_repeatable_and_writes_no_file(tmp_path):
    argv = ("search", "--m", "-5", "--n", "5", "--bound", "50")
    first = cli(*argv, HOME=str(tmp_path))
    assert first.returncode == 0
    rows = {tuple(p["point"]): p for p in json.loads(first.stdout)["points"]}
    assert rows[("25/4", "75/8")]["order"] == "infinite"
    second = cli(*argv, HOME=str(tmp_path))
    assert (second.returncode, second.stdout) == (0, first.stdout)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["search", "--m", "-5", "--n", "5"],
    ["solve", "concordant", "--p", "1", "--q", "1", "--k", "1"],
    ["solve", "theta", "--r", "0", "--s", "1", "--k", "5"],
])
@pytest.mark.parametrize("bound,reason", [
    pytest.param(str(10 ** 7 + 1), "must be at most 10000000",
                 id=str(10 ** 7 + 1)),
    # The digit rule comes before the conversion and the cap.
    pytest.param("1" + "0" * 5000, "the value has a 5001-digit integer; the "
                 "limit is 4300 digits", id="1" + "0" * 5000),
])
def test_bound_over_limit_is_refused_at_once(argv, bound, reason,
                                             monkeypatch, capsys):
    # Refused at the parser: the search and the solvers are never reached.
    def unreachable(*args):
        raise AssertionError("a refused bound reached the search")

    monkeypatch.setattr("concordia.curves.Curve.search", unreachable)
    monkeypatch.setattr("concordia.problems.solve_concordant", unreachable)
    monkeypatch.setattr("concordia.problems.solve_theta_congruent",
                        unreachable)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--bound", bound])
    assert exc.value.code == 1
    assert_refused(capsys, argv, "--bound", reason)
    # int() refuses "²", though "²".isdigit() holds.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--bound=²"])
    assert exc.value.code == 1
    assert "--bound: invalid int value: '²'" in capsys.readouterr().err


def test_closed_stdout_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "concordia.cli", "classify",
         "--m", str(-10 ** 100), "--n", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=SRC))
    proc.stdout.close()  # the reader goes away before any output
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == ""  # no BrokenPipeError traceback


def test_family_commands(capsys):
    code, payload = run_json(capsys, "family", "order4", "--u", "1",
                             "--v", "2")
    assert code == 0
    assert payload["curve"] == {"m": -1, "n": 3}
    code, payload = run_json(capsys, "family", "order8", "--xi", "3",
                             "--eta", "4", "--zeta", "5")
    assert code == 0
    assert payload["torsion"] == "Z2xZ8"
    code, payload = run_json(capsys, "family", "order36", "--a", "-2",
                             "--b", "7")
    assert code == 0
    assert payload["concordant"] == [32, 343, 3]
    assert payload["congruent"] == [311, 375, 6]
    assert payload["congruent_curve"] == [-384, 4116]


def test_family_rejects_bad_params(capsys):
    for argv, err in [
        (["order8", "--xi", "2", "--eta", "3", "--zeta", "4"],
         "not a Pythagorean triple"),
        (["order4", "--u", "3", "--v", "2"], "coprime 0 < u < v required"),
        (["order36", "--a", "-2", "--b", "4"], "a and b must be coprime"),
        (["order36", "--a", "1", "--b", "2"],
         "need a < 0 < b with a+2b > 0, 2a+b > 0, a+b != 0"),
    ]:
        assert main(["family", *argv]) == 1
        assert capsys.readouterr() == ("", f"error: {err}\n")


def test_family_order8_rejects_negative_zeta(capsys):
    assert main(["family", "order8", "--xi", "3", "--eta", "4",
                 "--zeta", "-5"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: primitive triple with 0 < xi < eta, zeta > 0 " \
                  "required\n"


def test_selftest_shallow(capsys):
    code, out = run(capsys, "--format", "text", "selftest", "--pmax", "6")
    assert (code, out) == (0, "failures: ()\npassed: true\n")


def test_selftest_pmax_picks_the_grid(monkeypatch, capsys):
    grids = []
    monkeypatch.setattr("concordia.sweeps.oracle_equivalence_sweep",
                        lambda p_max, jobs: grids.append((p_max, jobs)) or [])
    assert main(["selftest"]) == 0
    assert main(["selftest", "--pmax", "9", "--jobs", "1"]) == 0
    assert grids == [(6, 1), (9, 1)]


def _trivial_at_3(m, n, x, y, z, w):
    """A verifier that calls the counterexample (0,1,1,3) trivial."""
    return "trivial" if w == 3 else "nontrivial"


@pytest.mark.parametrize("oracle,family,verifier,code,failures", [
    (["E(-1,3): oracle max order 2"], [], None, 3,
     ["E(-1,3): oracle max order 2"]),
    ([], ["order8(3, 4, 5): congruent k=3"], None, 2,
     ["order8(3, 4, 5): congruent k=3"]),
    ([], [], _trivial_at_3, 2, ["counterexample suite failed at k=3"]),
    # an oracle mismatch outranks the other failures
    (["E(-1,3): x"], ["order4(1, 2): y"], _trivial_at_3, 3,
     ["counterexample suite failed at k=3", "order4(1, 2): y",
      "E(-1,3): x"]),
], ids=["oracle", "family", "counterexample", "all"])
def test_selftest_failures_set_the_exit_code(oracle, family, verifier, code,
                                             failures, monkeypatch, capsys):
    monkeypatch.setattr("concordia.sweeps.oracle_equivalence_sweep",
                        lambda p_max, jobs: list(oracle))
    monkeypatch.setattr("concordia.sweeps.family_sweep",
                        lambda limit: list(family))
    if verifier is not None:
        monkeypatch.setattr("concordia.problems.verify_concordant_solution",
                            verifier)
    # Each failure has a space, so the text quotes it as JSON does.
    assert run(capsys, "--format", "text", "selftest") == (
        code, f"failures: ({', '.join(map(json.dumps, failures))})\n"
              "passed: false\n")
    assert run_json(capsys, "selftest") == (
        code, {"failures": failures, "passed": False})


@pytest.mark.parametrize("flag,limit", [("--pmax", 60),
                                        ("--jobs", os.cpu_count() or 1)])
def test_selftest_caps_are_refused_by_the_parser(flag, limit, capsys):
    # Parse only, so a cap that let a value through could start no Pool.
    parser = build_parser()
    args = parser.parse_args(["selftest", flag, str(limit)])
    assert getattr(args, flag[2:]) == limit
    digits = "the value has a 5000-digit integer; the limit is 4300 digits"
    for value, reason in ((str(limit + 1), f"must be at most {limit}"),
                          ("9" * 5000, digits), ("0", "must be at least 1"),
                          ("-5", "must be at least 1"),
                          ("-" + "9" * 5000, digits)):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["selftest", flag, value])
        assert exc.value.code == 1
        assert_refused(capsys, ["selftest"], flag, reason)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["selftest", f"{flag}=¹²"])
    assert exc.value.code == 1
    assert f"{flag}: invalid int value: '¹²'" in capsys.readouterr().err


def test_chain_over_digit_limit_is_refused(capsys):
    # 52P of (-4, 6) on E(-5,5) has a 2231-digit x numerator, and its
    # quadric coordinates have 4462 digits: past Python's int->str limit.
    c = Curve(-5, 5)
    P = c.multiply(c.point(-4, 6), 52)
    for fmt in ("json", "text"):
        assert main(["--format", fmt, "convert", "chain", "--m", "-5",
                     "--n", "5", "--x", str(P.x), "--y", str(P.y)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: the result has a 4462-digit integer; "
                       "the limit is 4300 digits\n")
    for x in ("1/1" + "0" * 4300, "1_" * 4300 + "1"):
        assert exit_code(["convert", "chain", "--m", "-5", "--n", "5",
                          "--x", x, "--y", "1"]) == 1
        assert_refused(capsys, ["convert", "chain"], "--x",
                       "the value has a 4301-digit integer; the limit is "
                       "4300 digits")
    # Fraction would expand the exponent into a 2000001-digit integer first.
    for y in ("1e2000000", "1E-4300", "1e0_4_3_0_0", "1e" + "9" * 4300):
        assert exit_code(["convert", "chain", "--m", "-5", "--n", "5",
                          "--x", "1", "--y", y]) == 1
        assert_refused(capsys, ["convert", "chain"], "--y",
                       "the value's decimal exponent gives more than 4300 "
                       "digits")


def test_every_result_over_digit_limit_is_refused(capsys):
    # The order-4 points of E(-u^2, v^2 - u^2) have 4351-digit integers,
    # though m has 2901 digits and n 1451.
    u, v = 10 ** 1450 + 7, 10 ** 1450 + 9
    for fmt in ("json", "text"):
        assert main(["--format", fmt, "classify", "--m", str(-u * u),
                     "--n", str(v * v - u * u)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: the result has a 4351-digit integer; "
                       "the limit is 4300 digits\n")
    # m = -u^2 of the order-4 family has 8599 digits.
    assert main(["family", "order4", "--u", str(10 ** 4299),
                 "--v", str(10 ** 4299 + 1)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: the result has a 8599-digit integer; "
                   "the limit is 4300 digits\n")


@contextlib.contextmanager
def int_str_limit(digits):
    """The interpreter's int<->str limit set to `digits` (0: none)."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def test_digit_guard_sees_a_points_denominators():
    # Z has 1501 digits, but y = 1/Z^3 is printed with all 4501 of Z^3.
    P = Point(1, 1, 10 ** 1500 + 1)
    with int_str_limit(0):
        texts = [json.dumps(point_json(P)),
                 "\n".join(render_text({"point": point_json(P)}))]
    for text in texts:
        with pytest.raises(DigitLimitError, match="a 4501-digit integer"):
            _check_digits("the result", text)


def test_output_does_not_depend_on_the_interpreters_limit(capsys):
    # The two golden 20P chains print their progression's 660-digit
    # integers, and the order-4 points of E(-u^2, v^2-u^2) here have 1201,
    # from an 801-digit --m: all past 640, the interpreter's minimum limit.
    # A --m of MAX_DIGITS digits is accepted.
    c = Curve(-5, 5)
    P = c.multiply(c.point(Fraction(-5, 9), Fraction(100, 27)), 20)
    u, v = 10 ** 400 + 7, 10 ** 400 + 9
    chain = ["convert", "chain", "--m", "-5", "--n", "5", f"--x={P.x}",
             f"--y={P.y}"]
    for argv in ([*chain, "--r", "0", "--s", "1"],
                 ["--format", "text", *chain],
                 ["classify", "--m", str(-u * u), "--n", str(v * v - u * u)],
                 ["classify", "--m", str(-10 ** 4299), "--n", "3"]):
        expected = run(capsys, *argv)
        assert expected[0] == 0
        with int_str_limit(640):
            assert run(capsys, *argv) == expected
            assert sys.get_int_max_str_digits() == 640


def test_main_restores_the_interpreters_limit(monkeypatch, capsys):
    # 5000 is neither the default nor main's lifted value; main parses the
    # 4300-digit --u/--v with the limit lifted, whatever it is.
    order4 = ["family", "order4", "--u", str(10 ** 4299),
              "--v", str(10 ** 4299 + 1)]
    with int_str_limit(5000):
        assert main(["classify", "--m", "-1", "--n", "3"]) == 0
        assert sys.get_int_max_str_digits() == 5000
        assert main(order4) == 1
        assert sys.get_int_max_str_digits() == 5000
        monkeypatch.setattr("concordia.torsion.torsion_subgroup",
                            lambda c: 1 // 0)
        assert main(["classify", "--m", "-1", "--n", "3"]) == 3
        assert sys.get_int_max_str_digits() == 5000
    capsys.readouterr()


OVER = "9" * 4301


@pytest.mark.parametrize("argv,flag", [
    (["classify", f"--m=-{OVER}", "--n", "3"], "--m"),
    (["search", "--m", "-5", "--n", OVER, "--bound", "10"], "--n"),
    (["family", "order4", "--u", "1", "--v", "1_" * 4300 + "1"], "--v"),
    (["verify", "concordant", "--m", "1", "--n", "4", "--x", OVER, "--y",
      "1", "--z", "1", "--w", "2"], "--x"),
    (["convert", "chain", "--m", "-5", "--n", "5", "--x", "-4", "--y", "6",
      "--r", "0", "--s", OVER], "--s"),
])
def test_every_flag_over_digit_limit_is_refused(argv, flag, capsys):
    # Refused by the parser, without echoing the digits, at the default
    # limit, the minimum and none.
    for digits in (4300, 640, 0):
        with int_str_limit(digits):
            assert exit_code(argv) == 1
        assert_refused(capsys, argv, flag, "the value has a 4301-digit "
                                           "integer; the limit is 4300 digits")


def test_a_refused_flag_is_not_echoed(capsys):
    # 131000 digits is near the longest argument Linux passes, 131072 bytes.
    assert exit_code(["classify", "--m", "-" + "9" * 131000, "--n", "3"]) == 1
    assert_refused(capsys, ["classify"], "--m", "the value has a "
                   "131000-digit integer; the limit is 4300 digits")


@pytest.mark.parametrize("value", ["x" + "9" * 130999, "9x" * 65500,
                                   "x " * 65000],
                         ids=["digit-run", "no-number", "spaced"])
@pytest.mark.parametrize("argv", [
    ["classify", "--n", "3", "--m"],
    ["search", "--m", "-5", "--n", "5", "--bound"],
    ["convert", "chain", "--m", "-5", "--n", "5", "--y", "1", "--x"],
    pytest.param([], id="command"),
    ["--format"],
    pytest.param(["classify", "--m", "-1", "--n", "3"], id="positional"),
], ids=lambda argv: argv[-1])
def test_a_long_non_number_is_refused_in_a_few_bytes(argv, value,
                                                     monkeypatch, capsys):
    # A numeric flag's value has one long digit run, refused by the digit
    # rule, or none, refused by the conversion, which echoes 32 characters
    # of the value's repr.  argparse itself echoes an unknown subcommand,
    # an invalid choice of --format and a stray positional, each cut to
    # its first 32 characters, spaces and all.  argparse wraps the usage
    # line at $COLUMNS, so pin it.
    monkeypatch.setenv("COLUMNS", "80")
    assert exit_code(argv + [value]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.encode()) < 300


@pytest.mark.parametrize("prefix", ["--=", "--help=", "--format="])
def test_a_long_option_text_is_refused_in_a_few_bytes(prefix, capsys):
    # argparse echoes an ambiguous option, an ignored explicit argument
    # and an invalid choice given after "=", each cut to 32 characters.
    assert exit_code([prefix + "x " * 65000, "classify"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.encode()) < 400


def test_the_parser_alone_checks_digits_before_converting(capsys):
    # int() outside main's lifted window would refuse the 4301 digits
    # itself, and argparse would echo them.
    with int_str_limit(640):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["classify", "--m", OVER, "--n", "3"])
    assert exc.value.code == 1
    assert_refused(capsys, ["classify"], "--m", "the value has a "
                   "4301-digit integer; the limit is 4300 digits")


def test_a_parser_error_restores_the_interpreters_limit(capsys):
    # The 801-digit --m parses at any limit; --n names the error.
    with int_str_limit(640):
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--m", "9" * 801, "--n", "abc"])
        assert sys.get_int_max_str_digits() == 640
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith(
        "error: argument --n: invalid int value: 'abc'\n")


def test_the_parser_refuses_a_zero_denominator(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["convert", "chain", "--m", "-5", "--n",
                                   "5", "--x", "1", "--y", " 0/0 "])
    assert exc.value.code == 1
    assert_refused(capsys, ["convert", "chain"], "--y",
                   "the value has a zero denominator")


@pytest.mark.parametrize("extra,err", [
    pytest.param(
        ["--x", "1/0", "--y", "1"],
        "usage: concordia convert chain [-h] --m M --n N --x X --y Y [--r R] "
        "[--s S]\nconcordia convert chain: error: argument --x: the value "
        "has a zero denominator", id="extra0---x has a zero denominator"),
    pytest.param(["--x", "-4", "--y", "6", "--r", "0", "--s", "0"],
                 "error: s must be positive", id="extra1-s must be positive"),
    pytest.param(["--x", "-4", "--y", "6", "--r", "0"],
                 "error: --r and --s must be given together",
                 id="extra2---r and --s must be given together"),
    pytest.param(["--x", "-4", "--y", "6", "--s", "1"],
                 "error: --r and --s must be given together",
                 id="extra3---r and --s must be given together"),
])
def test_chain_bad_input_is_a_usage_error(extra, err):
    # argparse wraps the usage line at $COLUMNS, so pin it.
    proc = cli("convert", "chain", "--m", "-5", "--n", "5", *extra,
               COLUMNS="80")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == f"{err}\n"  # and no traceback


@pytest.mark.parametrize("argv,err", [
    (["--m", "-5", "--n", "5", "--x", "0", "--y", "0"],
     "the point's quadric image is trivial"),
    (["--m", "1", "--n", "4", "--x", "2", "--y", "6"],
     "there is none unless m < 0 < n"),
])
def test_chain_angle_without_progression_is_refused(argv, err):
    proc = cli("convert", "chain", *argv, "--r", "0", "--s", "1")
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode() == f"error: --r/--s need a progression, " \
                                   f"and {err}\n"
    assert cli("convert", "chain", *argv).returncode == 0


def test_chain_matches_each_solve_entry(capsys):
    """`convert chain` and `solve theta` walk one dictionary: each solution
    of the right-angle problem at k = 5 gives the same quadric point,
    progression and triangle through both leaves."""
    code, report = run_json(capsys, "solve", "theta", "--r", "0", "--s", "1",
                            "--k", "5", "--bound", "2000")
    assert code == 0 and report["solutions"]
    m, n = report["curve"]["m"], report["curve"]["n"]
    for entry in report["solutions"]:
        x, y = entry["point"]
        code, chain = run_json(capsys, "convert", "chain", f"--m={m}",
                               f"--n={n}", f"--x={x}", f"--y={y}", "--r", "0",
                               "--s", "1")
        assert code == 0
        assert {key: chain[key] for key in ("quadric", "ap", "triangle")} == \
            {key: entry[key] for key in ("quadric", "ap", "triangle")}


def test_classify_huge_m_needs_no_divisors(capsys):
    # |m| = 10^2200 has about 4.8M divisors; the 3-torsion test walks none.
    code, payload = run_json(capsys, "classify", "--m", str(-10 ** 2200),
                             "--n", "3")
    assert code == 0
    assert payload["torsion"]["class"] == "Z2xZ2"
    assert len(payload["points"]) == 4


def test_certificate_mismatch_exits_3(monkeypatch, capsys):
    # a certificate that does not fit the reduced model E(-1, 3)
    def wrong_certificate(c):
        t = classify_torsion(c)
        return TorsionClass(t.tag, (1, 5), t.base, t.shift, t.scale)

    monkeypatch.setattr("concordia.torsion.classify_torsion",
                        wrong_certificate)
    assert main(["classify", "--m", "-1", "--n", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: Z2xZ4 certificate (1, 5) does not fit " \
                  "E(-1,3)\n"


def test_arithmetic_post_condition_exits_3(monkeypatch, capsys):
    # selftest maps (0,1,1,k) to E(1,k^2) with quadric_to_point, whose
    # last check is the curve identity.
    monkeypatch.setattr(Curve, "satisfies", lambda *args: False)
    assert main(["selftest", "--pmax", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: the image of QuadricPoint(x0=0, x1=1, " \
                  "x2=1, x3=2) is not a point of E(1,4) in lowest terms\n"


def test_zero_division_is_an_internal_error(monkeypatch, capsys):
    def broken(*args):
        return 1 // 0

    monkeypatch.setattr("concordia.torsion.torsion_subgroup", broken)
    assert main(["classify", "--m", "-1", "--n", "3"]) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "internal error: integer division or modulo "
                              "by zero\n")


def test_a_chain_that_gives_no_triangle_exits_3(monkeypatch, capsys):
    # ap_to_triangle's checks pass on a valid point and angle, so a
    # Triangle refused after them is an internal fault, not a usage error.
    def degenerate(self):
        raise DegenerateTriangleError("triangle inequality violated")

    monkeypatch.setattr(Triangle, "_check", degenerate)
    assert main(["convert", "chain", "--m", "-5", "--n", "5", "--x", "-4",
                 "--y", "6", "--r", "0", "--s", "1"]) == 3
    assert capsys.readouterr() == ("", "internal error: progression gave "
                                       "no triangle: triangle inequality "
                                       "violated\n")


def test_order36_invariant_break_exits_3(monkeypatch, capsys):
    # gcd(a+2b, 2a+b) divides 3 whenever gcd(a, b) = 1; a gcd that says 5
    # for that pair simulates the impossible case.
    def gcd(x, y):
        return 1 if (x, y) == (-2, 7) else 5

    monkeypatch.setattr("concordia.problems.math", SimpleNamespace(gcd=gcd))
    assert main(["family", "order36", "--a", "-2", "--b", "7"]) == 3
    assert "can only be 1 or 3" in capsys.readouterr().err


# 2^61 - 1 and 2^89 - 1 are prime; Pollard rho would need about 2^30 steps
# to split their product.
BIG_SEMIPRIME = (2 ** 61 - 1) * (2 ** 89 - 1)


def test_classify_smooth_m_semiprime_n(capsys):
    code, payload = run_json(capsys, "classify", "--m", str(-2 ** 200),
                             "--n", str(BIG_SEMIPRIME))
    assert code == 0
    assert payload["torsion"]["class"] == "Z2xZ2"


def test_unfactorable_gcd_is_a_usage_error(monkeypatch, capsys):
    # The reduced model needs the square part of gcd(m, n) = BIG_SEMIPRIME;
    # rho gives up at its step cap (lowered here to keep the test fast).
    monkeypatch.setattr("concordia.arith._RHO_STEP_LIMIT", 1 << 12)
    assert main(["classify", "--m", str(-BIG_SEMIPRIME),
                 "--n", str(2 * BIG_SEMIPRIME)]) == 1
    assert "cannot factor a 150-bit integer" in capsys.readouterr().err


USAGES = [
    "usage: concordia [-h] [--format {json,text}]\n"
    "                 {classify,solve,convert,verify,search,family,selftest}"
    " ...\n",
    "usage: concordia classify [-h] [--m M] [--n N] [--p P] [--q Q] [--k K]\n",
    "usage: concordia solve [-h] {concordant,theta} ...\n",
    "usage: concordia solve concordant [-h] --p P --q Q --k K "
    "[--bound BOUND]\n",
    "usage: concordia solve theta [-h] --r R --s S --k K [--bound BOUND]\n",
    "usage: concordia convert [-h] {to-concordant,to-congruent,chain} ...\n",
    "usage: concordia convert to-concordant [-h] --r R --s S --k K\n",
    "usage: concordia convert to-congruent [-h] --p P --q Q --k K\n",
    "usage: concordia convert chain [-h] --m M --n N --x X --y Y [--r R] "
    "[--s S]\n",
    "usage: concordia verify [-h] {concordant} ...\n",
    "usage: concordia verify concordant [-h] --m M --n N --x X --y Y --z Z "
    "--w W\n",
    "usage: concordia search [-h] --m M --n N --bound BOUND\n",
    "usage: concordia family [-h] {order4,order8,order36} ...\n",
    "usage: concordia family order4 [-h] --u U --v V\n",
    "usage: concordia family order8 [-h] --xi XI --eta ETA --zeta ZETA\n",
    "usage: concordia family order36 [-h] --a A --b B\n",
    "usage: concordia selftest [-h] [--pmax PMAX] [--jobs JOBS]\n",
]


def test_usage_of_every_parser_is_pinned(monkeypatch):
    # A dropped, renamed, reordered or newly optional flag changes a usage
    # line.  argparse wraps at $COLUMNS, so pin it.
    monkeypatch.setenv("COLUMNS", "80")

    def walk(parser):
        yield parser.format_usage()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name in action.choices:  # build each lazy parser
                    yield from walk(action.parser(name))

    assert list(walk(build_parser())) == USAGES

