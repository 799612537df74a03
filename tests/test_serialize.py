import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from concordia.arith import _Coprime
from concordia.curves import INFINITY, Curve, Point
from concordia.problems import solve_theta_congruent
from concordia.serialize import frac_str, point_json
from concordia.triples import CongruentTriple


def test_frac_str_examples():
    assert frac_str(Fraction(3)) == "3"
    assert frac_str(Fraction(-25, 4)) == "-25/4"
    assert frac_str(Fraction(6, 4)) == "3/2"


def test_point_json_examples():
    assert point_json(INFINITY) == "O"
    assert point_json(Point(3, -6, 1)) == ["3", "-6"]
    assert point_json(Point(25, -75, 2)) == ["25/4", "-75/8"]


@given(st.integers(min_value=-10 ** 9, max_value=10 ** 9),
       st.integers(min_value=1, max_value=10 ** 6))
def test_frac_roundtrip(num, den):
    v = Fraction(num, den)
    assert Fraction(frac_str(v)) == v


@given(st.integers(), st.integers(), st.integers(min_value=1))
def test_point_roundtrip(X, Y, Z):
    assume(math.gcd(X, Z) == math.gcd(Y, Z) == 1)  # as on a curve
    P = Point(X, Y, Z)
    x, y = map(Fraction, point_json(P))
    assert (x, y) == (Fraction(X, Z * Z), Fraction(Y, Z ** 3))
    assert Point(x.numerator, y.numerator, math.isqrt(x.denominator)) == P


# The strings as printed through `Fraction`: `Point.x`/`Point.y` take X/Z^2
# and Y/Z^3 as they are (`_Coprime`), and `str(Fraction)` prints them.
def fraction_point_json(P):
    if P.is_infinity:
        return "O"
    return [str(Fraction(P.x)), str(Fraction(P.y))]


def fraction_repr(P):
    return f"({P.x}, {P.y})" if P.Z else "O"


big = st.integers(min_value=-10 ** 300, max_value=10 ** 300)
nonzero = big.filter(bool)


@given(st.one_of(big, st.builds(Fraction, big, nonzero),
                 st.builds(_Coprime, big, nonzero)))
def test_frac_str_prints_as_fraction(v):
    assert frac_str(v) == str(Fraction(v))


@given(big, big, nonzero)
def test_point_prints_as_fraction(X, Y, Z):
    # Any Z != 0, in or out of lowest terms: the strings are the same.
    P = Point(X, Y, Z)
    assert point_json(P) == fraction_point_json(P)
    assert repr(P) == fraction_repr(P)


@pytest.mark.parametrize("P", [INFINITY, Point(3, -6, 1), Point(3, -6, -1),
                               Point(2, 5, 4), Point(6, -9, -3),
                               Point(0, 0, 1), Point(-25, 0, 2)])
def test_point_prints_as_fraction_examples(P):
    assert point_json(P) == fraction_point_json(P)
    assert repr(P) == fraction_repr(P)


@pytest.mark.parametrize("P", [Point(1, 1, 1), Point(2, 5, 4),
                               Point(3, -6, -1)])
def test_off_curve_message_prints_the_point(P):
    with pytest.raises(ValueError) as exc:
        Curve(-1, 3).weighted(P)
    assert str(exc.value) == f"{fraction_repr(P)} is not on E(-1,3)"


@pytest.mark.parametrize("P", [Point(10 ** 4300, 1, 1),
                               Point(1, 10 ** 4300 + 1, 1),
                               Point(1, 1, 10 ** 2150 + 1),
                               Point(1, 1, 10 ** 1434 + 1),
                               Point(-10 ** 5000, 1, -1)])
def test_coordinates_past_the_digit_limit_fail_as_fraction(P):
    # A numerator or denominator past the default int->str limit of 4300
    # digits raises the same ValueError as printing through Fraction.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for printed, fraction_printed in ((point_json, fraction_point_json),
                                          (repr, fraction_repr)):
            with pytest.raises(ValueError) as ours:
                printed(P)
            with pytest.raises(ValueError) as theirs:
                fraction_printed(P)
            assert str(ours.value) == str(theirs.value)
            assert "4300 digits" in str(ours.value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_theta_report_json_builds_no_fraction(monkeypatch):
    report = solve_theta_congruent(CongruentTriple(0, 1, 5), search_bound=100)
    expected = report.to_json()
    assert expected["triangles"] and expected["solutions"]
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    out = report.to_json()
    monkeypatch.undo()
    assert built == []
    assert out == expected
