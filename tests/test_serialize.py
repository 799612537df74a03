from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from concordia.curves import INFINITY, Point
from concordia.serialize import frac_str, point_json


def test_frac_str_examples():
    assert frac_str(Fraction(3)) == "3"
    assert frac_str(Fraction(-25, 4)) == "-25/4"
    assert frac_str(Fraction(6, 4)) == "3/2"


def test_point_json_examples():
    assert point_json(INFINITY) == "O"
    assert point_json(Point(Fraction(3), Fraction(-6))) == ["3", "-6"]


@given(st.integers(min_value=-10 ** 9, max_value=10 ** 9),
       st.integers(min_value=1, max_value=10 ** 6))
def test_frac_roundtrip(num, den):
    v = Fraction(num, den)
    assert Fraction(frac_str(v)) == v


@given(st.fractions(), st.fractions())
def test_point_roundtrip(x, y):
    P = Point(x, y)
    assert Point(*map(Fraction, point_json(P))) == P
