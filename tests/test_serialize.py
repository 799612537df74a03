import math
from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st

from concordia.curves import INFINITY, Point
from concordia.serialize import frac_str, point_json


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
