from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concordia.arith import isqrt_exact
from concordia.curves import Curve, INFINITY, Point, point_sort_key
from concordia.oracle import _cubic_peak, _integer_cubic_roots
from concordia.torsion import canonical_model, map_from_canonical


def test_curve_rejects_degenerate():
    with pytest.raises(ValueError):
        Curve(2, 2)
    with pytest.raises(ValueError):
        Curve(0, 3)
    with pytest.raises(ValueError):
        Curve(3, 0)


def test_curve_accepts_valid():
    assert Curve(-1, 3) == Curve(-1, 3)
    assert Curve(-5, 5).m == -5


def test_point_validation():
    c = Curve(-1, 3)
    assert c.point(3, 6) == Point(3, 6, 1)
    assert Curve(-5, 5).point("25/4", "-75/8") == Point(25, -75, 2)
    with pytest.raises(ValueError):
        c.point(3, 7)


def test_add_examples():
    c = Curve(-1, 3)
    P = c.point(3, 6)
    assert c.add(P, INFINITY) == P
    assert c.add(P, P) == c.point(1, 0)
    T = c.point(0, 0)
    assert c.add(T, T) == INFINITY


def test_negate_and_multiply():
    c = Curve(-1, 3)
    assert c.negate(INFINITY) == INFINITY
    P = c.point(3, 6)
    assert c.negate(P) == c.point(3, -6)
    assert c.multiply(P, 4) == INFINITY
    assert c.multiply(P, 0) == INFINITY
    assert c.multiply(P, -1) == c.point(3, -6)
    c2 = Curve(-5, 27)
    assert c2.multiply(c2.point(9, 36), 3) == INFINITY


def test_order_of():
    c = Curve(-1, 3)
    assert c.order_of(INFINITY) == 1
    assert c.order_of(c.point(-1, 2)) == 4
    assert c.order_of(c.point(0, 0)) == 2
    c55 = Curve(-5, 5)
    P = c55.point(Fraction(25, 4), Fraction(75, 8))
    assert c55.order_of(P) is None
    # integral coordinates but infinite order
    c66 = Curve(-6, 6)
    assert c66.order_of(c66.point(12, 36)) is None


def test_is_double():
    c55 = Curve(-5, 5)
    assert not c55.is_double(c55.point(Fraction(25, 4), Fraction(75, 8)))
    c31 = Curve(-31, 31)
    P = c31.point(Fraction(41 ** 2, 7 ** 2), Fraction(29520, 7 ** 3))
    assert not c31.is_double(P)
    assert c31.is_double(c31.multiply(P, 2))
    c = Curve(-1, 3)
    assert c.is_double(INFINITY)
    assert c.is_double(c.point(1, 0))  # doubles of the 4-torsion points


def test_halves_recover_preimages():
    # (1, 0) on E(-1,3) is the double of (3, 6) and of (-1, 2); (0, 0) is
    # no double, as 0 - 1 is not a square.
    c = Curve(-1, 3)
    for Q in (c.point(3, 6), c.point(-1, 2)):
        assert c.add(Q, Q) == c.point(1, 0)
    assert not c.is_double(c.point(0, 0))


# Points off their curves, and the message of the one membership gate,
# `Curve.weighted`, that every method reading coordinates goes through.
_OFF_17 = Point(1, 7, 1)  # x(x-1)(x+3) = 0 at x = 1
_OFF_11 = Point(1, 1, 1)


@pytest.mark.parametrize("call,message", [
    (lambda: Curve(-6, 2).order_of(Point(2, 4, 1)),
     "(2, 4) is not on E(-6,2)"),
    (lambda: Curve(-1, 3).is_double(_OFF_17), "(1, 7) is not on E(-1,3)"),
    (lambda: Curve(-1, 3).add(INFINITY, _OFF_11), "(1, 1) is not on E(-1,3)"),
    (lambda: Curve(-1, 3).add(_OFF_11, INFINITY), "(1, 1) is not on E(-1,3)"),
    # the point as stored, in lowest terms, not as it was written
    (lambda: Curve(-1, 3).point("2/4", "7"), "(1/2, 7) is not on E(-1,3)"),
], ids=["order_of", "is_double", "add(O,P)", "add(P,O)", "point"])
def test_methods_reject_points_off_the_curve(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_contains_is_the_boolean_form_of_the_gate():
    c = Curve(-1, 3)
    assert not c.contains(_OFF_17) and not c.contains(_OFF_11)
    assert c.contains(INFINITY) and c.weighted(INFINITY) == (1, 1, 0)
    c55 = Curve(-5, 5)
    assert c55.weighted(c55.point(Fraction(25, 4), Fraction(-75, 8))) == \
        (25, -75, 2)


# (25/4, -75/8) on E(-5,5) is the triple (25, -75, 2); each of these
# satisfies Y^2 = X(X + mZ^2)(X + nZ^2) but is not a lowest-terms point.
@pytest.mark.parametrize("P", [
    Point(9 * 25, 27 * -75, 3 * 2),  # (lam^2 X, lam^3 Y, lam Z), lam = 3
    Point(4 * -4, 8 * 6, 2),  # (-4, 6, 1) with lam = 2
    Point(25, 75, -2),  # Z < 0
    Point(1, -1, 0),  # Z = 0 but not O
    Point(4, 8, 0),
], ids=["lam=3", "Z=1,lam=2", "Z<0", "Z=0,Y=-1", "Z=0,X=4"])
def test_gate_rejects_triples_that_are_not_lowest_terms(P):
    c = Curve(-5, 5)
    assert c.satisfies(P.X, P.Y, P.Z) and not c.contains(P)
    for call in (c.weighted, c.order_of, c.is_double,
                 lambda P: c.add(P, INFINITY), lambda P: c.add(INFINITY, P)):
        with pytest.raises(ValueError, match=r"is not on E\(-5,5\)"):
            call(P)


def test_halves_of_search_doubles():
    c = Curve(-6, 6)
    for P in sorted(c.search(60), key=point_sort_key):
        assert c.is_double(c.multiply(P, 2))


def test_two_torsion_is_built_once_per_curve():
    c = Curve(-1, 3)
    assert c.two_torsion is c.two_torsion
    assert c.two_torsion == (Point(0, 0, 1), Point(1, 0, 1), Point(-3, 0, 1))
    # the cache leaves equality and hashing to (m, n)
    assert c == Curve(-1, 3) and hash(c) == hash(Curve(-1, 3))


def test_torsion_oracle_examples():
    c = Curve(-1, 3)
    pts = c.torsion_oracle()
    expected = {INFINITY, c.point(0, 0), c.point(1, 0), c.point(-3, 0),
                c.point(3, 6), c.point(3, -6), c.point(-1, 2),
                c.point(-1, -2)}
    assert pts == expected

    c23 = Curve(-2, 3)
    assert c23.torsion_oracle() == {INFINITY, c23.point(0, 0),
                                    c23.point(2, 0), c23.point(-3, 0)}

    c527 = Curve(-5, 27)
    pts = c527.torsion_oracle()
    assert len(pts) == 12
    assert c527.point(9, 36) in pts and c527.point(9, -36) in pts


def test_search_finds_quoted_points():
    c55 = Curve(-5, 5)
    assert c55.point(Fraction(25, 4), Fraction(75, 8)) in c55.search(25)
    c31 = Curve(-31, 31)
    found = c31.search(1681)
    assert c31.point(Fraction(1681, 49), Fraction(29520, 343)) in found
    c = Curve(-1, 3)
    for H in (10, 50, 200):
        assert c.search(H) <= c.torsion_oracle()


def test_search_rejects_bad_bound():
    with pytest.raises(ValueError):
        Curve(-1, 3).search(0)


def test_canonical_model_strips_square_factors():
    # (m, n) -> reduced (m0, n0) and scale d; the shift is 0 for m < 0 < n
    for mn, base, d in (((-1, 3), (-1, 3), 1), ((-20, 108), (-5, 27), 2),
                        ((-96, 1029), (-96, 1029), 1),
                        ((-360, 72), (-10, 2), 6)):
        assert canonical_model(Curve(*mn)) == (Curve(*base), 0, d)


def test_rescaling_isomorphism_preserves_orders():
    small = Curve(-5, 27)
    big = Curve(-20, 108)
    _, shift, scale = canonical_model(big)
    assert (shift, scale) == (0, 2)
    small_pts = small.torsion_oracle()
    mapped = {map_from_canonical(P, shift, scale) for P in small_pts}
    assert mapped == big.torsion_oracle()
    for P in small_pts:
        Q = map_from_canonical(P, shift, scale)
        assert big.order_of(Q) == small.order_of(P)


def test_canonical_model_translates_sign_patterns():
    c0, shift, scale = canonical_model(Curve(1, 4))
    assert (c0.m, c0.n, shift, scale) == (-1, 3, -1, 1)
    orig = Curve(1, 4)
    P = map_from_canonical(c0.point(3, 6), shift, scale)
    assert orig.contains(P) and orig.order_of(P) == 4


def test_integer_cubic_roots():
    # integer x with (x+3)(x-2)(x-7) = y2; the left hump peaks at f(-1) = 48
    peak = _cubic_peak(-3, 2, 7)
    assert peak == (48, -1)
    assert _integer_cubic_roots(-3, 2, 7, peak, 42) == [0]
    assert _integer_cubic_roots(-3, 2, 7, peak, 48) == [-1]
    assert _integer_cubic_roots(-3, 2, 7, peak, 66) == [8]
    assert _integer_cubic_roots(-3, 2, 7, peak, 100) == []
    # (x+3)(x-1)(x-2) - 12 = (x+2)(x+1)(x-3)
    assert _integer_cubic_roots(-3, 1, 2, _cubic_peak(-3, 1, 2), 12) == \
        [-2, -1, 3]


def test_isqrt_exact():
    assert isqrt_exact(25) == 5
    assert isqrt_exact(2) is None
    assert isqrt_exact(0) == 0
    assert isqrt_exact(-4) is None


SAMPLE_CURVES = [Curve(-1, 3), Curve(-5, 27), Curve(-81, 175), Curve(-2, 3),
                 Curve(-1, 8), Curve(-64, 125), Curve(-6, 6), Curve(1, 4),
                 Curve(-20, 108), Curve(-96, 1029)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_group_axioms_on_torsion(data):
    c = data.draw(st.sampled_from(SAMPLE_CURVES))
    pts = sorted(c.torsion_oracle(), key=point_sort_key)
    P = data.draw(st.sampled_from(pts))
    Q = data.draw(st.sampled_from(pts))
    R = data.draw(st.sampled_from(pts))
    assert c.add(P, Q) == c.add(Q, P)
    assert c.add(c.add(P, Q), R) == c.add(P, c.add(Q, R))
    assert c.add(P, c.negate(P)) == INFINITY
    assert c.contains(c.add(P, Q))


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(min_value=-6, max_value=6))
def test_multiply_matches_repeated_addition(data, t):
    c = data.draw(st.sampled_from(SAMPLE_CURVES))
    pts = sorted(c.torsion_oracle(), key=point_sort_key)
    P = data.draw(st.sampled_from(pts))
    acc = INFINITY
    step = P if t >= 0 else c.negate(P)
    for _ in range(abs(t)):
        acc = c.add(acc, step)
    assert c.multiply(P, t) == acc


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 12))
def test_square_detection_matches_construction(v):
    assert isqrt_exact(v * v) == v
    root = isqrt_exact(v)
    assert (root is None) or root * root == v
