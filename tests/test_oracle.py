"""Differential tests: the integer Nagell-Lutz kernels of the torsion
oracle against the bisection root finder and the Fraction multiple
chain they replaced, and guards for the oracle's residue filter."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concordia import oracle
from concordia.arith import divisors
from concordia.curves import INFINITY, Curve, Point
from concordia.oracle import (_cubic_peak, _cubic_value_tables,
                              _integer_cubic_roots)
from concordia.problems import (gen_order4_family, gen_order8_family,
                                gen_order36_family)
from concordia.torsion import torsion_subgroup


def reference_cubic_roots(A: int, B: int, C: int) -> list[int]:
    """All integer roots of x^3 + A*x^2 + B*x + C: the cubic is split at
    its critical points into monotone pieces within the Cauchy bound, and
    a sign change on a piece is narrowed by bisection."""

    def g(x: int) -> int:
        return ((x + A) * x + B) * x + C

    roots = set()
    bound = 1 + max(abs(A), abs(B), abs(C))
    disc = A * A - 3 * B
    segments = []
    if disc <= 0:
        segments.append((-bound, bound))
    else:
        r = math.isqrt(disc)
        c1, c2 = (-A - r) // 3, (-A + r) // 3
        for x in (*range(c1 - 2, c1 + 3), *range(c2 - 2, c2 + 3)):
            if g(x) == 0:
                roots.add(x)
        segments = [(-bound, c1 - 2), (c1 + 2, c2 - 2), (c2 + 2, bound)]
    for lo, hi in segments:
        lo, hi = max(lo, -bound), min(hi, bound)
        if lo > hi:
            continue
        glo, ghi = g(lo), g(hi)
        if glo == 0:
            roots.add(lo)
        if ghi == 0:
            roots.add(hi)
        if (glo < 0 < ghi) or (ghi < 0 < glo):
            neg_lo = glo < 0
            while hi - lo > 1:
                mid = (lo + hi) // 2
                gm = g(mid)
                if gm == 0:
                    roots.add(mid)
                    break
                if (gm < 0) == neg_lo:
                    lo = mid
                else:
                    hi = mid
    return sorted(roots)


def reference_order_of(c: Curve, P: Point):
    """Order of P by adding P to itself in Fractions, up to 12 times."""
    if P.is_infinity:
        return 1
    if P.x.denominator != 1 or P.y.denominator != 1:
        return None
    Q = P
    for t in range(1, 13):
        if Q.is_infinity:
            return t
        Q = c.add(Q, P)
    return None


def check_oracle(c: Curve) -> frozenset[Point]:
    """Assert that every kernel agrees with its reference on c, and
    return the oracle's point set."""
    m, n = c.m, c.n
    e1, e2, e3 = sorted((0, -m, -n))
    peak = _cubic_peak(e1, e2, e3)
    expected = {INFINITY, *c.two_torsion}
    for y in divisors(c.discriminant_root()):
        xs = _integer_cubic_roots(e1, e2, e3, peak, y * y)
        assert xs == reference_cubic_roots(m + n, m * n, -y * y), y
        for x in xs:
            P = Point(x, y, 1)
            order = c.order_of(P)
            assert order == reference_order_of(c, P), P
            if order is not None:
                expected |= {P, c.negate(P)}
    found = c.torsion_oracle()
    assert found == expected
    return found


nonzero = st.one_of(st.integers(-500, 500),
                    st.integers(-10 ** 6, 10 ** 6)).filter(bool)


@settings(max_examples=120, deadline=None)
@given(nonzero, nonzero)
def test_oracle_kernels_match_reference(m, n):
    if m == n:
        n = -n
    check_oracle(Curve(m, n))


@settings(max_examples=300, deadline=None)
@given(st.integers(-10 ** 4, 10 ** 4), st.integers(1, 10 ** 4),
       st.integers(1, 10 ** 4), st.integers(1, 2 * 10 ** 4))
def test_cubic_roots_find_planted_roots(e1, d1, d2, offset):
    # x is put in (e1, e2) or above e3 and y2 = f(x); the peak value of f
    # on (e1, e2) and its neighbours are tried too.
    e2, e3 = e1 + d1, e1 + d1 + d2
    x = e1 + offset if offset < d1 else e3 + offset - d1 + 1
    peak = _cubic_peak(e1, e2, e3)
    A = -(e1 + e2 + e3)
    B = e1 * e2 + e1 * e3 + e2 * e3
    C = -e1 * e2 * e3
    for y2 in ((x - e1) * (x - e2) * (x - e3), peak[0] - 1, peak[0],
               peak[0] + 1):
        if y2 > 0:
            assert _integer_cubic_roots(e1, e2, e3, peak, y2) == \
                reference_cubic_roots(A, B, C - y2)
    assert x in _integer_cubic_roots(e1, e2, e3, peak,
                                     (x - e1) * (x - e2) * (x - e3))
    assert peak == max(((t - e1) * (t - e2) * (t - e3), t)
                       for t in range(e1, e2 + 1))


def _mn(rec):
    return rec.m, rec.n


FAMILY_CURVES = {
    "Z2xZ2": [(-2, 3), (-5, 7), (6, 210), (-10 ** 6 + 1, 999_983)],
    "Z2xZ4": [(-1, 3), (1, 4), (-9, -25), _mn(gen_order4_family(5, 12))],
    "Z2xZ6": [(-5, 27), (-20, 108), (-2625, 6591),
              _mn(gen_order36_family(-2, 7))],
    "Z2xZ8": [(-81, 175), (-4096, 46529), _mn(gen_order8_family(20, 21, 29))],
}


@pytest.mark.parametrize("tag,mn", [(tag, mn) for tag, curves in
                                    FAMILY_CURVES.items() for mn in curves])
def test_oracle_on_each_torsion_class(tag, mn):
    c = Curve(*mn)
    cls, closed_form = torsion_subgroup(c)
    assert cls.tag == tag
    found = check_oracle(c)
    assert found == closed_form
    assert max(c.order_of(P) for P in found) == cls.max_order()


def test_order_of_rejects_non_integral_points():
    c = Curve(-5, 5)
    P = c.point(Fraction(25, 4), Fraction(75, 8))
    assert c.order_of(P) is None and reference_order_of(c, P) is None


def test_residue_filter_skips_most_root_searches(monkeypatch):
    # E(-420,330) has 480 candidate y | mn(m-n); 49 of them pass the
    # tables, and every one would reach the root search without them.
    calls = []

    def counted(*args):
        calls.append(args)
        return _integer_cubic_roots(*args)

    monkeypatch.setattr(oracle, "_integer_cubic_roots", counted)
    c = Curve(-420, 330)
    assert len(divisors(c.discriminant_root())) == 480
    assert len(c.torsion_oracle()) == 4
    assert len(calls) <= 60


@settings(max_examples=300, deadline=None)
@given(nonzero, nonzero, st.integers(-10 ** 9, 10 ** 9))
def test_residue_filter_passes_every_value_of_the_cubic(m, n, x):
    y2 = x * (x + m) * (x + n)
    for M, flags in _cubic_value_tables(m, n):
        assert flags[y2 % M], (M, y2 % M)
