from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concordia.curves import Curve
from concordia.geometry import (APTriple, DegenerateTriangleError, Triangle,
                                ap_to_quadric, ap_to_triangle,
                                isosceles_triangle, quadric_to_ap,
                                triangle_to_ap)
from concordia.quadrics import TRIVIAL_BASE, QuadricPoint
from concordia.sweeps import family_grid
from concordia.triples import (ConcordantTriple, CongruentTriple,
                               concordant_to_congruent,
                               congruent_to_concordant, curve_to_concordant)


def test_congruent_to_concordant_examples():
    assert congruent_to_concordant(CongruentTriple(1, 2, 1)) == \
        ConcordantTriple(1, 3, 1)
    # equal parity r, s: halve the gaps and double k
    assert congruent_to_concordant(CongruentTriple(1, 3, 1)) == \
        ConcordantTriple(1, 2, 2)
    assert congruent_to_concordant(CongruentTriple(0, 1, 5)) == \
        ConcordantTriple(1, 1, 5)
    assert congruent_to_concordant(CongruentTriple(-1, 2, 1)) == \
        ConcordantTriple(3, 1, 1)


def test_concordant_to_congruent_examples():
    assert concordant_to_congruent(ConcordantTriple(1, 3, 1)) == \
        CongruentTriple(1, 2, 1)
    assert concordant_to_congruent(ConcordantTriple(1, 2, 2)) == \
        CongruentTriple(1, 3, 1)
    with pytest.raises(ValueError):
        # opposite parities with odd k cannot come from a congruent triple
        concordant_to_congruent(ConcordantTriple(1, 2, 1))


def test_triple_validation():
    with pytest.raises(ValueError):
        ConcordantTriple(2, 4, 1)
    with pytest.raises(ValueError):
        ConcordantTriple(0, 1, 1)
    with pytest.raises(ValueError):
        CongruentTriple(2, 2, 1)
    with pytest.raises(ValueError):
        CongruentTriple(3, 2, 1)


def test_triple_curves():
    assert ConcordantTriple(1, 3, 1).curve().m == -1
    assert ConcordantTriple(1, 3, 1).curve().n == 3
    assert congruent_to_concordant(CongruentTriple(0, 1, 5)).curve().m == -5


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=60))
def test_curve_to_concordant_inverts_curve(p, q, k):
    if gcd(p, q) != 1:
        return
    t = ConcordantTriple(p, q, k)
    assert curve_to_concordant(t.curve()) == t


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-60, max_value=60),
       st.integers(min_value=-60, max_value=60))
def test_curve_to_concordant_needs_m_negative_n_positive(m, n):
    if m == 0 or n == 0 or m == n:
        return
    if m < 0 < n:
        t = curve_to_concordant(Curve(m, n))
        assert (-t.p * t.k, t.q * t.k) == (m, n)
    else:
        with pytest.raises(ValueError):
            curve_to_concordant(Curve(m, n))


def test_family_records_carry_their_curves_triple():
    for rec in family_grid(20):
        assert rec.concordant == curve_to_concordant(Curve(rec.m, rec.n))


def _valid_congruent(r, s, k):
    return 0 < s and abs(r) < s and gcd(r, s) == 1 and k >= 1


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=-49, max_value=49),
       st.integers(min_value=1, max_value=50),
       st.integers(min_value=1, max_value=20))
def test_bijection_roundtrip(r, s, k):
    if not _valid_congruent(r, s, k):
        return
    t = CongruentTriple(r, s, k)
    ct = congruent_to_concordant(t)
    assert gcd(ct.p, ct.q) == 1
    assert concordant_to_congruent(ct) == t


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=20))
def test_bijection_roundtrip_reverse(p, q, k):
    if gcd(p, q) != 1:
        return
    ct = ConcordantTriple(p, q, k)
    try:
        t = concordant_to_congruent(ct)
    except ValueError:
        assert (p - q) % 2 != 0 and k % 2 == 1
        return
    assert congruent_to_concordant(t) == ct


def test_ap_triple_validation():
    APTriple(a=1, b=5, g=7, d=2, step=6, p=1, q=1)
    with pytest.raises(ValueError):
        APTriple(a=1, b=2, g=3, d=1, step=1, p=1, q=1)
    with pytest.raises(ValueError, match="^step and gaps must be positive$"):
        APTriple(a=1, b=5, g=7, d=2, step=0, p=1, q=1)


def test_triangle_validation():
    Triangle(A=2, B=2, C=2, D=1, r=1, s=2)
    with pytest.raises(ValueError):
        Triangle(A=1, B=1, C=3, D=1, r=1, s=2)
    with pytest.raises(ValueError):
        # law of cosines must hold exactly for the given (r, s)
        Triangle(A=3, B=2, C=2, D=1, r=1, s=2)


def test_quadric_ap_roundtrip():
    S = QuadricPoint(5, 2, 1, 7)
    ap = quadric_to_ap(S, 1, 1, 6)
    assert (ap.alpha, ap.beta, ap.gamma) == (
        Fraction(1, 2), Fraction(5, 2), Fraction(7, 2))
    assert ap_to_quadric(ap) == S


def test_quadric_to_ap_refuses_points_off_the_quadric():
    # Not on Q(-6, 6), and x1 = 2 shares a factor with x0: the terms are
    # built unreduced, and the gap check refuses them.
    with pytest.raises(ValueError, match="gap mismatch"):
        quadric_to_ap(QuadricPoint(4, 2, 1, 7), 1, 1, 6)


def test_quadric_to_ap_refuses_the_trivial_point():
    with pytest.raises(ValueError, match="^trivial quadric points carry no "
                                         "progression$"):
        quadric_to_ap(TRIVIAL_BASE, 1, 1, 6)


def test_a_non_integral_area_coefficient_is_refused():
    # 31/12, 41/12, 49/12 has step 5 and gaps (1, 1); at (r, s) = (1, 3)
    # the coefficient is (1 + 1) * 5 / (2 * 3).
    ap = APTriple(a=31, b=41, g=49, d=12, step=5, p=1, q=1)
    with pytest.raises(ValueError, match="^area coefficient 5/3 is not an "
                                         "integer$"):
        ap_to_triangle(ap, 1, 3)
    # The right triangle 2, 3/2, 5/2 has coefficient 2 * (3/2) / (2 * 1).
    tri = Triangle(A=4, B=3, C=5, D=2, r=0, s=1)
    with pytest.raises(ValueError, match="^area coefficient 3/2 is not an "
                                         "integer$"):
        triangle_to_ap(tri)


def test_ap_to_triangle_equilateral():
    ap = APTriple(a=0, b=1, g=2, d=1, step=1, p=1, q=3)
    tri = ap_to_triangle(ap, 1, 2)
    assert tri.sides() == (Fraction(2), Fraction(2), Fraction(2))
    assert tri.is_isosceles()
    back = triangle_to_ap(tri)
    assert (back.alpha, back.beta, back.gamma) == (0, 1, 2)


def test_ap_to_triangle_345_right_angle():
    # theta = pi/2: (r, s) = (0, 1); the 3-4-5 triangle scaled by 1
    ap = APTriple(a=1, b=5, g=7, d=2, step=6, p=1, q=1)
    tri = ap_to_triangle(ap, 0, 1)
    assert tri.sides() == (Fraction(4), Fraction(3), Fraction(5))
    assert tri.area_coefficient() == 6
    assert triangle_to_ap(tri) == ap


def test_ap_to_triangle_rejects_s_zero_before_dividing_by_it():
    ap = APTriple(a=1, b=5, g=7, d=2, step=6, p=1, q=1)
    with pytest.raises(ValueError, match="s must be positive"):
        ap_to_triangle(ap, 0, 0)


def test_ap_to_triangle_rejects_wrong_angle():
    ap = APTriple(a=1, b=5, g=7, d=2, step=6, p=1, q=1)
    with pytest.raises(ValueError):
        ap_to_triangle(ap, 1, 2)  # gaps of (1,2) are (1,3), not (1,1)


def test_ap_to_triangle_refused_past_its_checks_is_an_internal_fault(
        monkeypatch):
    def degenerate(self):
        raise DegenerateTriangleError("sides must be positive")

    monkeypatch.setattr(Triangle, "_check", degenerate)
    ap = APTriple(a=1, b=5, g=7, d=2, step=6, p=1, q=1)
    with pytest.raises(ArithmeticError, match="sides must be positive"):
        ap_to_triangle(ap, 0, 1)


def test_isosceles_examples():
    tri, r, s, k = isosceles_triangle(1, 2)
    assert tri.sides() == (2, 2, 2) and (r, s, k) == (1, 2, 1)
    tri, r, s, k = isosceles_triangle(3, 4)
    assert tri.sides() == (4, 4, 6)
    assert (r, s, k) == (-1, 8, 1)
    tri, r, s, k = isosceles_triangle(1, 3)
    assert tri.sides() == (6, 6, 4) and k == 2


def test_isosceles_drift_is_an_internal_fault(monkeypatch):
    monkeypatch.setattr(Triangle, "area_coefficient",
                        lambda self: Fraction(3))
    with pytest.raises(ArithmeticError, match="drifted"):
        isosceles_triangle(1, 2)


def test_isosceles_validation():
    with pytest.raises(ValueError):
        isosceles_triangle(2, 1)
    with pytest.raises(ValueError):
        isosceles_triangle(2, 4)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=2, max_value=12))
def test_isosceles_properties(rho, sigma):
    if not (rho < sigma and gcd(rho, sigma) == 1):
        return
    tri, r, s, k = isosceles_triangle(rho, sigma)
    assert tri.is_isosceles()
    assert k in (1, 2)
    # law of cosines is enforced by the constructor; area relation ab = 2ks
    assert tri.a * tri.b == 2 * k * s
    assert tri.area_coefficient() == k
    ap = triangle_to_ap(tri)
    assert ap_to_triangle(ap, r, s).sides() == tri.sides()
