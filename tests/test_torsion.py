from math import gcd, isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from concordia.arith import iroot_exact, isqrt_exact
from concordia.curves import INFINITY, Curve, Point
from concordia.sweeps import check_curve_against_oracle, family_grid
from concordia.torsion import (CertificateMismatch, TorsionClass,
                               _detect_order3, _detect_order4,
                               canonical_model, check_k_constraint,
                               classify_torsion, map_from_canonical,
                               torsion_subgroup)

# (m, n) -> (tag, certificate tuple)
CLASSIFIED = {
    (-1, 3): ("Z2xZ4", (1, 2)),
    (-2, 3): ("Z2xZ2", None),
    (-1, 8): ("Z2xZ4", (1, 3)),
    (-81, 175): ("Z2xZ8", (3, 4, 5)),
    (-4096, 46529): ("Z2xZ8", (8, 15, 17)),
    (-5, 27): ("Z2xZ6", (-1, 3)),
    (-64, 125): ("Z2xZ6", (-2, 5)),
    (-2625, 6591): ("Z2xZ6", (-5, 13)),
    (-96, 1029): ("Z2xZ6", (-2, 7)),
}


@pytest.mark.parametrize("mn,expected", sorted(CLASSIFIED.items()))
def test_classify_known_curves(mn, expected):
    tc = classify_torsion(Curve(*mn))
    assert (tc.tag, tc.certificate) == expected


def test_classify_scaled_and_shifted_models():
    # same class as (-5, 27) after dividing out the square factor 4
    tc = classify_torsion(Curve(-20, 108))
    assert tc.tag == "Z2xZ6" and tc.scale == 2
    # (1, 4) shifts onto (-1, 3)
    tc = classify_torsion(Curve(1, 4))
    assert tc.tag == "Z2xZ4" and tc.shift == -1
    # roots {0, 9, 25} recentered at 9 give the (-16, 9) model
    tc = classify_torsion(Curve(-9, -25))
    assert tc.tag == "Z2xZ4" and tc.shift == 9 and tc.certificate == (4, 5)
    # twists are not isomorphic: negated roots can drop the 4-torsion
    assert classify_torsion(Curve(-1, -4)).tag == "Z2xZ2"


def test_group_size_and_max_order():
    sizes = {"Z2xZ2": (4, 2), "Z2xZ4": (8, 4), "Z2xZ6": (12, 6),
             "Z2xZ8": (16, 8)}
    for mn, (tag, _) in CLASSIFIED.items():
        tc = classify_torsion(Curve(*mn))
        assert (tc.group_size(), tc.max_order()) == sizes[tag]


def test_certificate_reconstructs_curve():
    # base, shift and scale carry the reduced model's 2-torsion onto the
    # input curve's, so they determine {m, n}
    for mn in CLASSIFIED:
        c = Curve(*mn)
        tc = classify_torsion(c)
        mapped = {map_from_canonical(P, tc.shift, tc.scale)
                  for P in tc.base.two_torsion}
        assert mapped == set(c.two_torsion)


def test_certificate_mismatch_detected(monkeypatch):
    # each check of torsion_subgroup, driven by a wrong certificate or a
    # broken group law
    def mismatch(mn, tag, cert, match, add=None):
        def relabelled(c):
            t = classify_torsion(c)
            return TorsionClass(tag, cert, t.base, t.shift, t.scale)

        with monkeypatch.context() as mp:
            mp.setattr("concordia.torsion.classify_torsion", relabelled)
            if add is not None:
                mp.setattr(Curve, "add", add)
            with pytest.raises(CertificateMismatch, match=match):
                torsion_subgroup(Curve(*mn))

    for tag, cert in (("Z2xZ4", (1, 5)), ("Z2xZ8", (3, 4, 5)),
                      ("Z2xZ6", (-1, 3))):
        mismatch((-1, 3), tag, cert, r"does not fit E\(-1,3\)")
    # the model fits, but zeta is no hypotenuse: G is off the curve
    assert not Curve(-81, 175).contains(Point(1260, 1260 * 36, 1))
    mismatch((-81, 175), "Z2xZ8", (3, 4, 6), "not a point of order 8")
    # the model fits, but zeta = 0 makes G = (0, 0), of order 2
    mismatch((-1, 15), "Z2xZ8", (1, 2, 0), r"\(0, 0\) is not a point of "
                                           r"order 8 on E\(-1,15\)")
    off = Point(1, 1, 1)  # not on E(-1, 3)
    mismatch((-1, 3), "Z2xZ4", (1, 2), "left the curve",
             add=lambda self, P, Q: off)
    mismatch((-1, 3), "Z2xZ4", (1, 2), "expected 8 torsion points, got 5",
             add=lambda self, P, Q: INFINITY)


def test_certificate_mismatch_is_not_a_usage_error():
    # A caller that catches ValueError, a usage error, does not swallow an
    # internal fault.
    assert issubclass(CertificateMismatch, ArithmeticError)
    assert not issubclass(CertificateMismatch, ValueError)


def test_four_torsion_points_formulas():
    # order-4 points of the paper, in the subgroup built from one
    # generator of order 8 on E(-81, 175) and of order 4 on E(-1, 8)
    for mn, shown in (((-81, 175), [(-63, -1008), (225, 3600)]),
                      ((-1, 8), [(-2, 6), (4, 12)])):
        c = Curve(*mn)
        pts = torsion_subgroup(c)[1]
        four = {P for P in pts if c.order_of(P) == 4}
        assert len(four) == 4
        assert {c.point(*xy) for xy in shown} <= four


def test_eight_torsion_points_formulas():
    c = Curve(-4096, 46529)
    assert sum(c.order_of(P) == 8 for P in torsion_subgroup(c)[1]) == 8

    c345 = Curve(-81, 175)
    pts = torsion_subgroup(c345)[1]
    for xy in ((945, 30240), (105, -840), (-135, 1080), (-15, -480)):
        P = c345.point(*xy)
        assert P in pts and c345.order_of(P) == 8


def test_three_six_torsion_points_formulas():
    c = Curve(-5, 27)
    orders = [c.order_of(P) for P in torsion_subgroup(c)[1]]
    assert orders.count(3) == 2 and orders.count(6) == 6
    c = Curve(-64, 125)
    P = c.point(100, 900)
    assert P in torsion_subgroup(c)[1] and c.order_of(P) == 3


def test_torsion_subgroup_matches_oracle():
    for mn in CLASSIFIED:
        c = Curve(*mn)
        tc, pts = torsion_subgroup(c)
        assert pts == c.torsion_oracle()
        assert len(pts) == tc.group_size()


def test_torsion_subgroup_on_scaled_curve():
    c = Curve(-20, 108)
    tc, pts = torsion_subgroup(c)
    assert len(pts) == 12
    assert pts == c.torsion_oracle()


def _family_models(limit):
    """Each family curve of `family_grid(limit)`, scaled by d = 1, 2, 3,
    as (m, n), (n, m) and the shifted (-m, n - m)."""
    for rec in family_grid(limit):
        for d in (1, 2, 3):
            m, n = rec.m * d * d, rec.n * d * d
            yield from ((m, n), (n, m), (-m, n - m))


def test_torsion_subgroup_matches_oracle_on_family_models():
    models = list(_family_models(6))
    assert len(models) == 153
    for mn in models:
        c = Curve(*mn)
        assert torsion_subgroup(c)[1] == c.torsion_oracle(), mn


def test_check_k_constraint():
    # (-96, 1029) = (-32*3, 343*3): k=3 is allowed for Z2xZ6
    tc = classify_torsion(Curve(-96, 1029))
    assert check_k_constraint(tc)
    # but k=2 would not be: borrow the class tag onto the k=2 model
    # E(-10, 54) = E(-5*2, 27*2)
    assert classify_torsion(Curve(-10, 54)).base == Curve(-10, 54)
    assert not check_k_constraint(TorsionClass(tc.tag, tc.certificate,
                                               Curve(-10, 54), tc.shift,
                                               tc.scale))
    # the step is read off the reduced model: E(-20, 108) has k = 1
    assert check_k_constraint(classify_torsion(Curve(-20, 108)))
    assert check_k_constraint(classify_torsion(Curve(-5, 27)))
    assert check_k_constraint(classify_torsion(Curve(-1, 3)))


def test_oracle_check_runs_the_k_constraint(monkeypatch):
    seen = []
    monkeypatch.setattr("concordia.sweeps.check_k_constraint",
                        lambda cls: seen.append(cls) or False)
    assert check_curve_against_oracle((5, 27, 2)) == [
        "E(-10,54): squarefree step k=2 violates the torsion constraint "
        "for Z2xZ2"]
    assert [cls.base for cls in seen] == [Curve(-10, 54)]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=2, max_value=12))
def test_four_torsion_family_property(u, v):
    if v <= u or (v * v - u * u) == u * u:
        return
    c = Curve(-u * u, v * v - u * u)
    pts = torsion_subgroup(c)[1]
    four = {P for P in pts if c.order_of(P) == 4}
    assert len(four) == 4 and all(map(c.contains, four))
    # the closed forms (u^2 -+ uv, v(u^2 -+ uv)) and their negatives
    assert four == {c.point(x, sign * v * x) for x in (u * u - u * v,
                                                       u * u + u * v)
                    for sign in (1, -1)}
    tc = classify_torsion(c)
    assert tc.tag in ("Z2xZ4", "Z2xZ8")


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-6, max_value=6),
       st.integers(min_value=-6, max_value=6))
def test_six_torsion_family_property(a, b):
    if a == 0 or b == 0 or abs(gcd(a, b)) != 1:
        return
    m = a ** 3 * (a + 2 * b)
    n = b ** 3 * (2 * a + b)
    if m == 0 or n == 0 or m == n:
        return
    c = Curve(m, n)
    pts = torsion_subgroup(c)[1]
    assert all(c.contains(P) for P in pts)
    orders = [c.order_of(P) for P in pts]
    assert orders.count(3) == 2 and orders.count(6) == 6
    # the closed forms of an order-3 point and of three order-6 points
    x3 = a * a * b * b
    P = c.point(x3, x3 * (a + b) ** 2)
    assert P in pts and c.order_of(P) == 3
    for x, factor in ((-a * a * b * (b + 2 * a), a * a - b * b),
                      (-a * b * b * (a + 2 * b), a * a - b * b),
                      (a * b * (a + 2 * b) * (b + 2 * a), (a + b) ** 2)):
        P = c.point(x, x * factor)
        assert P in pts and c.order_of(P) == 6
    assert classify_torsion(c).tag == "Z2xZ6"


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=-8, max_value=8),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=3))
def test_classification_invariant_under_scaling(m, n, d):
    if m in (0, n) or n == 0:
        return
    c = Curve(m, n)
    scaled = Curve(m * d * d, n * d * d)
    assert classify_torsion(c).tag == classify_torsion(scaled).tag


def _order3_by_divisor_walk(m, n):
    """The slow reference `_detect_order3` replaced: every divisor a0 of |m|
    is tried as |a|, and b comes from m = a^3(a+2b)."""
    from math import gcd

    from sympy import divisors
    for a0 in divisors(abs(m)):
        if abs(m) % a0 ** 3:
            continue
        for a in (a0, -a0):
            t = m // a ** 3
            if (t - a) % 2:
                continue
            b = (t - a) // 2
            if b and gcd(a, b) == 1 and n == b ** 3 * (2 * a + b):
                return (a, b) if b > 0 else (-a, -b)
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=1, max_value=120),
       st.integers(min_value=-1, max_value=1),
       st.integers(min_value=-1, max_value=1))
def test_detect_order3_matches_divisor_walk(k, extra, dm, dn):
    # a = -k, b > 2k spans the reduced models m < 0 < n of the Z2xZ6
    # family; the +-1 nudges give near misses.
    a, b = -k, 2 * k + extra
    m = a ** 3 * (a + 2 * b) + dm
    n = b ** 3 * (2 * a + b) + dn
    assert _detect_order3(m, n) == _order3_by_divisor_walk(m, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6),
       st.integers(min_value=1, max_value=10 ** 6))
def test_detect_order3_matches_divisor_walk_random(neg_m, n):
    assert _detect_order3(-neg_m, n) == _order3_by_divisor_walk(-neg_m, n)


def test_six_torsion_with_large_prime_parameters():
    # a and b are 61-bit: m and n have prime factors rho cannot split in
    # useful time, and none is needed.
    p = 2 ** 61 - 1
    a, b = -p, 3 * p + 1
    c = Curve(a ** 3 * (a + 2 * b), b ** 3 * (2 * a + b))
    tc = classify_torsion(c)
    assert tc.tag == "Z2xZ6" and tc.certificate == (a, b)


def _order8_by_fourth_roots(m, n):
    """The reference the order-8 refinement replaced: 4th roots of -m and
    n - m, then the hypotenuse."""
    xi = iroot_exact(-m, 4)
    if xi is None or xi == 0:
        return None
    eta = iroot_exact(n - m, 4)
    if eta is None:
        return None
    zeta = isqrt_exact(xi * xi + eta * eta)
    return None if zeta is None else (xi, eta, zeta)


def _classify_8_4_3(c):
    """The old detector chain: order 8, then 4, then 3, on the reduced
    model."""
    base = canonical_model(c)[0]
    for tag, detect in (("Z2xZ8", _order8_by_fourth_roots),
                        ("Z2xZ4", _detect_order4), ("Z2xZ6", _detect_order3)):
        cert = detect(base.m, base.n)
        if cert is not None:
            return tag, cert
    return "Z2xZ2", None


@st.composite
def _ladder_uv(draw):
    """Coprime (u, v) for the reduced model E(-u^2, v^2 - u^2): any pair,
    the squared legs of a primitive Pythagorean triple, or a near miss
    (u a square but v not; u, v squares but u + v not)."""
    kind = draw(st.sampled_from(["pair", "triple", "u_square", "uv_square"]))
    if kind == "triple":
        s = draw(st.integers(min_value=2, max_value=12))
        t = draw(st.integers(min_value=1, max_value=s - 1))
        assume(gcd(s, t) == 1 and (s - t) % 2)
        legs = [(s * s - t * t) ** 2, (2 * s * t) ** 2]
        return tuple(draw(st.permutations(legs)))
    a = draw(st.integers(min_value=1, max_value=40))
    b = draw(st.integers(min_value=1, max_value=40))
    u, v = {"pair": (a, b), "u_square": (a * a, b),
            "uv_square": (a * a, b * b)}[kind]
    assume(u != v and gcd(u, v) == 1)
    if kind == "u_square":
        assume(isqrt(v) ** 2 != v)
    if kind == "uv_square":
        assume(isqrt(u + v) ** 2 != u + v)
    return u, v


@settings(max_examples=300, deadline=None)
@given(_ladder_uv())
@example((1, 4))  # E(-1, 15): u, v squares, u + v = 5 is not
@example((9, 16))  # E(-81, 175): the (3, 4, 5) triple
def test_ladder_matches_the_8_4_3_chain(uv):
    u, v = uv
    c = Curve(-u * u, v * v - u * u)
    tc = classify_torsion(c)
    assert (tc.tag, tc.certificate) == _classify_8_4_3(c)
