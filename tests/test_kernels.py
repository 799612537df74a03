"""Differential tests: the integer kernels for membership, the group law,
halving, the quadric maps, the progression/triangle validators and the
solution chain against the Fraction code they replaced, kept here as
references."""

import math
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from concordia.arith import _smooth_gcd, factorint, isqrt_exact
from concordia.curves import INFINITY, Curve, Point, point_sort_key
from concordia.geometry import (APTriple, DegenerateTriangleError, Triangle,
                                ap_to_quadric, ap_to_triangle, quadric_to_ap,
                                triangle_to_ap)
from concordia.problems import SolutionReport, solve_theta_congruent
from concordia.quadrics import (QuadricPoint, concordant_form_map,
                                point_to_quadric, quadric_to_point,
                                right_triangle_map)
from concordia.torsion import torsion_subgroup
from concordia.triples import (ConcordantTriple, CongruentTriple,
                               concordant_to_congruent,
                               congruent_to_concordant)

# -- references: the Fraction bodies the kernels replaced -------------------


def pt(x, y) -> Point:
    """The Point (x, y) for rationals whose lowest-terms denominators are
    Z^2 and Z^3, built from Fraction's own reduction, not by the code
    under test."""
    x, y = Fraction(x), Fraction(y)
    Z = math.isqrt(x.denominator)
    assert Z * Z == x.denominator and y.denominator == Z ** 3, (x, y)
    return Point(x.numerator, y.numerator, Z)


def pair(x, y) -> SimpleNamespace:
    """An affine (x, y) in Fractions, on a curve or not, for the
    references, which read only x, y and is_infinity."""
    return SimpleNamespace(x=Fraction(x), y=Fraction(y), is_infinity=False)


def accepts(c: Curve, x, y) -> bool:
    """Does `Curve.point` take (x, y)?"""
    try:
        c.point(x, y)
    except ValueError:
        return False
    return True


def reference_contains(c: Curve, P: Point) -> bool:
    if P.is_infinity:
        return True
    return P.y * P.y == P.x * (P.x + c.m) * (P.x + c.n)


def assert_membership_matches_reference(c: Curve, x: Fraction, y: Fraction):
    on = reference_contains(c, pair(x, y))
    assert accepts(c, x, y) == on
    if x.denominator ** 3 == y.denominator ** 2:  # a triple (X, Y, Z)
        assert c.contains(pt(x, y)) == on


def reference_add(c: Curve, P: Point, Q: Point) -> Point:
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return INFINITY
        lam = (3 * P.x * P.x + 2 * (c.m + c.n) * P.x + c.m * c.n) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - (c.m + c.n) - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return pt(x3, y3)


_REFERENCE_SPECIAL_IMAGES = {
    "infinity": QuadricPoint(1, 0, 1, 1),
    "zero": QuadricPoint(1, 0, -1, -1),
    "minus_m": QuadricPoint(1, 0, -1, 1),
    "minus_n": QuadricPoint(1, 0, 1, -1),
}


def reference_point_to_quadric(P: Point, c: Curve) -> QuadricPoint:
    if P.is_infinity:
        return _REFERENCE_SPECIAL_IMAGES["infinity"]
    if not reference_contains(c, P):
        raise ValueError(f"{P} is not on E({c.m},{c.n})")
    if P.y == 0:
        if P.x == 0:
            return _REFERENCE_SPECIAL_IMAGES["zero"]
        if P.x == -c.m:
            return _REFERENCE_SPECIAL_IMAGES["minus_m"]
        return _REFERENCE_SPECIAL_IMAGES["minus_n"]
    m, n = c.m, c.n
    x, y = P.x, P.y
    xm, xn = x + m, x + n
    y2 = y * y
    coords = (-xm * (y2 - m * xn * xn), 2 * y * xn * xm,
              -xm * (y2 + m * xn * xn), -xn * (y2 + n * xm * xm))
    # the primitive integer tuple, first nonzero coordinate positive
    lcm = math.lcm(*(v.denominator for v in coords))
    ints = [v.numerator * (lcm // v.denominator) for v in coords]
    g = math.gcd(*ints)
    if next(v for v in ints if v) < 0:
        g = -g
    return QuadricPoint(*(v // g for v in ints))


def reference_degree_four_map(S: QuadricPoint, c: Curve, sign: int) -> Point:
    if not S.on_quadric(c):
        raise ValueError(f"{S} is not on Q({c.m},{c.n})")
    if S.x1 == 0:
        return INFINITY
    x0, x1 = Fraction(S.x0), Fraction(S.x1)
    P = pt((x0 / x1) ** 2, sign * Fraction(S.x0 * S.x2 * S.x3, S.x1 ** 3))
    if not reference_contains(c, P):
        raise ValueError(f"({P.x}, {P.y}) is not on E({c.m},{c.n})")
    return P


def reference_sqrt(v: Fraction):
    """Exact nonnegative square root of a rational, or None."""
    num, den = isqrt_exact(v.numerator), isqrt_exact(v.denominator)
    return None if num is None or den is None else Fraction(num, den)


def reference_is_double(c: Curve, P: Point) -> bool:
    if P.is_infinity:
        return True
    return all(reference_sqrt(P.x + e) is not None for e in (0, c.m, c.n))


def reference_ap_error(alpha, beta, gamma, step, p, q):
    """The message APTriple's Fraction checks gave, or None if valid."""
    if step < 1 or p < 1 or q < 1:
        return "step and gaps must be positive"
    if alpha < 0 or beta <= 0 or gamma <= 0:
        return "progression terms must be nonnegative magnitudes"
    if alpha ** 2 != beta ** 2 - p * step:
        return "lower gap mismatch"
    if gamma ** 2 != beta ** 2 + q * step:
        return "upper gap mismatch"
    return None


def reference_triangle_error(a, b, c, r, s):
    """(exception type, message) of Triangle's Fraction checks, or None."""
    if a <= 0 or b <= 0 or c <= 0:
        return DegenerateTriangleError, "sides must be positive"
    if a < b:
        return ValueError, "side labels must satisfy a >= b"
    if not (a < b + c and c < a + b):
        return DegenerateTriangleError, "triangle inequality violated"
    if s < 1 or abs(r) >= s or math.gcd(r, s) != 1:
        return ValueError, "cos(theta) = r/s must be reduced with |r| < s"
    if c ** 2 * s != (a ** 2 + b ** 2) * s - 2 * a * b * r:
        return ValueError, "law of cosines fails for the given angle"
    return None


def reference_quadric_to_ap(S: QuadricPoint, p: int, q: int, step: int
                            ) -> tuple[Fraction, Fraction, Fraction]:
    """(alpha, beta, gamma) of `quadric_to_ap` in Fractions, or its
    ValueError."""
    if S.is_trivial:
        raise ValueError("trivial quadric points carry no progression")
    x1 = abs(S.x1)
    terms = tuple(Fraction(abs(v), x1) for v in (S.x2, S.x0, S.x3))
    error = reference_ap_error(*terms, step, p, q)
    if error is not None:
        raise ValueError(error)
    return terms


def reference_ap_to_triangle(terms, p: int, q: int, step: int, r: int,
                             s: int) -> tuple[Fraction, Fraction, Fraction]:
    """The sides (a, b, c) of `ap_to_triangle` in Fractions, or its
    ValueError or ArithmeticError."""
    alpha, beta, gamma = terms
    if s < 1:
        raise ValueError("s must be positive")
    k = Fraction((p + q) * step, 2 * s)
    if k.denominator != 1:
        raise ValueError(f"area coefficient {k} is not an integer")
    gaps = congruent_to_concordant(CongruentTriple(r, s, int(k)))
    if (gaps.p, gaps.q, gaps.k) != (p, q, step):
        raise ValueError("progression gaps do not match the angle (r, s)")
    sides = (gamma + alpha, gamma - alpha, 2 * beta)
    error = reference_triangle_error(*sides, r, s)
    if error is not None:
        raise ArithmeticError(f"progression gave no triangle: {error[1]}")
    return sides


def reference_ap_json(terms, step: int, p: int, q: int) -> dict:
    alpha, beta, gamma = terms
    return {"alpha": str(alpha), "beta": str(beta), "gamma": str(gamma),
            "step": step, "p": p, "q": q}


def reference_triangle_json(sides, r: int, s: int) -> dict:
    a, b, c = sides
    return {"a": str(a), "b": str(b), "c": str(c), "r": r, "s": s}


def reference_triangles(report: SolutionReport) -> list:
    """`SolutionReport.triangles`, keyed and sorted by Fraction sides."""
    seen = {}
    for entry in report.solutions:
        if entry.triangle is None:
            continue
        key = tuple(sorted(entry.triangle.sides()))
        seen.setdefault(key, (entry.triangle, []))[1].append(entry.point)
    return [seen[key] for key in sorted(seen)]


def _error(cls, *args):
    try:
        cls(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def over_one_denominator(*terms: Fraction) -> tuple[int, ...]:
    """(n1, ..., L): the terms as n_i/L over their least common
    denominator L, a primitive tuple, the form of `APTriple`'s (a, b, g, d)
    and `Triangle`'s (A, B, C, D)."""
    L = math.lcm(*(v.denominator for v in terms))
    return (*(v.numerator * (L // v.denominator) for v in terms), L)


def ap_error(alpha, beta, gamma, step, p, q):
    return _error(APTriple, *over_one_denominator(alpha, beta, gamma), step,
                  p, q)


def triangle_error(a, b, c, r, s):
    return _error(Triangle, *over_one_denominator(a, b, c), r, s)


# -- inputs -----------------------------------------------------------------

# (m, n), P of infinite order, and the theta triple of the curve: congruent
# curves (m = -n, the right-triangle chart) and theta curves, with P
# integral and not.
CHAINS = [
    ((-5, 5), (Fraction(-5, 9), Fraction(100, 27)), (0, 1, 5)),
    ((-6, 6), (Fraction(-6, 49), Fraction(720, 343)), (0, 1, 6)),
    ((-20, 10), (Fraction(-5), Fraction(25)), (-1, 3, 5)),
    ((-7, 35), (Fraction(-35, 9), Fraction(980, 27)), (2, 3, 7)),
    ((-6, 8), (Fraction(-6), Fraction(12)), (1, 7, 1)),
]
K = 40


@lru_cache(maxsize=None)
def multiples(i: int) -> tuple[Point, ...]:
    """P, 2P, ..., K*P on chain curve i, by the reference group law."""
    (m, n), (x, y), _ = CHAINS[i]
    c, P = Curve(m, n), pt(x, y)
    out = [P]
    for _ in range(K - 1):
        out.append(reference_add(c, out[-1], P))
    return tuple(out)


def chain(i: int) -> tuple[Curve, tuple[Point, ...]]:
    return Curve(*CHAINS[i][0]), multiples(i)


chain_index = st.integers(0, len(CHAINS) - 1)
multiple_index = st.integers(0, K - 1)


def test_chain_points_are_on_their_curves():
    for i in range(len(CHAINS)):
        c, pts = chain(i)
        assert all(reference_contains(c, Q) for Q in pts)
        assert pts[-1].y.denominator.bit_length() > 2000  # big heights


# -- membership -------------------------------------------------------------


def test_contains_on_every_multiple_and_torsion_point():
    for i in range(len(CHAINS)):
        c, pts = chain(i)
        for Q in pts:
            assert c.contains(Q)
            assert c.contains(c.negate(Q))
        for T in c.torsion_oracle():
            assert c.contains(T) and reference_contains(c, T)


@settings(max_examples=150, deadline=None)
@given(chain_index, multiple_index, st.sampled_from(
    ["y+1", "y-1", "x+1", "x/q", "y/q", "y*Z", "x*Z", "swap"]),
       st.integers(2, 50))
def test_contains_matches_reference_off_curve(i, k, how, q):
    c, pts = chain(i)
    Q = pts[k]
    x, y = Q.x, Q.y
    z = math.isqrt(x.denominator)
    if how == "y+1":
        y += 1
    elif how == "y-1":
        y -= 1
    elif how == "x+1":
        x += 1
    elif how == "x/q":  # a denominator that is not a square (for most q)
        x /= q
    elif how == "y/q":  # a y denominator that is not Z^3
        y /= q
    elif how == "y*Z":
        y *= z
    elif how == "x*Z":
        x *= z
    else:
        x, y = y, x
    assert_membership_matches_reference(c, x, y)


@settings(max_examples=300, deadline=None)
@given(st.integers(-60, 60), st.integers(-60, 60),
       st.fractions(max_denominator=60), st.fractions(max_denominator=300))
def test_contains_matches_reference_on_small_rationals(m, n, x, y):
    if m == 0 or n == 0 or m == n:
        return
    assert_membership_matches_reference(Curve(m, n), x, y)


def test_contains_rejects_wrong_denominators():
    # Curve.point turns (x, y) into (X, Y, Z), so it rejects the
    # denominators that no triple has.
    c = Curve(-5, 5)
    P = multiples(0)[3]
    X, Y, Z = P.X, P.Y, P.Z
    assert Z > 1 and c.point(Fraction(X, Z * Z), Fraction(Y, Z ** 3)) == P
    assert not c.contains(Point(X, Y + 1, Z))
    assert not c.contains(Point(X, Y - 1, Z))
    for x, y in [(Fraction(X, 2 * Z * Z), Fraction(Y, Z ** 3)),  # not a square
                 (Fraction(X, Z * Z), Fraction(Y, 2 * Z ** 3)),  # not Z^3
                 (Fraction(X, Z * Z), Fraction(Y + 1, Z ** 3)),
                 (Fraction(X, Z * Z), Fraction(Y - 1, Z ** 3)),
                 # (25/2^2, 75/2^3) is on the curve.  14 = 2*7 and
                 # 16 = 2*8 divide exactly, but 7 and 8 are not 2^2; 11 is
                 # not 2*4 though 11 // 4 = 2 and 2^2 = 4.
                 (Fraction(25, 7), Fraction(75, 14)),
                 (Fraction(25, 8), Fraction(75, 16)),
                 (Fraction(25, 4), Fraction(75, 11))]:
        assert not accepts(c, x, y)
        assert not reference_contains(c, pair(x, y))
    # (-3, 9) is on E(-6,6); 4 = 1*4 divides exactly, but 4 is not 1^2.
    c = Curve(-6, 6)
    assert c.point(-3, 9) == Point(-3, 9, 1)
    assert not accepts(c, Fraction(-3, 4), Fraction(9, 4))
    assert not reference_contains(c, pair(Fraction(-3, 4), Fraction(9, 4)))


# -- the group law ----------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(chain_index, multiple_index, multiple_index)
def test_add_matches_reference_on_chains(i, j, k):
    c, pts = chain(i)
    P, Q = pts[j], pts[k]
    for A, B in [(P, Q), (P, P), (P, c.negate(P)), (Q, c.negate(P)),
                 (P, INFINITY), (INFINITY, Q)]:
        assert c.add(A, B) == reference_add(c, A, B)


def test_add_matches_reference_with_torsion_summands():
    for i in range(len(CHAINS)):
        c, pts = chain(i)
        torsion = sorted(c.torsion_oracle(), key=repr)
        for Q in pts[:12]:
            for T in torsion:
                assert c.add(Q, T) == reference_add(c, Q, T)
                assert c.add(T, Q) == reference_add(c, T, Q)
        for S in torsion:
            for T in torsion:
                assert c.add(S, T) == reference_add(c, S, T)


@settings(max_examples=80, deadline=None)
@given(st.integers(-300, 300), st.integers(-300, 300), st.data())
def test_add_matches_reference_on_torsion(m, n, data):
    if m == 0 or n == 0 or m == n:
        return
    c = Curve(m, n)
    pts = sorted(c.torsion_oracle(), key=repr)
    P = data.draw(st.sampled_from(pts))
    Q = data.draw(st.sampled_from(pts))
    assert c.add(P, Q) == reference_add(c, P, Q)
    assert c.add(P, P) == reference_add(c, P, P)


def test_add_rejects_denominators_off_every_curve():
    # Denominators that no point has never become a Point.
    c = Curve(-5, 5)
    P = multiples(0)[0]
    with pytest.raises(ValueError):
        c.point(Fraction(1, 2), Fraction(1, 8))  # 2 is not a square
    with pytest.raises(ValueError):
        c.point(Fraction(1, 4), Fraction(1, 4))  # 4 is not 2^3
    # Denominators 2^2 and 2^3 that a point can have, but off the curve:
    # (25/4, 75/8) is on it.
    off = Point(25, 77, 2)
    for A, B in [(off, off), (off, P), (P, off), (off, c.negate(off))]:
        with pytest.raises(ValueError):
            c.add(A, B)


def _assert_lowest_terms(R: Point):
    if not R.is_infinity:  # Fraction reduces X/Z^2 and Y/Z^3 itself
        x, y = Fraction(R.X, R.Z ** 2), Fraction(R.Y, R.Z ** 3)
        assert (x.numerator, x.denominator, y.numerator, y.denominator) == \
            (R.X, R.Z ** 2, R.Y, R.Z ** 3)


nonzero = st.integers(-1000, 1000).filter(bool)


@settings(max_examples=150, deadline=None)
@given(nonzero, nonzero, st.data())
def test_add_results_are_reduced_on_random_curves(m, n, data):
    # The kernels build their results as triples with no gcd: an unreduced
    # result would only show as a wrong ==.  So the triples are checked
    # for lowest terms as well.
    assume(m != n)
    c = Curve(m, n)
    pts = sorted(c.search(60) | c.torsion_oracle(), key=repr)
    P = data.draw(st.sampled_from(pts))
    Q = data.draw(st.sampled_from(pts))
    kP = P
    for _ in range(data.draw(st.integers(0, 11))):
        kP = reference_add(c, kP, P)
    for A, B in [(kP, Q), (Q, kP), (kP, kP), (Q, Q), (kP, P)]:
        R = c.add(A, B)
        assert R == reference_add(c, A, B)
        _assert_lowest_terms(R)
        assert point_to_quadric(R, c) == reference_point_to_quadric(R, c)


def test_double_divides_out_a_prime_of_m_minus_n():
    # 7 divides y = 35 and m - n = -42 but not m or n, so the tangent's X3
    # and Z3 = 2*Y1*Z1 share 7^2 (lam^2 = 35^2).
    c = Curve(-30, 12)
    P = c.point(-5, 35)
    D = c.add(P, P)
    assert D == reference_add(c, P, P) == c.point(Fraction(121, 4),
                                                  Fraction(143, 8))
    _assert_lowest_terms(D)


# X3 = 35^2 * 121 and Y3 = 35^3 * 143: 9 does not divide X3, 11^3 does not
# divide Y3, and 5^2 * 7 is not a square.
@pytest.mark.parametrize("lam2", [9, 11 * 11, 5 * 5 * 7])
def test_wrong_common_factor_is_an_internal_fault(lam2, monkeypatch):
    # lam^2 = 35^2 here.  A wrong one is never divided out silently, and
    # the fault is not a ValueError, which the CLI reports as a usage error.
    monkeypatch.setattr("concordia.curves._smooth_gcd", lambda *v: lam2)
    c = Curve(-30, 12)
    P = c.point(-5, 35)
    with pytest.raises(ArithmeticError):
        c.add(P, P)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10 ** 6), st.booleans(), st.data())
def test_smooth_gcd_matches_gcd(N, negative, data):
    primes = list(factorint(N))
    size = data.draw(st.integers(1, 4))
    zero = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
    assume(not all(zero))
    powers = [math.prod(p ** data.draw(st.integers(0, 60)) for p in primes)
              * data.draw(st.sampled_from([1, -1])) for _ in range(size)]
    cofactors = [data.draw(st.integers(1, 10 ** 30).filter(
        lambda v: math.gcd(v, N) == 1)) for _ in range(size)]
    # No common prime outside N: divide out what the cofactors share.
    g = math.gcd(*(f for f, z in zip(cofactors, zero) if not z))
    vals = [0 if z else p * f // g
            for p, f, z in zip(powers, cofactors, zero)]
    assert _smooth_gcd(-N if negative else N, *vals) == math.gcd(*vals)


def test_two_torsion_points_are_on_the_curve():
    for m in range(-12, 13):
        for n in range(-12, 13):
            if m == 0 or n == 0 or m == n:
                continue
            c = Curve(m, n)
            pts = c.two_torsion
            assert [P.x for P in pts] == [0, -m, -n]
            assert all(P.y == 0 and c.contains(P)
                       and reference_contains(c, P) for P in pts)
            assert all(c.add(P, P) == INFINITY for P in pts)


# -- halving ----------------------------------------------------------------

# The curves of acceptance criterion 5: congruent and theta curves.
CRITERION_5 = [(-n, n) for n in (5, 6, 7, 31)] + [
    (-1, 3), (-2, 3), (-5, 27), (-1, 8), (-64, 125), (-96, 1029), (-5, 5),
    (-6, 6), (1, 4), (-20, 108)]


@lru_cache(maxsize=None)
def criterion_5_points(mn: tuple[int, int]) -> frozenset[Point]:
    return Curve(*mn).search(10 ** 4)


def reference_sort_key(P: Point):
    """The Fraction key that `point_sort_key` replaced."""
    if P.is_infinity:
        return (0, 0, 0, Fraction(0))
    return (1, P.x.numerator, P.x.denominator, P.y)


def test_sort_key_matches_reference():
    for mn in CRITERION_5:
        c = Curve(*mn)
        for pts in (criterion_5_points(mn), c.torsion_oracle()):
            assert len(pts) > 1
            assert sorted(pts, key=point_sort_key) == \
                sorted(pts, key=reference_sort_key)


def _assert_halving_matches_reference(c: Curve, pts) -> int:
    """Check is_double on pts; the number of doubles."""
    doubles = 0
    for P in pts:
        double = c.is_double(P)
        assert double == reference_is_double(c, P)
        doubles += double
    return doubles


def test_halving_matches_reference_on_search_points():
    for mn in CRITERION_5:
        c = Curve(*mn)
        pts = sorted(criterion_5_points(mn), key=point_sort_key)
        doubles = [reference_add(c, P, P) for P in pts]
        _assert_halving_matches_reference(c, [INFINITY, *pts])
        assert _assert_halving_matches_reference(c, doubles) == len(doubles)


def test_halving_matches_reference_on_chains():
    for i in range(len(CHAINS)):
        c, pts = chain(i)
        signed = [*pts, *map(c.negate, pts)]
        assert any(P.x.denominator > 1 for P in signed)
        assert any(P.x < 0 for P in signed)
        # kP is a double for even k, and for odd k when P is one
        assert _assert_halving_matches_reference(c, signed) >= K


# -- quadric maps -----------------------------------------------------------


def test_quadric_maps_match_reference_on_every_multiple():
    for i in range(len(CHAINS)):
        c, pts = chain(i)
        for Q in (*pts, *map(c.negate, pts), *c.torsion_oracle()):
            S = point_to_quadric(Q, c)
            assert S == reference_point_to_quadric(Q, c)
            assert quadric_to_point(S, c) == Q
            assert concordant_form_map(S, c) == \
                reference_degree_four_map(S, c, +1)
            if c.m == -c.n:
                assert right_triangle_map(S, c) == \
                    reference_degree_four_map(S, c, -1)


def test_quadric_map_images_are_in_lowest_terms():
    # The maps build their images as triples with no gcd: an unreduced
    # image, or a 0/Z^2 with Z > 1, would only show as a wrong ==.
    negative_x1 = negative_T = 0
    for i in range(len(CHAINS)):
        c, pts = chain(i)
        for Q in (INFINITY, *c.two_torsion, *pts, *map(c.negate, pts)):
            S = point_to_quadric(Q, c)
            negative_x1 += S.x1 < 0
            negative_T += c.n * S.x2 - c.m * S.x3 + (c.m - c.n) * S.x0 < 0
            images = [quadric_to_point(S, c), concordant_form_map(S, c)]
            if c.m == -c.n:
                images.append(right_triangle_map(S, c))
            for R in images:
                _assert_lowest_terms(R)
    assert negative_x1 and negative_T  # both sign flips are exercised
    for k in (2, 3, 13):  # a zero x0: (0, 1, 1, k) has x = k, y = -k(k+1)
        c, S = Curve(1, k * k), QuadricPoint(0, 1, 1, k)
        assert quadric_to_point(S, c) == Point(k, -k * (k + 1), 1)
        assert concordant_form_map(S, c) == Point(0, 0, 1)


@pytest.mark.parametrize("fake_gcd", [
    lambda g: g // 3,  # T/g = 27 is not a square; 30 divides Y*Z = 15000
    lambda g: g * 9,   # T/g = 1 is a square; 810 does not divide Y*Z = 3000
    None,              # the true gcd, and a curve identity that fails
], ids=["square", "remainder", "identity"])
def test_quadric_to_point_checks_its_image(fake_gcd, monkeypatch):
    # The image of a point of Q(m,n) always passes these checks, so each
    # is forced to fail here, on its own: a wrong gcd runs with a curve
    # identity that always holds.  None of them is a ValueError, which the
    # CLI reports as a usage error.
    c, pts = chain(0)
    S = point_to_quadric(pts[0], c)  # (-5/9, 100/27): gcd(X, T) = 90, Z = 3
    assert quadric_to_point(S, c) == pts[0]
    if fake_gcd is None:
        monkeypatch.setattr(Curve, "satisfies", lambda *args: False)
    else:
        monkeypatch.setattr(Curve, "satisfies", lambda *args: True)
        monkeypatch.setattr("concordia.quadrics.math", SimpleNamespace(
            gcd=lambda a, b: fake_gcd(math.gcd(a, b)), isqrt=math.isqrt))
    with pytest.raises(ArithmeticError):
        quadric_to_point(S, c)


@settings(max_examples=80, deadline=None)
@given(st.integers(-300, 300), st.integers(-300, 300))
def test_point_to_quadric_matches_reference_on_torsion(m, n):
    if m == 0 or n == 0 or m == n:
        return
    c = Curve(m, n)
    for P in c.torsion_oracle():
        S = point_to_quadric(P, c)
        assert S == reference_point_to_quadric(P, c)
        assert concordant_form_map(S, c) == reference_degree_four_map(S, c, 1)


def test_point_to_quadric_rejects_points_off_the_curve():
    c, pts = chain(0)
    X, Y, Z = pts[4].X, pts[4].Y, pts[4].Z
    # y + 1, and x = 1/2 written as the unreduced 2/2^2
    for P in (Point(X, Y + Z ** 3, Z), Point(2, 0, 2)):
        with pytest.raises(ValueError):
            point_to_quadric(P, c)
    for P in (pair(pts[4].x, pts[4].y + 1), pair(Fraction(1, 2), 0)):
        with pytest.raises(ValueError):
            reference_point_to_quadric(P, c)


# -- progression and triangle validators ------------------------------------


def _progression(i: int, k: int) -> tuple[APTriple, tuple[int, int]]:
    c, pts = chain(i)
    r, s, kk = CHAINS[i][2]
    ct = congruent_to_concordant(CongruentTriple(r, s, kk))
    return quadric_to_ap(point_to_quadric(pts[k], c), ct.p, ct.q, ct.k), (r, s)


def test_validators_accept_every_multiple():
    for i in range(len(CHAINS)):
        for k in range(K):
            ap, (r, s) = _progression(i, k)
            args = (ap.alpha, ap.beta, ap.gamma, ap.step, ap.p, ap.q)
            assert reference_ap_error(*args) is None
            tri = ap_to_triangle(ap, r, s)
            assert reference_triangle_error(tri.a, tri.b, tri.c, r, s) is None
            assert tri.a * tri.b == 2 * tri.s * tri.area_coefficient()


def test_ap_to_quadric_inverts_quadric_to_ap_on_every_multiple():
    # The progression keeps the magnitudes of S, and its inverse builds
    # (|x0|, |x1|, |x2|, |x3|) with no gcd: it must still be primitive.
    for i in range(len(CHAINS)):
        c, pts = chain(i)
        ct = congruent_to_concordant(CongruentTriple(*CHAINS[i][2]))
        for P in pts:
            S = point_to_quadric(P, c)
            ap = quadric_to_ap(S, ct.p, ct.q, ct.k)
            assert ap_to_quadric(ap).coords() == tuple(map(abs, S.coords()))


_AP_PERTURBATIONS = ["alpha+", "alpha-", "beta+", "gamma+", "gamma*2",
                     "all/2", "step+1", "p+1", "q+1", "alpha<->gamma",
                     "alpha=0", "alpha<0"]


@settings(max_examples=200, deadline=None)
@given(chain_index, multiple_index, st.sampled_from(_AP_PERTURBATIONS))
def test_ap_validator_matches_reference(i, k, how):
    ap, _ = _progression(i, k)
    alpha, beta, gamma = ap.alpha, ap.beta, ap.gamma
    step, p, q = ap.step, ap.p, ap.q
    tiny = Fraction(1, beta.denominator)
    if how == "alpha+":
        alpha += tiny
    elif how == "alpha-":
        alpha -= tiny
    elif how == "beta+":
        beta += tiny
    elif how == "gamma+":
        gamma += tiny
    elif how == "gamma*2":
        gamma *= 2
    elif how == "all/2":
        alpha, beta, gamma = alpha / 2, beta / 2, gamma / 2
    elif how == "step+1":
        step += 1
    elif how == "p+1":
        p += 1
    elif how == "q+1":
        q += 1
    elif how == "alpha<->gamma":
        alpha, gamma = gamma, alpha
    elif how == "alpha=0":
        alpha = Fraction(0)
    else:
        alpha = -alpha
    want = reference_ap_error(alpha, beta, gamma, step, p, q)
    got = ap_error(alpha, beta, gamma, step, p, q)
    assert got == (None if want is None else (ValueError, want))


def test_ap_validator_matches_reference_on_small_progressions():
    # 1, 25, 49 (step 24) and 49, 169, 289 (step 120), with perturbations
    for a, b, g, step in [(1, 5, 7, 24), (7, 13, 17, 120)]:
        for d in (1, 2, 3):
            for da in (-1, 0, 1):
                args = (Fraction(a + da, d), Fraction(b, d), Fraction(g, d),
                        step // (d * d) if step % (d * d) == 0 else step,
                        1, 1)
                want = reference_ap_error(*args)
                got = ap_error(*args)
                assert got == (None if want is None else (ValueError, want))


_TRI_PERTURBATIONS = ["a+", "b+", "c+", "c*2", "swap", "r+1", "c=a+b",
                      "c=a-b", "a/2", "s*2", "b=0", "b<0"]


@settings(max_examples=200, deadline=None)
@given(chain_index, multiple_index, st.sampled_from(_TRI_PERTURBATIONS))
def test_triangle_validator_matches_reference(i, k, how):
    ap, (r, s) = _progression(i, k)
    tri = ap_to_triangle(ap, r, s)
    a, b, c = tri.a, tri.b, tri.c
    tiny = Fraction(1, a.denominator * b.denominator)
    if how == "a+":
        a += tiny
    elif how == "b+":
        b += tiny
    elif how == "c+":
        c += tiny
    elif how == "c*2":
        c *= 2
    elif how == "swap":
        a, b = b, a
    elif how == "r+1":
        r = r + 1 if abs(r + 1) < s else r - 1
    elif how == "c=a+b":
        c = a + b
    elif how == "c=a-b":
        c = a - b
    elif how == "a/2":
        a /= 2
    elif how == "s*2":
        s *= 2
    elif how == "b=0":
        b = Fraction(0)
    else:
        b = -b
    want = reference_triangle_error(a, b, c, r, s)
    assert triangle_error(a, b, c, r, s) == want


def test_triangle_validator_matches_reference_on_small_triangles():
    third = Fraction(1, 3)
    for a, b, c, r, s in [(3, 3, 2, 7, 9), (5, 3, 4, 0, 1), (5, 3, 7, -1, 2),
                          (8, 5, 7, 1, 2), (8, 5, 7, 1, 3), (5, 3, 8, 0, 1),
                          (3, 5, 4, 0, 1), (5, 3, 4, 2, 1),
                          (5 * third, third, 2 * third * 2, 0, 1)]:
        args = (Fraction(a), Fraction(b), Fraction(c), r, s)
        assert triangle_error(*args) == reference_triangle_error(*args)


# -- the solution chain -----------------------------------------------------


def _outcome(f, *args):
    """f(*args), or the type and message of its ValueError or
    ArithmeticError."""
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def assert_chain_matches_reference(S: QuadricPoint, p: int, q: int,
                                   step: int, r: int, s: int):
    """The progression of S and its triangle at (r, s) against the
    references: the views (a Fraction compares its numerator and
    denominator, so an unreduced view fails), the JSON and the errors."""
    ap = _outcome(quadric_to_ap, S, p, q, step)
    terms = _outcome(reference_quadric_to_ap, S, p, q, step)
    if not isinstance(ap, APTriple):
        assert ap == terms
        return
    assert (ap.alpha, ap.beta, ap.gamma) == terms
    # Past the int->str digit limit both raise Python's own ValueError.
    assert _outcome(ap.to_json) == \
        _outcome(reference_ap_json, terms, step, p, q)
    tri = _outcome(ap_to_triangle, ap, r, s)
    sides = _outcome(reference_ap_to_triangle, terms, p, q, step, r, s)
    if not isinstance(tri, Triangle):
        assert tri == sides
        return
    assert tri.sides() == sides
    assert _outcome(tri.to_json) == \
        _outcome(reference_triangle_json, sides, r, s)
    # (A, B, C, D) and (a, b, g, d) are the primitive representatives, so
    # the inverse map gives back the very same value.
    assert math.gcd(ap.b, ap.d) == 1 == math.gcd(tri.A, tri.B, tri.C, tri.D)
    assert triangle_to_ap(tri) == ap


@lru_cache(maxsize=None)
def small_points(p: int, q: int, k: int) -> tuple[Point, ...]:
    """The torsion and search(300) points of E(-pk, qk), with their
    doubles and triples."""
    c = Curve(-p * k, q * k)
    pts = c.search(300) | torsion_subgroup(c)[1]
    pts |= {c.multiply(P, j) for P in pts for j in (2, 3)}
    return tuple(sorted(pts, key=point_sort_key))


def _own_angle(p: int, q: int, k: int) -> tuple[int, int] | None:
    try:
        t = concordant_to_congruent(ConcordantTriple(p, q, k))
    except ValueError:
        return None
    return t.r, t.s


angles = st.tuples(st.integers(-30, 30), st.integers(-2, 30))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 40),
       st.sampled_from([0, 0, 0, 1]), st.booleans(), angles, st.data())
def test_chain_matches_reference_on_quadric_points(p, q, k, shift, own,
                                                   angle, data):
    # Primitive points of Q(-pk, qk), at their curve's own angle or
    # another; with shift 1 they are taken off Q(-p(k+1), q(k+1)).
    assume(math.gcd(p, q) == 1)
    c = Curve(-p * k, q * k)
    S = point_to_quadric(data.draw(st.sampled_from(small_points(p, q, k))),
                         c)
    if own and _own_angle(p, q, k) is not None:
        angle = _own_angle(p, q, k)
    assert_chain_matches_reference(S, p, q, k + shift, *angle)


@settings(max_examples=60, deadline=None)
@given(chain_index, multiple_index, st.booleans(), st.booleans(), angles)
def test_chain_matches_reference_on_multiples(i, k, negate, own, angle):
    c, pts = chain(i)
    r, s, kk = CHAINS[i][2]
    ct = congruent_to_concordant(CongruentTriple(r, s, kk))
    Q = c.negate(pts[k]) if negate else pts[k]
    assert_chain_matches_reference(point_to_quadric(Q, c), ct.p, ct.q, ct.k,
                                   *((r, s) if own else angle))


# (r, s) with |r| < s, before the gcd(r, s) = 1 filter
near_angles = st.integers(1, 21).flatmap(
    lambda s: st.tuples(st.integers(1 - s, s - 1), st.just(s)))


@settings(max_examples=60, deadline=None)
@given(near_angles, st.integers(1, 30), st.data())
def test_triangles_match_reference_order(angle, k, data):
    # triangles() dedupes and sorts by the integers (A, B, C, D), whatever
    # the order of the entries; each triangle's points keep that order.
    r, s = angle
    assume(math.gcd(r, s) == 1)
    report = solve_theta_congruent(CongruentTriple(r, s, k), 300)
    entries = data.draw(st.permutations(report.solutions))
    shuffled = SolutionReport(report.problem, report.triple, report.curve,
                              report.torsion_class, tuple(entries),
                              report.search_bound)
    for rep in (report, shuffled):
        assert rep.triangles() == reference_triangles(rep)
    assert [t["sides"] for t in shuffled.to_json()["triangles"]] == \
        [t["sides"] for t in report.to_json()["triangles"]]


def test_triangles_match_reference_on_a_deep_search():
    report = solve_theta_congruent(CongruentTriple(0, 1, 5), 10 ** 4)
    got = report.triangles()
    assert len(got) > 1 and got == reference_triangles(report)
    assert report.to_json()["triangles"] == [
        {"sides": [str(v) for v in tri.sides()],
         "points": [json_point for json_point in
                    (e["point"] for e in report.to_json()["solutions"]
                     if e.get("triangle") == tri.to_json())]}
        for tri, _ in got]


def test_theta_solve_builds_no_fraction(monkeypatch):
    # The chain runs on the quadric point's integers: 14 entries, which
    # took 7 Fractions each when the progression and triangle held them.
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    report = solve_theta_congruent(CongruentTriple(0, 1, 5), 10 ** 4)
    out = report.to_json()
    monkeypatch.undo()
    assert built == []
    assert len(report.solutions) == 14 and len(out["triangles"]) > 1
