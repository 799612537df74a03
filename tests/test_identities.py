"""The quadric isomorphism Q(m,n) = E(m,n) and the degree-4 maps, proved
as polynomial identities in X, Y, Z, m and n modulo the curve equation
Y^2 = X(X + mZ^2)(X + nZ^2), where the test suite's other checks sample
them on grids.  sympy is a test-only dependency.

`point_to_quadric` and `quadric_to_point` gate their inputs and take
gcds, so their coordinate formulas are written out here and tied to the
functions on integer points; the degree-4 maps are plain arithmetic and
run on the symbols themselves."""

import math
from types import SimpleNamespace

import sympy

from concordia.curves import Curve
from concordia.quadrics import (concordant_form_map, point_to_quadric,
                                quadric_to_point, right_triangle_map)

X, m, n = sympy.symbols("X m n")
# Y and Z are positive so that `_point` can read the sign of Z = 2YZ; the
# identities below use no assumption.
Y, Z = sympy.symbols("Y Z", positive=True)


def vanishes_on_curve(expr, m=m) -> bool:
    """Is the numerator of expr 0 modulo Y^2 - X(X + mZ^2)(X + nZ^2)?"""
    numerator = sympy.numer(sympy.together(expr))
    relation = Y ** 2 - X * (X + m * Z ** 2) * (X + n * Z ** 2)
    return sympy.rem(sympy.expand(numerator), relation, Y) == 0


def quadric_image(X, Y, Z, m, n):
    """`point_to_quadric`'s coordinates of (X, Y, Z), before it divides
    out their content and fixes the sign."""
    mnZ4 = m * n * Z ** 4
    return (mnZ4 - X ** 2, 2 * Y * Z, -(X ** 2 + 2 * m * X * Z ** 2 + mnZ4),
            -(X ** 2 + 2 * n * X * Z ** 2 + mnZ4))


def point_forms(x0, x1, x2, x3, m, n):
    """(T, X', Y'): `quadric_to_point` reads x = X'/T and y = Y'/T from
    the quadric point (x0 : x1 : x2 : x3)."""
    return (n * x2 - m * x3 + (m - n) * x0, m * n * (x3 - x2),
            m * n * (m - n) * x1)


def double(m=m):
    """x and y of 2P by the tangent of y^2 = x^3 + (m+n)x^2 + mn*x at
    P = (X/Z^2, Y/Z^3) (Silverman-Tate I.4)."""
    x, y = X / Z ** 2, Y / Z ** 3
    slope = (3 * x ** 2 + 2 * (m + n) * x + m * n) / (2 * y)
    x2 = slope ** 2 - (m + n) - 2 * x
    return x2, slope * (x - x2) - y


def test_point_to_quadric_lands_on_the_quadric():
    x0, x1, x2, x3 = quadric_image(X, Y, Z, m, n)
    assert vanishes_on_curve(x0 ** 2 + m * x1 ** 2 - x2 ** 2)
    assert vanishes_on_curve(x0 ** 2 + n * x1 ** 2 - x3 ** 2)


def test_quadric_to_point_inverts_point_to_quadric():
    # On the image of (X, Y, Z), times its content, the forms are
    # 2mn(m-n) times Z^4, X*Z^2 and Y*Z exactly, so the round trip gives
    # back X/Z^2 and Y/Z^3.
    T, X_, Y_ = point_forms(*quadric_image(X, Y, Z, m, n), m, n)
    k = 2 * m * n * (m - n)
    assert sympy.expand(T - k * Z ** 4) == 0
    assert sympy.expand(X_ - k * X * Z ** 2) == 0
    assert sympy.expand(Y_ - k * Y * Z) == 0


def test_the_maps_run_these_formulas():
    # On integer points, `point_to_quadric` returns the formulas' tuple
    # over its content, with the first nonzero coordinate positive, and
    # `quadric_to_point` the point X'/T, Y'/T.
    for mn, xy in (((-5, 5), (-4, 6)), ((-20, 10), (-5, 25))):
        c = Curve(*mn)
        P = c.point(*xy)
        for _ in range(6):
            coords = quadric_image(P.X, P.Y, P.Z, c.m, c.n)
            g = math.gcd(*coords)
            if next(v for v in coords if v) < 0:
                g = -g
            S = point_to_quadric(P, c)
            assert S.coords() == tuple(v // g for v in coords)
            T, X_, Y_ = point_forms(*S.coords(), c.m, c.n)
            R = quadric_to_point(S, c)
            assert X_ * R.Z ** 2 == R.X * T and Y_ * R.Z ** 3 == R.Y * T
            P = c.add(P, P)


def image_point(point_map, c, coords):
    """point_map applied to the quadric point coords, as (x, y)."""
    x0, x1, x2, x3 = coords
    S = SimpleNamespace(x0=x0, x1=x1, x2=x2, x3=x3,
                        on_quadric=lambda c: True)  # proved above
    R = point_map(S, c)
    return R.X / R.Z ** 2, R.Y / R.Z ** 3


def test_right_triangle_map_doubles():
    x, y = image_point(right_triangle_map, Curve(-n, n),
                       quadric_image(X, Y, Z, -n, n))
    x2, y2 = double(-n)
    assert vanishes_on_curve(x - x2, -n)
    assert vanishes_on_curve(y - y2, -n)


def test_concordant_form_map_doubles_and_negates():
    x, y = image_point(concordant_form_map, Curve(m, n),
                       quadric_image(X, Y, Z, m, n))
    x2, y2 = double()
    assert vanishes_on_curve(x - x2)
    assert vanishes_on_curve(y + y2)
