"""The quadric intersection Q(m,n) and its maps to and from E(m,n).

Q(m,n) is the set of projective points (X0:X1:X2:X3) with

    X0^2 + m*X1^2 = X2^2   and   X0^2 + n*X1^2 = X3^2.

`quadric_to_point` / `point_to_quadric` are mutually inverse group
isomorphisms between Q(m,n) and E(m,n).  The two degree-4 maps used in
the classical congruent-number literature are provided as
`right_triangle_map` (second coordinate negated, defined on Q(-n,n))
and `concordant_form_map`; they equal doubling-after-isomorphism up to
sign, which the test suite checks exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .curves import Curve, INFINITY, Point


@dataclass(frozen=True)
class QuadricPoint:
    """Primitive integer representative of a projective 4-tuple.

    Normal form: gcd of the coordinates is 1 and the first nonzero
    coordinate is positive.  Use `from_raw` to build from arbitrary
    rational coordinates.
    """

    x0: int
    x1: int
    x2: int
    x3: int

    def __post_init__(self):
        coords = self.coords()
        if not any(coords):
            raise ValueError("all-zero projective tuple")
        if math.gcd(*coords) != 1:
            raise ValueError("coordinates are not primitive")
        first = next(v for v in coords if v)
        if first < 0:
            raise ValueError("first nonzero coordinate must be positive")

    @classmethod
    def from_raw(cls, x0, x1, x2, x3) -> "QuadricPoint":
        fracs = [Fraction(v) for v in (x0, x1, x2, x3)]
        lcm = math.lcm(*(f.denominator for f in fracs))
        ints = [int(f * lcm) for f in fracs]
        g = math.gcd(*ints)
        if g == 0:
            raise ValueError("all-zero projective tuple")
        ints = [v // g for v in ints]
        first = next(v for v in ints if v)
        if first < 0:
            ints = [-v for v in ints]
        return cls(*ints)

    def coords(self) -> tuple[int, int, int, int]:
        return (self.x0, self.x1, self.x2, self.x3)

    @property
    def is_trivial(self) -> bool:
        """Trivial tuples (1:0:+-1:+-1) solve the system for every (m,n)."""
        return self.x1 == 0

    def on_quadric(self, c: Curve) -> bool:
        s = self.x0 * self.x0
        t = self.x1 * self.x1
        return (s + c.m * t == self.x2 * self.x2
                and s + c.n * t == self.x3 * self.x3)


TRIVIAL_BASE = QuadricPoint(1, 0, 1, 1)


def quadric_to_point(S: QuadricPoint, c: Curve) -> Point:
    """Isomorphism Q(m,n) -> E(m,n); (1:0:1:1) goes to infinity."""
    if not S.on_quadric(c):
        raise ValueError(f"{S} is not on Q({c.m},{c.n})")
    m, n = c.m, c.n
    T = n * S.x2 - m * S.x3 + (m - n) * S.x0
    X = m * n * (S.x3 - S.x2)
    Y = m * n * (m - n) * S.x1
    if T == 0:
        if X != 0:
            raise ValueError("projective image misses the curve")
        return INFINITY
    return c.point(Fraction(X, T), Fraction(Y, T))


# Values at infinity and the 2-torsion points, where the quartic formulas
# vanish identically; pinned so that quadric_to_point inverts them.
_SPECIAL_IMAGES = {
    "infinity": QuadricPoint(1, 0, 1, 1),
    "zero": QuadricPoint(1, 0, -1, -1),
    "minus_m": QuadricPoint(1, 0, -1, 1),
    "minus_n": QuadricPoint(1, 0, 1, -1),
}


def point_to_quadric(P: Point, c: Curve) -> QuadricPoint:
    """Isomorphism E(m,n) -> Q(m,n), inverse to `quadric_to_point`."""
    if P.is_infinity:
        return _SPECIAL_IMAGES["infinity"]
    if not c.contains(P):
        raise ValueError(f"{P} is not on E({c.m},{c.n})")
    if P.y == 0:
        if P.x == 0:
            return _SPECIAL_IMAGES["zero"]
        if P.x == -c.m:
            return _SPECIAL_IMAGES["minus_m"]
        return _SPECIAL_IMAGES["minus_n"]
    m, n = c.m, c.n
    x, y = P.x, P.y
    xm, xn = x + m, x + n
    y2 = y * y
    return QuadricPoint.from_raw(
        -xm * (y2 - m * xn * xn),
        2 * y * xn * xm,
        -xm * (y2 + m * xn * xn),
        -xn * (y2 + n * xm * xm),
    )


def _degree_four_map(S: QuadricPoint, c: Curve, sign: int) -> Point:
    if not S.on_quadric(c):
        raise ValueError(f"{S} is not on Q({c.m},{c.n})")
    if S.x1 == 0:
        return INFINITY
    x0, x1 = Fraction(S.x0), Fraction(S.x1)
    x = (x0 / x1) ** 2
    y = sign * Fraction(S.x0 * S.x2 * S.x3, S.x1 ** 3)
    return c.point(x, y)


def right_triangle_map(S: QuadricPoint, c: Curve) -> Point:
    """Degree-4 map Q(-n,n) -> E(-n,n) from the right-triangle chart.

    Equals doubling composed with `quadric_to_point`; trivial tuples go
    to infinity.
    """
    if c.m != -c.n:
        raise ValueError("right-triangle map is defined on Q(-n,n) only")
    return _degree_four_map(S, c, -1)


def concordant_form_map(S: QuadricPoint, c: Curve) -> Point:
    """Degree-4 map Q(m,n) -> E(m,n); the negated-doubling companion of
    `right_triangle_map` with the opposite sign in the second coordinate."""
    return _degree_four_map(S, c, +1)
