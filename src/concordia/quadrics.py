"""The quadric intersection Q(m,n) and its maps to and from E(m,n).

Q(m,n) is the set of projective points (X0:X1:X2:X3) with

    X0^2 + m*X1^2 = X2^2   and   X0^2 + n*X1^2 = X3^2.

`quadric_to_point` / `point_to_quadric` are mutually inverse group
isomorphisms between Q(m,n) and E(m,n).  The two degree-4 maps used in
the classical congruent-number literature are provided as
`right_triangle_map` (second coordinate negated, defined on Q(-n,n))
and `concordant_form_map`; they equal doubling-after-isomorphism up to
sign, which the test suite checks exactly.  All three build their image
as a weighted triple (X, Y, Z), and only `quadric_to_point` takes a gcd.
`verify_concordant_solution` checks an integral solution of the system.
"""

from __future__ import annotations

import math

from .arith import _smooth_gcd
from .curves import INFINITY, Curve, Frozen, Point, _point, _set_mark


class QuadricPoint(Frozen):
    """Primitive integer representative of a projective 4-tuple.

    Normal form: gcd of the coordinates is 1 and the first nonzero
    coordinate is positive.
    """

    x0: int
    x1: int
    x2: int
    x3: int

    def _check(self):
        coords = self.coords()
        if not any(coords):
            raise ValueError("all-zero projective tuple")
        if math.gcd(*coords) != 1:
            raise ValueError("coordinates are not primitive")
        first = next(v for v in coords if v)
        if first < 0:
            raise ValueError("first nonzero coordinate must be positive")

    def coords(self) -> tuple[int, int, int, int]:
        return (self.x0, self.x1, self.x2, self.x3)

    def to_json(self) -> list[int]:
        return list(self.coords())

    @property
    def is_trivial(self) -> bool:
        """Trivial tuples (1:0:+-1:+-1) solve the system for every (m,n)."""
        return self.x1 == 0

    def on_quadric(self, c: Curve) -> bool:
        """Is the point on Q(m,n) of the curve c = E(m,n)?  A True answer
        is recorded with c's key (m, n) in the instance `__dict__`, which
        equality, hashing and pickling do not read, and a later call on
        that key returns True at once: each point is checked once per
        quadric, not once per read."""
        if self.__dict__.get("_quadric") == c._key:
            return True
        s = self.x0 * self.x0
        t = self.x1 * self.x1
        if (s + c.m * t == self.x2 * self.x2
                and s + c.n * t == self.x3 * self.x3):
            self.__dict__["_quadric"] = c._key
            return True
        return False


TRIVIAL_BASE = QuadricPoint(1, 0, 1, 1)


def quadric_to_point(S: QuadricPoint, c: Curve) -> Point:
    """Isomorphism Q(m,n) -> E(m,n); (1:0:1:1) goes to infinity.

    X/T, Y/T is x = (X/g)/Z^2, y = (Y*Z/g)/Z^3 for g = gcd(X, T) signed
    like T and Z^2 = T/g.  ArithmeticError, an internal fault, if T/g is
    not a square, g does not divide Y*Z or the curve identity fails."""
    if not S.on_quadric(c):
        raise ValueError(f"{S} is not on Q({c.m},{c.n})")
    m, n = c.m, c.n
    T = n * S.x2 - m * S.x3 + (m - n) * S.x0
    X = m * n * (S.x3 - S.x2)
    Y = m * n * (m - n) * S.x1
    if T == 0:
        if X != 0:
            raise ArithmeticError("projective image misses the curve")
        return INFINITY
    g = math.gcd(X, T) if T > 0 else -math.gcd(X, T)
    Zs = T // g
    Z = math.isqrt(Zs)
    X //= g
    Y, r = divmod(Y * Z, g)
    if r or Z * Z != Zs or not c.satisfies(X, Y, Z):
        raise ArithmeticError(f"the image of {S} is not a point of "
                              f"E({m},{n}) in lowest terms")
    P = Point(X, Y, Z)
    _set_mark(P, c._key)  # `Curve.weighted` would pass
    return P


def point_to_quadric(P: Point, c: Curve) -> QuadricPoint:
    """Isomorphism E(m,n) -> Q(m,n), inverse to `quadric_to_point`.

    Affinely the image is (mn - x^2 : 2y : -(x^2 + 2mx + mn) :
    -(x^2 + 2nx + mn)): the classical quartics
    (-(x+m)(y^2 - m(x+n)^2) : 2y(x+m)(x+n) : ...) with the common factor
    (x+m)(x+n) taken out, using y^2 = x(x+m)(x+n).  With x = X/Z^2 and
    y = Y/Z^3 this is Z^4 times it, a polynomial in (X, Y, Z).  It holds
    at the 2-torsion points too; infinity goes to the trivial base point
    (1:0:1:1).

    Lemma: a prime p dividing all four coordinates divides
    N = mn(m-n), so their gcd is _smooth_gcd(N, ...).  Proof, for P in
    lowest terms:
    - p | Z: the tuple is (-X^2, 0, -X^2, -X^2) mod p and p does not
      divide X, so p divides no coordinate but the second.
    - p = 2 divides N: m, n and m-n are never all odd.
    - p odd, p not dividing Z: p | 2YZ gives p | Y, so p divides X,
      X + mZ^2 or X + nZ^2.  If p | X, the first coordinate gives
      p | mn.  If p | X + mZ^2 and not X, it reads mZ^4(n - m) = 0 mod p
      with p not dividing m, so p | m - n; X + nZ^2 likewise.
    """
    X, Y, Z = c.weighted(P)
    if Z == 0:
        return TRIVIAL_BASE
    Z2 = Z * Z
    X2, mnZ4 = X * X, c.m * c.n * Z2 * Z2
    coords = [mnZ4 - X2, 2 * Y * Z, -(X2 + 2 * c.m * X * Z2 + mnZ4),
              -(X2 + 2 * c.n * X * Z2 + mnZ4)]
    g = _smooth_gcd(c.discriminant_root(), *coords)
    if coords[0] < 0 or coords[0] == 0 and coords[1] < 0:
        g = -g
    return QuadricPoint(*(v // g for v in coords))


def _degree_four_map(S: QuadricPoint, c: Curve, sign: int) -> Point:
    """(x0/x1)^2, sign*x0*x2*x3/x1^3, built by `_point` without a gcd:
    on a primitive point of Q(m,n), gcd(x0, x1) = gcd(x2, x1) =
    gcd(x3, x1) = 1, since a prime dividing x1 and one of x0, x2, x3
    divides all four.  No curve check is needed: `on_quadric` gives
    x0^2 + m*x1^2 = x2^2 and x0^2 + n*x1^2 = x3^2, so y^2 = x(x+m)(x+n)."""
    if not S.on_quadric(c):
        raise ValueError(f"{S} is not on Q({c.m},{c.n})")
    if S.x1 == 0:
        return INFINITY
    return _point(S.x0 * S.x0, sign * S.x0 * S.x2 * S.x3, S.x1)


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


def verify_concordant_solution(m: int, n: int, X: int, Y: int, Z: int,
                               W: int) -> str:
    """Classify an integral 4-tuple as a solution of the concordant system:
    returns "nontrivial", "trivial" or "invalid".  Raises ValueError for
    the degenerate m = 0, n = 0 or m = n, as `Curve` does."""
    Curve(m, n)
    if (X, Y, Z, W) == (0, 0, 0, 0):
        return "invalid"
    if X * X + m * Y * Y != Z * Z or X * X + n * Y * Y != W * W:
        return "invalid"
    return "trivial" if Y == 0 else "nontrivial"
