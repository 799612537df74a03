"""Arithmetic progressions of rational squares and rational theta-triangles.

The geometric layer of the correspondence: a nontrivial quadric point
yields three rational squares in arithmetic progression, which in turn
yield a triangle with a prescribed rational-cosine angle.  Both are
integers over one denominator: a progression is the magnitudes
(a, b, g, d) of its primitive quadric point, alpha = a/d, beta = b/d,
gamma = g/d, and a triangle its sides (A, B, C) over D.  The side
formulas a = gamma + alpha, b = gamma - alpha, c = 2*beta are validated
by the law of cosines and the area relation a*b = 2*k*s, as integer
identities that take no gcd.  The rationals alpha, ..., c are `Fraction`
views for callers, built only when they are read.
"""

from __future__ import annotations

import math

from .arith import _Coprime
from .curves import Frozen, _fraction_class
from .quadrics import QuadricPoint
from .serialize import _ratio
from .triples import CongruentTriple, congruent_to_concordant


class DegenerateTriangleError(ValueError):
    """A triangle with a zero side or a tight triangle inequality."""


class APTriple(Frozen):
    """alpha^2 < beta^2 < gamma^2 in arithmetic progression of step `step`,
    with the outer squares p resp. q steps away from the middle one.

    alpha, beta, gamma are a/d, b/d, g/d in lowest terms: gcd(b, d) = 1,
    and then the gap identities make a and g prime to d too.  That is
    the caller's to give, as for `Point`, and not checked, which would
    take a gcd: the magnitudes of a primitive point of Q(-p*step, q*step)
    have it (see `quadric_to_ap`), and so do `triangle_to_ap`'s."""

    a: int
    b: int
    g: int
    d: int
    step: int
    p: int
    q: int

    def _check(self):
        if self.step < 1 or self.p < 1 or self.q < 1:
            raise ValueError("step and gaps must be positive")
        if self.d < 1:
            raise ValueError("the common denominator must be positive")
        if self.a < 0 or self.b <= 0 or self.g <= 0:
            raise ValueError("progression terms must be nonnegative magnitudes")
        b2, d2 = self.b * self.b, self.d * self.d
        if self.a * self.a != b2 - self.p * self.step * d2:
            raise ValueError("lower gap mismatch")
        if self.g * self.g != b2 + self.q * self.step * d2:
            raise ValueError("upper gap mismatch")

    @property
    def alpha(self) -> Fraction:
        return _fraction_class()(_Coprime(self.a, self.d))

    @property
    def beta(self) -> Fraction:
        return _fraction_class()(_Coprime(self.b, self.d))

    @property
    def gamma(self) -> Fraction:
        return _fraction_class()(_Coprime(self.g, self.d))

    def to_json(self) -> dict:
        d = self.d
        return {"alpha": _ratio(self.a, d), "beta": _ratio(self.b, d),
                "gamma": _ratio(self.g, d), "step": self.step,
                "p": self.p, "q": self.q}


class Triangle(Frozen):
    """Rational triangle with angle theta (cos theta = r/s) between the
    sides a = A/D and b = B/D; c = C/D, and by convention a >= b.

    (A, B, C, D) is primitive, which makes it the one representative of
    the sides: the caller's to give and not checked, as for `APTriple`.
    `ap_to_triangle` and `isosceles_triangle` give it."""

    A: int
    B: int
    C: int
    D: int
    r: int
    s: int

    def _check(self):
        A, B, C = self.A, self.B, self.C
        if self.D < 1:
            raise ValueError("the common denominator must be positive")
        if A <= 0 or B <= 0 or C <= 0:
            raise DegenerateTriangleError("sides must be positive")
        if A < B:
            raise ValueError("side labels must satisfy a >= b")
        if not (A < B + C and C < A + B):
            raise DegenerateTriangleError("triangle inequality violated")
        if self.s < 1 or abs(self.r) >= self.s or math.gcd(self.r, self.s) != 1:
            raise ValueError("cos(theta) = r/s must be reduced with |r| < s")
        if C * C * self.s != (A * A + B * B) * self.s - 2 * A * B * self.r:
            raise ValueError("law of cosines fails for the given angle")

    @property
    def a(self) -> Fraction:
        return _fraction_class()(self.A, self.D)

    @property
    def b(self) -> Fraction:
        return _fraction_class()(self.B, self.D)

    @property
    def c(self) -> Fraction:
        return _fraction_class()(self.C, self.D)

    def sides(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c)

    def side_strings(self) -> list[str]:
        """a, b and c as "num/den" in lowest terms, one gcd each."""
        D = self.D
        out = []
        for v in (self.A, self.B, self.C):
            h = math.gcd(v, D)
            out.append(_ratio(v // h, D // h))
        return out

    def area_coefficient(self) -> Fraction:
        """k with area = k*sqrt(s^2 - r^2); equals a*b/(2s)."""
        return _fraction_class()(self.A * self.B, 2 * self.s * self.D ** 2)

    def is_isosceles(self) -> bool:
        return self.A == self.B

    def to_json(self) -> dict:
        a, b, c = self.side_strings()
        return {"a": a, "b": b, "c": c, "r": self.r, "s": self.s}


def quadric_to_ap(S: QuadricPoint, p: int, q: int, step: int) -> APTriple:
    """Magnitudes |X2/X1|, |X0/X1|, |X3/X1| of a nontrivial quadric point,
    in lowest terms without a gcd: on Q(-p*step, q*step), which `APTriple`
    checks, x1 is coprime to x0, x2 and x3 (see
    `quadrics._degree_four_map`)."""
    if S.is_trivial:
        raise ValueError("trivial quadric points carry no progression")
    return APTriple(abs(S.x2), abs(S.x0), abs(S.x3), abs(S.x1), step, p, q)


def ap_to_quadric(t: APTriple) -> QuadricPoint:
    """(beta : 1 : alpha : gamma) as (b, d, a, g): gcd(b, d) = 1 makes
    that tuple primitive, and b > 0 makes its first coordinate positive."""
    return QuadricPoint(t.b, t.d, t.a, t.g)


def _check_angle(p: int, q: int, step: int, r: int, s: int) -> None:
    """ValueError unless (r, s) is the angle of the progressions with gaps
    p, q and step `step`: the area coefficient k = ((p+q)*step)/(2s) is
    an integer and (r, s, k) has the concordant triple (p, q, step)."""
    if s < 1:
        raise ValueError("s must be positive")
    num, den = (p + q) * step, 2 * s
    k, rest = divmod(num, den)
    if rest:
        h = math.gcd(num, den)
        raise ValueError(f"area coefficient {_ratio(num // h, den // h)} "
                         "is not an integer")
    gaps = congruent_to_concordant(CongruentTriple(r, s, k))
    if (gaps.p, gaps.q, gaps.k) != (p, q, step):
        raise ValueError("progression gaps do not match the angle (r, s)")


def ap_to_triangle(t: APTriple, r: int, s: int) -> Triangle:
    """Sides (gamma+alpha, gamma-alpha, 2*beta) with the angle (r, s):
    `_check_angle`, then `_triangle`."""
    _check_angle(t.p, t.q, t.step, r, s)
    return _triangle(t, r, s)


def _triangle(t: APTriple, r: int, s: int) -> Triangle:
    """The triangle of `ap_to_triangle` for an angle that `_check_angle`
    has accepted for t's gaps and step.

    The sides are (g + a, g - a, 2b) over d, and half of each over d/2
    when d is even: then b is odd, so a^2 = b^2 - p*step*d^2 and g are
    odd too.  Since gcd(b, d) = 1 that is primitive without a gcd.
    a >= b since alpha >= 0, and the area coefficient ab/(2s) is
    ((p+q)*step)/(2s), because ab = gamma^2 - alpha^2 = (p+q)*step.  So
    b > 0, and alpha < beta < gamma gives the triangle inequalities: a
    valid progression never yields a degenerate triangle, and a
    ValueError from `Triangle` is an internal fault."""
    a, b, g, d = t.a, t.b, t.g, t.d
    if d & 1 or (g - a) & 1:
        sides = (g + a, g - a, 2 * b, d)
    else:
        sides = ((g + a) >> 1, (g - a) >> 1, b, d >> 1)
    try:
        return Triangle(*sides, r, s)
    except ValueError as exc:
        raise ArithmeticError(f"progression gave no triangle: {exc}") from exc


def triangle_to_ap(T: Triangle) -> APTriple:
    """alpha, beta, gamma = (a - b)/2, c/2, (a + b)/2: (A - B, C, A + B)
    over 2D, or half of each over D when all three are even, which is
    primitive when (A, B, C, D) is."""
    A, B, C, D, s = T.A, T.B, T.C, T.D, T.s
    k, rest = divmod(A * B, 2 * s * D * D)
    if rest:
        raise ValueError(f"area coefficient {T.area_coefficient()} is not "
                         "an integer")
    gaps = congruent_to_concordant(CongruentTriple(T.r, s, k))
    if ((A - B) | C) & 1:
        terms = (A - B, C, A + B, 2 * D)
    else:
        terms = ((A - B) >> 1, C >> 1, (A + B) >> 1, D)
    return APTriple(*terms, gaps.k, gaps.p, gaps.q)


def isosceles_triangle(rho: int, sigma: int
                       ) -> tuple[Triangle, int, int, int]:
    """The unique isosceles triangle with sin(theta/2) = rho/sigma and
    squarefree area coefficient; returns (triangle, r, s, k)."""
    if not (0 < rho < sigma):
        raise ValueError("0 < rho < sigma required")
    if math.gcd(rho, sigma) != 1:
        raise ValueError("rho and sigma must be coprime")
    if sigma % 2 == 1:
        a, c = 2 * sigma, 4 * rho
        r, s = sigma * sigma - 2 * rho * rho, sigma * sigma
        k = 2
    else:
        tau = sigma // 2
        a, c = sigma, 2 * rho
        r, s = 2 * tau * tau - rho * rho, 2 * tau * tau
        k = 1
    g = math.gcd(r, s)
    r, s = r // g, s // g
    tri = Triangle(a, a, c, 1, r, s)
    if tri.area_coefficient() != k:
        raise ArithmeticError("area coefficient drifted from construction")
    return tri, r, s, k
