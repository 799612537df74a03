"""Arithmetic progressions of rational squares and rational theta-triangles.

The geometric layer of the correspondence: a nontrivial quadric point
yields three rational squares in arithmetic progression, which in turn
yield a triangle with a prescribed rational-cosine angle.  The side
formulas a = gamma + alpha, b = gamma - alpha, c = 2*beta are validated
here by the law of cosines and the area relation a*b = 2*k*s, which the
test suite checks exactly on every conversion.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

from .arith import _Coprime
from .curves import Frozen
from .quadrics import QuadricPoint
from .serialize import frac_str
from .triples import CongruentTriple, congruent_to_concordant


numbers.Rational.register(_Coprime)


class DegenerateTriangleError(ValueError):
    """A triangle with a zero side or a tight triangle inequality."""


class APTriple(Frozen):
    """alpha^2 < beta^2 < gamma^2 in arithmetic progression of step `step`,
    with the outer squares p resp. q steps away from the middle one."""

    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    step: int
    p: int
    q: int

    def _check(self):
        if self.step < 1 or self.p < 1 or self.q < 1:
            raise ValueError("step and gaps must be positive")
        if self.alpha < 0 or self.beta <= 0 or self.gamma <= 0:
            raise ValueError("progression terms must be nonnegative magnitudes")
        # In lowest terms b^2 +- j*d^2 over d^2 is again in lowest terms, so
        # it equals a^2/e^2 iff d = e and b^2 +- j*d^2 = a^2.
        b, d = self.beta.numerator, self.beta.denominator
        b2, d2 = b * b, d * d
        if (self.alpha.denominator != d
                or self.alpha.numerator ** 2 != b2 - self.p * self.step * d2):
            raise ValueError("lower gap mismatch")
        if (self.gamma.denominator != d
                or self.gamma.numerator ** 2 != b2 + self.q * self.step * d2):
            raise ValueError("upper gap mismatch")

    def to_json(self) -> dict:
        return {"alpha": frac_str(self.alpha), "beta": frac_str(self.beta),
                "gamma": frac_str(self.gamma), "step": self.step,
                "p": self.p, "q": self.q}


class Triangle(Frozen):
    """Rational triangle with angle theta (cos theta = r/s) between the
    sides a and b; by convention a >= b."""

    a: Fraction
    b: Fraction
    c: Fraction
    r: int
    s: int

    def _check(self):
        # The sides times a common denominator, so every check below is an
        # integer identity.
        d = math.lcm(self.a.denominator, self.b.denominator,
                     self.c.denominator)
        a, b, c = (v.numerator * (d // v.denominator)
                   for v in (self.a, self.b, self.c))
        if a <= 0 or b <= 0 or c <= 0:
            raise DegenerateTriangleError("sides must be positive")
        if a < b:
            raise ValueError("side labels must satisfy a >= b")
        if not (a < b + c and c < a + b):
            raise DegenerateTriangleError("triangle inequality violated")
        if self.s < 1 or abs(self.r) >= self.s or math.gcd(self.r, self.s) != 1:
            raise ValueError("cos(theta) = r/s must be reduced with |r| < s")
        if c * c * self.s != (a * a + b * b) * self.s - 2 * a * b * self.r:
            raise ValueError("law of cosines fails for the given angle")

    def sides(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c)

    def area_coefficient(self) -> Fraction:
        """k with area = k*sqrt(s^2 - r^2); equals a*b/(2s)."""
        return self.a * self.b / (2 * self.s)

    def is_isosceles(self) -> bool:
        return self.a == self.b

    def to_json(self) -> dict:
        return {"a": frac_str(self.a), "b": frac_str(self.b),
                "c": frac_str(self.c), "r": self.r, "s": self.s}


def quadric_to_ap(S: QuadricPoint, p: int, q: int, step: int) -> APTriple:
    """Magnitudes |X2/X1|, |X0/X1|, |X3/X1| of a nontrivial quadric point,
    built without a gcd: on Q(-p*step, q*step), which `APTriple` checks,
    x1 is coprime to x0, x2 and x3 (see `quadrics._degree_four_map`)."""
    if S.is_trivial:
        raise ValueError("trivial quadric points carry no progression")
    x1 = abs(S.x1)
    return APTriple(alpha=Fraction(_Coprime(abs(S.x2), x1)),
                    beta=Fraction(_Coprime(abs(S.x0), x1)),
                    gamma=Fraction(_Coprime(abs(S.x3), x1)),
                    step=step, p=p, q=q)


def ap_to_quadric(t: APTriple) -> QuadricPoint:
    """(beta : 1 : alpha : gamma) over the one lowest-terms denominator d
    of alpha, beta, gamma (`APTriple` checks it): (b, d, a, g) for
    numerators b, a, g.  gcd(b, d) = 1 makes that tuple primitive, and
    b > 0 makes its first coordinate positive."""
    return QuadricPoint(t.beta.numerator, t.beta.denominator,
                        t.alpha.numerator, t.gamma.numerator)


def ap_to_triangle(t: APTriple, r: int, s: int) -> Triangle:
    """Sides (gamma+alpha, gamma-alpha, 2*beta) with the angle (r,s).

    alpha, beta and gamma share one denominator (`APTriple` checks it),
    a >= b since alpha >= 0, and the area coefficient ab/(2s) is
    ((p+q)*step)/(2s), because ab = gamma^2 - alpha^2 = (p+q)*step.  So
    b > 0, and alpha < beta < gamma gives the triangle inequalities: a
    valid progression never yields a degenerate triangle: past the checks
    below, a ValueError from `Triangle` is an internal fault.
    """
    if s < 1:
        raise ValueError("s must be positive")
    d = t.beta.denominator
    al, ga = t.alpha.numerator, t.gamma.numerator
    a, b, c = Fraction(ga + al, d), Fraction(ga - al, d), 2 * t.beta
    k = Fraction((t.p + t.q) * t.step, 2 * s)
    if k.denominator != 1:
        raise ValueError(f"area coefficient {k} is not an integer")
    gaps = congruent_to_concordant(CongruentTriple(r, s, int(k)))
    if (gaps.p, gaps.q, gaps.k) != (t.p, t.q, t.step):
        raise ValueError("progression gaps do not match the angle (r, s)")
    try:
        return Triangle(a=a, b=b, c=c, r=r, s=s)
    except ValueError as exc:
        raise ArithmeticError(f"progression gave no triangle: {exc}") from exc


def triangle_to_ap(T: Triangle) -> APTriple:
    k = T.area_coefficient()
    if k.denominator != 1:
        raise ValueError(f"area coefficient {k} is not an integer")
    gaps = congruent_to_concordant(CongruentTriple(T.r, T.s, int(k)))
    return APTriple(alpha=(T.a - T.b) / 2, beta=T.c / 2, gamma=(T.a + T.b) / 2,
                    step=gaps.k, p=gaps.p, q=gaps.q)


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
    tri = Triangle(a=Fraction(a), b=Fraction(a), c=Fraction(c), r=r, s=s)
    if tri.area_coefficient() != k:
        raise ArithmeticError("area coefficient drifted from construction")
    return tri, r, s, k
