"""Triple encodings of the two problems and the bijection between them.

A concordant triple (p,q,k) encodes an arithmetic progression of step k
containing three rational squares with gaps p*k and q*k; a congruent
triple (r,s,k) encodes the angle theta = arccos(r/s) and the candidate
theta-congruent number k.  `congruent_to_concordant` and
`concordant_to_congruent` are mutually inverse bijections between the
two solution sets.
"""

from __future__ import annotations

import math

from .curves import Curve, Frozen


class ConcordantTriple(Frozen):
    p: int
    q: int
    k: int

    def _check(self):
        if self.p < 1 or self.q < 1 or self.k < 1:
            raise ValueError("concordant triple components must be positive")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError("p and q must be coprime")

    def curve(self) -> Curve:
        return Curve(-self.p * self.k, self.q * self.k)

    def to_json(self) -> list:
        return [self.p, self.q, self.k]


def curve_to_concordant(c: Curve) -> ConcordantTriple:
    """Inverse of `ConcordantTriple.curve`: k = gcd(-m, n) = gcd(p*k, q*k)
    for coprime p, q.  ValueError (the triple's check) unless m < 0 < n."""
    k = math.gcd(-c.m, c.n)
    return ConcordantTriple(-c.m // k, c.n // k, k)


class CongruentTriple(Frozen):
    r: int
    s: int
    k: int

    def _check(self):
        if self.s < 1 or self.k < 1:
            raise ValueError("s and k must be positive")
        if abs(self.r) >= self.s:
            raise ValueError("|r| < s required for a genuine angle")
        if math.gcd(self.r, self.s) != 1:
            raise ValueError("r and s must be coprime")

    def to_json(self) -> list:
        return [self.r, self.s, self.k]


def congruent_to_concordant(t: CongruentTriple) -> ConcordantTriple:
    """(r,s,k) -> (p,q,k'): the gaps of the associated square progression."""
    if (t.r - t.s) % 2 != 0:
        return ConcordantTriple(t.s - t.r, t.s + t.r, t.k)
    # r and s both odd (both even is excluded by coprimality)
    return ConcordantTriple((t.s - t.r) // 2, (t.s + t.r) // 2, 2 * t.k)


def concordant_to_congruent(t: ConcordantTriple) -> CongruentTriple:
    """Literal inverse of `congruent_to_concordant`."""
    if t.p % 2 == 1 and t.q % 2 == 1:
        return CongruentTriple((t.q - t.p) // 2, (t.q + t.p) // 2, t.k)
    if t.k % 2 != 0:
        raise ValueError(
            "no congruent preimage: p, q of unequal parity require even k")
    return CongruentTriple(t.q - t.p, t.q + t.p, t.k // 2)
