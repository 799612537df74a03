"""The torsion oracle of `Curve.torsion_oracle`: a Nagell-Lutz
enumeration in integers, independent of the closed-form classifier in
`concordia.torsion`.

`Curve.torsion_oracle` imports it when it runs, so that a process that
does not run the oracle (only `selftest` and the sweeps do) never
compiles it.
"""

from __future__ import annotations

import math

from .arith import divisors
from .curves import INFINITY, Curve, Point

# Moduli at which `Curve.torsion_oracle` checks that a candidate y^2 is a
# value of x(x+m)(x+n) before it searches for the integer roots x.
_ORACLE_MODULI = (32, 27, 25, 7, 11, 13)


def torsion_oracle(c: Curve) -> frozenset[Point]:
    """`c.torsion_oracle()`, as its docstring sets out."""
    pts = {INFINITY}
    pts.update(c.two_torsion)
    e1, e2, e3 = sorted((0, -c.m, -c.n))
    peak = _cubic_peak(e1, e2, e3)
    tables = _cubic_value_tables(c.m, c.n)
    for y in divisors(c.discriminant_root()):
        y2 = y * y
        for M, flags in tables:
            if not flags[y2 % M]:
                break
        else:
            for x in _integer_cubic_roots(e1, e2, e3, peak, y2):
                P = Point(x, y, 1)
                if c.order_of(P) is not None:
                    pts.add(P)
                    pts.add(Point(x, -y, 1))
    return frozenset(pts)


def _cubic_peak(e1: int, e2: int, e3: int) -> tuple[int, int]:
    """(f(xc), xc) for the integer xc in [e1, e2] where
    f(x) = (x-e1)(x-e2)(x-e3), e1 < e2 < e3, is largest.

    f is 0 at e1 and e2, rises up to its smaller critical point
    c = (s - sqrt(D))/3 and falls after it, with s = e1+e2+e3 and
    D = s^2 - 3(e1e2 + e1e3 + e2e3) > 0.  So xc is floor(c) or floor(c)+1,
    and both lie within one of k = (s - isqrt(D)) // 3.
    """
    s = e1 + e2 + e3
    k = (s - math.isqrt(s * s - 3 * (e1 * e2 + e1 * e3 + e2 * e3))) // 3
    return max(((x - e1) * (x - e2) * (x - e3), x)
               for x in range(max(e1, k - 1), min(e2, k + 1) + 1))


def _cubic_value_tables(m: int, n: int) -> list[tuple[int, bytearray]]:
    """(M, flags) for each M in _ORACLE_MODULI, with flags[r] = 1 iff
    r = x(x+m)(x+n) mod M for some integer x."""
    tables = []
    for M in _ORACLE_MODULI:
        a, b = m % M, n % M
        flags = bytearray(M)
        for x in range(M):
            flags[x * (x + a) * (x + b) % M] = 1
        tables.append((M, flags))
    return tables


def _integer_cubic_roots(e1: int, e2: int, e3: int, peak: tuple[int, int],
                         y2: int) -> list[int]:
    """All integer roots, ascending, of g(x) = (x-e1)(x-e2)(x-e3) - y2 for
    e1 < e2 < e3 and y2 > 0, with `peak` = _cubic_peak(e1, e2, e3).

    g is negative at each e_i and below e1, so its roots lie in (e1, e2)
    or above e3.  In (e1, e2) there are none unless y2 is at most the
    peak f(xc), and then g rises up to xc and falls after it: one
    bisection on each side.  A root r <= xc has y2 >= (r-e1)(e2-xc)(e3-xc)
    and a root r >= xc has y2 >= (xc-e1)(e2-r)(e3-e2), which narrows the
    two brackets for small y2.  Above e3, g is increasing and convex with
    exactly one root, at most e3 + cbrt(y2) because f(e3 + t) >= t^3
    there.  Newton steps from e3 + 2^ceil(bits(y2)/3), rounded down, never
    pass that root and end on it if it is an integer, else just below it.
    """
    roots = []
    top, xc = peak
    if y2 <= top:
        lo, hi = e1, min(xc, e1 + y2 // ((e2 - xc) * (e3 - xc)))  # g(lo) < 0
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if (mid - e1) * (mid - e2) * (mid - e3) < y2:
                lo = mid
            else:
                hi = mid
        if (hi - e1) * (hi - e2) * (hi - e3) == y2:
            roots.append(hi)
        lo, hi = max(xc, e2 - y2 // ((xc - e1) * (e3 - e2))), e2  # g(hi) < 0
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if (mid - e1) * (mid - e2) * (mid - e3) >= y2:
                lo = mid
            else:
                hi = mid
        if (lo - e1) * (lo - e2) * (lo - e3) == y2 and lo not in roots:
            roots.append(lo)
    x = e3 + (1 << -(-y2.bit_length() // 3))
    while True:
        a, b, c = x - e1, x - e2, x - e3
        v = a * b * c - y2
        if v <= 0:
            break
        x -= -(-v // (a * b + (a + b) * c))
    if v == 0:
        roots.append(x)
    return roots
