"""The kernel of `Curve.search`: rows of cells, sieved by bit masks.

`concordia.curves` imports it when a search runs, so that a process
that does not search never compiles it.
"""

from __future__ import annotations

import math

from .arith import (_SQ_CLASSES, _SQ_FILTERS, _prime_factors_up_to,
                    _squarefree_products)
from .curves import Point

# Rows with amax >= _SIEVE_MIN_AMAX cells take patterns.  ms of the solve
# benchmark's 93 searches, best of 7 (3 at 10^5), one core of 2 vCPUs:
#   amax >=     12    16    20    24    32
#   H = 10^3    49    47    47    46    53
#   H = 10^4   122   122   128   132   152
#   H = 10^5   449   462   489   462   460
_SIEVE_MIN_AMAX = 16


def search(m: int, n: int, height: int) -> frozenset[Point]:
    """`Curve(m, n).search(height)`, as its docstring sets out."""
    if height < 1:
        raise ValueError("height bound must be >= 1")
    gcd = math.gcd
    isqrt = math.isqrt
    wmax = isqrt(height)
    primes = _prime_factors_up_to(abs(m * n), height)
    coprime = _coprime_masks(wmax)
    residues = [(mod, classes, m % mod, n % mod, _repunit(mod, wmax))
                for mod, classes in _SQ_CLASSES.items()]
    pts = {Point(0, 0, 1)}
    for d in _squarefree_products(primes, height):
        amax = isqrt(height // d)
        sieve = amax >= _SIEVE_MIN_AMAX
        signs = [(s, s * d, _row_patterns(residues, s * d) if sieve
                  else ()) for s in (1, -1)]
        checks = () if sieve else _SQ_FILTERS  # the patterns are exact
        for w in range(1, wmax + 1):
            if gcd(d, w) != 1:
                continue
            w2 = w * w
            mw, nw = m * w2, n * w2
            for s, sd, patterns in signs:
                x = _nonnegative_roots(s, d, mw, nw, amax)
                if not x:
                    continue
                for mod, masks in patterns:
                    x &= masks[w2 % mod]
                x &= coprime[w]
                while x:
                    a = x.bit_length() - 1
                    x ^= 1 << a
                    u = sd * a * a
                    N = u * (u + mw) * (u + nw)
                    for mod, flags in checks:
                        if not flags[N % mod]:
                            break
                    else:
                        r = isqrt(N)
                        if r * r == N:
                            pts.add(Point(u, r, w))
                            pts.add(Point(u, -r, w))
    return frozenset(pts)


def _nonnegative_roots(s: int, d: int, mw: int, nw: int, amax: int) -> int:
    """The cells a in [1, amax] with N = u(u+mw)(u+nw) >= 0 at
    u = s*d*a^2, as the int with those bits a set.

    With t = d*a^2 > 0, N = s*t*(t + s*mw)*(t + s*nw): t must lie outside
    (lo, hi) for s = 1 and inside [lo, hi] for s = -1, where lo < hi are
    -s*mw and -s*nw.
    """
    lo, hi = -s * mw, -s * nw
    if lo > hi:
        lo, hi = hi, lo
    # isqrt(v // d) is the last a with d*a^2 <= v (for v >= 0), and
    # isqrt((v - 1) // d) + 1 the first a with d*a^2 >= v (for v >= 1).
    if s > 0:
        below = min(amax, math.isqrt(lo // d)) + 1 if lo > 0 else 1
        above = min(amax, math.isqrt((hi - 1) // d)) + 1 if hi > 0 else 1
        return (1 << below) - 2 | (1 << amax + 1) - (1 << above)
    first = math.isqrt((lo - 1) // d) + 1 if lo > 0 else 1
    last = min(amax, math.isqrt(hi // d)) + 1 if hi > 0 else 1
    return (1 << last) - (1 << first) if first < last else 0


def _repunit(period: int, top: int) -> int:
    """The int with the bits 0, period, 2*period, ... up to top: times a
    pattern of `period` bits, it tiles the pattern over the bits 0..top."""
    k = top // period + 1
    return ((1 << period * k) - 1) // ((1 << period) - 1)


def _row_patterns(residues: list, sd: int) -> list:
    """(M, masks) for each (M, square classes, m mod M, n mod M, tile) of
    `residues`: masks[c] has the bits a <= wmax for which u = sd*a^2 can
    make N = u(u + mw^2)(u + nw^2) a square mod M when w^2 = c mod M, from
    one evaluation per pair of square classes, repeated by the tile."""
    out = []
    for mod, classes, mr, nr, tile in residues:
        ts = [(sd * q % mod, bits) for q, bits in classes.items()]
        masks = {}
        for c in classes:
            mc, nc = mr * c % mod, nr * c % mod
            acc = 0
            for t, bits in ts:
                if t * (t + mc) * (t + nc) % mod in classes:
                    acc |= bits
            masks[c] = tile * acc
        out.append((mod, masks))
    return out


def _coprime_masks(wmax: int) -> list[int]:
    """Bit a <= wmax of masks[w], 1 <= w <= wmax, is set iff gcd(a, w) = 1:
    each prime p clears the bits 0, p, 2p, ... of its multiples' masks."""
    full = (1 << wmax + 1) - 1
    masks = [full] * (wmax + 1)
    for p in range(2, wmax + 1):
        if masks[p] == full:  # no prime below p divides p
            clear = full ^ _repunit(p, wmax)
            for w in range(p, wmax + 1, p):
                masks[w] &= clear
    return masks
