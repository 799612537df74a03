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
# benchmark's 93 searches, best of 15 (5 at 10^5), the thresholds
# interleaved, one core of 2 vCPUs; 8 to 20 are within the host's noise:
#   amax >=      8    12    16    20    24    32
#   H = 10^3    41    38    36    37    38    45
#   H = 10^4    97    97   101   105   113   126
#   H = 10^5   395   382   403   377   400   396
_SIEVE_MIN_AMAX = 16

# For each prime power M = p^k of _SQ_CLASSES, four tables of M alone:
# - (g, packed) for each square class g, where packed holds the bits
#   classes[c*g mod M] at bit M*i for the i-th unit square class c;
# - (c, M*i) for each unit square class c;
# - the prime p;
# - the square classes that are not units.
_CLASS_TABLES = {}
for _mod, _classes in _SQ_CLASSES.items():
    _units = [c for c in _classes if math.gcd(c, _mod) == 1]
    _CLASS_TABLES[_mod] = (
        [(g, sum(_classes[c * g % _mod] << _mod * i
                 for i, c in enumerate(_units))) for g in _classes],
        [(c, _mod * i) for i, c in enumerate(_units)],
        next(p for p in range(2, _mod + 1) if _mod % p == 0),
        [c for c in _classes if math.gcd(c, _mod) > 1])


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
    memo = {}  # the masks of each (M, sd mod M), shared by the rows
    pts = {Point(0, 0, 1)}
    for d in _squarefree_products(primes, height):
        amax = isqrt(height // d)
        sieve = amax >= _SIEVE_MIN_AMAX
        # [s, s*d, patterns (None until the first non-empty row), the sign
        # range once it stops changing in w]
        signs = [[s, s * d, None if sieve else (), None] for s in (1, -1)]
        checks = () if sieve else _SQ_FILTERS  # the patterns are exact
        for w in range(1, wmax + 1):
            if gcd(d, w) != 1:
                continue
            w2 = w * w
            mw, nw = m * w2, n * w2
            for sign in signs:
                s, sd, patterns, x = sign
                if x is None:
                    x, fixed = _nonnegative_roots(s, d, mw, nw, amax)
                    if fixed:
                        sign[3] = x
                if not x:
                    continue
                if patterns is None:
                    patterns = sign[2] = _row_patterns(residues, sd, memo)
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


def _nonnegative_roots(s: int, d: int, mw: int, nw: int,
                       amax: int) -> tuple[int, bool]:
    """(row, fixed): the cells a in [1, amax] with N = u(u+mw)(u+nw) >= 0
    at u = s*d*a^2, as the int with those bits a set, and whether the row
    is the same for every larger w.

    With t = d*a^2 > 0, N = s*t*(t + s*mw)*(t + s*nw): t must lie outside
    (lo, hi) for s = 1 and inside [lo, hi] for s = -1, where lo < hi are
    -s*mw and -s*nw.  Both are K*w^2 for K = -s*m and -s*n, so a bound
    that is active (positive) only grows with w, and a row stays fixed
    once every active bound has reached amax or the row is empty for good.
    """
    lo, hi = -s * mw, -s * nw
    if lo > hi:
        lo, hi = hi, lo
    # isqrt(v // d) is the last a with d*a^2 <= v (for v >= 0), and
    # isqrt((v - 1) // d) the last a with d*a^2 < v (for v >= 1).
    full = (1 << amax + 1) - 2
    if s > 0:  # [1, below] and [above + 1, amax]
        if hi <= 0:
            return full, True
        above = math.isqrt((hi - 1) // d)
        if lo <= 0:
            if above >= amax:
                return 0, True
            return full ^ (1 << above + 1) - 2, False
        below = math.isqrt(lo // d)
        if below >= amax:
            return full, True
        return full ^ (1 << min(amax, above) + 1) - (1 << below + 1), False
    # s < 0: [first + 1, last]
    if hi <= 0:
        return 0, True
    last = math.isqrt(hi // d)
    if lo <= 0:
        if last >= amax:
            return full, True
        return (1 << last + 1) - 2, False
    first = math.isqrt((lo - 1) // d)
    if first >= amax:
        return 0, True
    return (1 << min(amax, last) + 1) - (1 << first + 1), False


def _repunit(period: int, top: int) -> int:
    """The int with the bits 0, period, 2*period, ... up to top: times a
    pattern of `period` bits, it tiles the pattern over the bits 0..top."""
    k = top // period + 1
    return ((1 << period * k) - 1) // ((1 << period) - 1)


def _row_patterns(residues: list, sd: int, memo: dict) -> list:
    """(M, masks) for each (M, square classes, m mod M, n mod M, tile) of
    `residues`: masks[c] has the bits a <= wmax for which u = sd*a^2 can
    make N = u(u + mw^2)(u + nw^2) a square mod M when w^2 = c mod M,
    repeated by the tile.  They depend on sd mod M alone, so the masks of
    each (M, sd mod M) are built once, into `memo`, and read from it by
    every later row of the search; no row writes to them.

    For a unit c, N = c^3 F(sd*a^2/c) with F(x) = x(x+m)(x+n), and c^3 is
    a unit square, so N is a square mod M iff F(sd*g) is, for the class
    g = a^2/c.  One evaluation per square class g finds the set G of
    those g, and masks[c] is the sum of the disjoint classes[c*g] over
    g in G: one sum of the packed rows of _CLASS_TABLES gives every unit
    c's mask.  A class c that is not a unit takes one evaluation per
    square class of a^2, and has no mask when M's prime p divides sd:
    a row of sd only reads w prime to d, whose w^2 is a unit mod M."""
    out = []
    for mod, classes, mr, nr, tile in residues:
        r = sd % mod
        masks = memo.get((mod, r))
        if masks is None:
            products, units, p, non_units = _CLASS_TABLES[mod]
            packed = sum([row for g, row in products
                          if (t := r * g % mod) * (t + mr) * (t + nr) % mod
                          in classes])
            low = (1 << mod) - 1
            masks = memo[mod, r] = {c: tile * (packed >> shift & low)
                                    for c, shift in units}
            if r % p:
                ts = [(r * q % mod, bits) for q, bits in classes.items()]
                for c in non_units:
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
