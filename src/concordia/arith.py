"""The exact integer kernel: square and k-th roots, primality, factoring
and divisors, trial division up to a bound, and the gcd helpers
(`_Coprime`, `_smooth_gcd`) of the group law and the quadric maps.
Nothing here knows about curves."""

import itertools
import math

# {M: {q: the bits r < M with r^2 = q mod M}} for prime powers M, most
# selective first: the square classes that `Curve.search` tiles.  And the
# flags of the squares mod 64, 63, 65 and 11, which reject non-squares
# before a big-integer isqrt: by the CRT they accept what those prime
# powers accept, in at most 4 reductions, not 6.
_SQ_CLASSES = {}
for _mod in (64, 9, 13, 11, 7, 5):
    _classes = {}
    for _i in range(_mod):
        _classes[_i * _i % _mod] = _classes.get(_i * _i % _mod, 0) | 1 << _i
    _SQ_CLASSES[_mod] = _classes
_SQ_FILTERS = []
for _mod in (64, 63, 65, 11):
    _squares = {_i * _i % _mod for _i in range(_mod)}
    _SQ_FILTERS.append((_mod, bytes(_i in _squares for _i in range(_mod))))


def isqrt_exact(v: int) -> int | None:
    """Integer square root of v, or None if v is not a perfect square."""
    if v < 0:
        return None
    r = math.isqrt(v)
    return r if r * r == v else None


# -- factoring ----------------------------------------------------------

# The primes below 1000, by the sieve of Eratosthenes.
_flags = bytearray([0, 0]) + bytes([1]) * 998
for _p in range(2, 32):
    if _flags[_p]:
        _flags[_p * _p::_p] = bytes(len(range(_p * _p, 1000, _p)))
_SMALL_PRIMES = list(itertools.compress(range(1000), _flags))
# Miller-Rabin to the first 13 prime bases is deterministic below
# _MR_LIMIT (Sorenson & Webster 2015); above it _is_prime runs BPSW.
_MR_BASES = _SMALL_PRIMES[:13]
_MR_LIMIT = 3317044064679887385961981
# rho takes about sqrt(p) steps to split off a prime p; this cap finds
# factors up to about 10^12 with a wide margin and ends a hopeless walk in
# seconds (about 1 us a step at 40 digits) instead of hanging.  A step costs
# about bits^2, so above _RHO_FULL_BITS (100 digits) `_pollard_brent` scales
# the cap by (_RHO_FULL_BITS/bits)^2: a walk then ends in a bounded time.
_RHO_STEP_LIMIT = 1 << 23
_RHO_FULL_BITS = 333
# factorint refuses a longer part left after trial division: one Miller-Rabin
# round takes 0.035 s at 2048 bits and 9 s at 4300 digits (2-vCPU host).
_FACTOR_BIT_LIMIT = 2048
# Candidate pairs 6k +- 1 per gcd in _prime_factors_up_to: at H = 10^6 and a
# 4000-digit v, blocks of 32 to 256 pairs all take 0.23-0.28 s.
_TRIAL_BLOCK = 64


def _strong_probable_prime(n: int, a: int) -> bool:
    """One Miller-Rabin round: is odd n > a a strong probable prime to
    base a?"""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (P = 1), for odd n
    above _MR_LIMIT that is not a perfect square."""
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    U, V, Qk = 1, 1, Q  # U_k, V_k, Q^k for k = 1
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _is_prime(n: int) -> bool:
    """Trial division, then Miller-Rabin below _MR_LIMIT, BPSW above."""
    for p in _SMALL_PRIMES:
        if p * p > n:
            return n > 1
        if n % p == 0:
            return n == p
    if n < _MR_LIMIT:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return (_strong_probable_prime(n, 2) and isqrt_exact(n) is None
            and _strong_lucas_probable_prime(n))


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent 1980); ValueError
    once the walks have taken _RHO_STEP_LIMIT steps, scaled down by
    (_RHO_FULL_BITS / bits)^2 above _RHO_FULL_BITS bits."""
    bits = max(_RHO_FULL_BITS, n.bit_length())
    limit = _RHO_STEP_LIMIT * _RHO_FULL_BITS ** 2 // bits ** 2
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > limit:
                raise ValueError(
                    f"cannot factor a {n.bit_length()}-bit integer: Pollard "
                    f"rho found no factor in {limit} steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def iroot_exact(v: int, k: int) -> int | None:
    """Integer k-th root of v, or None if v < 0 or v is not a k-th power;
    Newton steps from above, rounded down, end on floor(v ** (1/k))."""
    if v < 2:
        return v if v >= 0 else None
    r = 1 << -(-v.bit_length() // k)
    while True:
        s = ((k - 1) * r + v // r ** (k - 1)) // k
        if s >= r:
            return r if r ** k == v else None
        r = s


def _split(n: int) -> list[int]:
    """Factors of a composite n without prime factors below 1000: k equal
    roots if n is a perfect k-th power (rho would need about sqrt(root)
    steps there), else a Pollard-Brent split."""
    for k in _SMALL_PRIMES:
        if 1000 ** k > n:
            break
        r = iroot_exact(n, k)
        if r is not None:
            return [r] * k
    g = _pollard_brent(n)
    return [g, n // g]


def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, primes ascending."""
    if n < 1:
        raise ValueError("factorint requires n >= 1")
    found = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            found[p] = found.get(p, 0) + 1
    if n.bit_length() > _FACTOR_BIT_LIMIT:
        raise ValueError(f"cannot factor a {n.bit_length()}-bit integer: "
                         f"over {_FACTOR_BIT_LIMIT} bits after trial division")
    pending = [n] if n > 1 else []
    while pending:
        f = pending.pop()
        if _is_prime(f):
            found[f] = found.get(f, 0) + 1
        else:
            pending += _split(f)
    return dict(sorted(found.items()))


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending: the run for p^k is the
    run for p^(k-1) times p, and a sort per prime merges the e + 1 runs."""
    divs = [1]
    for p, e in factorint(n).items():
        run = divs
        for _ in range(e):
            run = [d * p for d in run]
            divs += run
        divs.sort()
    return divs


class _Coprime:
    """n/d with gcd(n, d) = 1 and d > 0.  Registered as a
    `numbers.Rational`, whose numerator and denominator are in lowest
    terms by contract, so `Fraction(_Coprime(n, d))` takes them as they
    are instead of spending a gcd to find the common factor 1.
    `curves._fraction_class` registers it on its first call, which the
    `Fraction` views of `Point` and `geometry.APTriple` make, so that a
    process that builds no rational never imports `numbers`."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, n: int, d: int):
        self.numerator, self.denominator = n, d


def _smooth_gcd(N: int, *vals: int) -> int:
    """The N-smooth part of gcd(*vals), for N != 0 and values not all
    zero: the part made of the primes of N.  That is the whole gcd when
    every common prime factor of the values divides N.

    Repeats d = gcd(N, *vals), which costs one long division of each
    value by the small N, divides d out of the values and multiplies it
    into the result, until d = 1.  Stopping there is exact: a prime of N
    left common to the reduced values would divide d.
    """
    g = 1
    d = math.gcd(N, *vals)
    while d > 1:
        g *= d
        vals = [v // d for v in vals]
        d = math.gcd(N, *vals)
    return g


def _prime_factors_up_to(v: int, limit: int) -> list[int]:
    """The primes p <= limit dividing v >= 1, ascending, by trial division
    alone: the work is bounded by limit however large v is.

    Past 2 and 3 the candidates are the c = 6k +- 1, in blocks of
    2*_TRIAL_BLOCK: one gcd of v with the product of a block costs far
    less than reducing a large v once per candidate, and only the primes
    it shows to divide v reduce v.  A composite candidate never divides
    the gcd, because its prime factors are smaller and already divided
    out of both.
    """
    primes = []
    for p in (2, 3):
        if p <= limit and v % p == 0:
            primes.append(p)
            while v % p == 0:
                v //= p
    top = min(limit, math.isqrt(v))
    lo = 5
    while lo <= top:
        hi = min(top + 1, lo + 6 * _TRIAL_BLOCK)
        g = math.gcd(v, math.prod(range(lo, hi, 6))
                     * math.prod(range(lo + 2, hi, 6)))
        if g > 1:
            for c in sorted((*range(lo, hi, 6), *range(lo + 2, hi, 6))):
                if g % c == 0:
                    primes.append(c)
                    while g % c == 0:
                        g //= c
                    while v % c == 0:
                        v //= c
                    top = min(limit, math.isqrt(v))
        lo += 6 * _TRIAL_BLOCK
    if 1 < v <= limit:
        primes.append(v)
    return primes


def _squarefree_products(primes: list[int], limit: int):
    """Every product of distinct members of `primes` (ascending) that is
    at most limit, 1 included, generated depth-first."""
    stack = [(1, 0)]
    while stack:
        d, i = stack.pop()
        yield d
        for j in range(i, len(primes)):
            e = d * primes[j]
            if e > limit:
                break
            stack.append((e, j + 1))
