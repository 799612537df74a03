"""Differential tests: the descent-factored `Curve.search` against the
plain scan of every |u| <= H it replaced."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concordia.arith import _SQ_FILTERS, _prime_factors_up_to
from concordia.curves import Curve, Point


def reference_search(c: Curve, height: int) -> frozenset[Point]:
    """Every affine point with x = u/w^2, gcd(u,w)=1, |u| <= H, w^2 <= H,
    by testing all 2H+1 values of u for each w: O(H^1.5)."""
    m, n = c.m, c.n
    pts = set()
    for w in range(1, math.isqrt(height) + 1):
        w2 = w * w
        mw, nw = m * w2, n * w2
        for u in range(-height, height + 1):
            if w > 1 and math.gcd(u, w) != 1:
                continue
            N = u * (u + mw) * (u + nw)
            if N < 0:
                continue
            if N == 0:
                pts.add(Point(u, 0, w))
                continue
            if not all(flags[N % mod] for mod, flags in _SQ_FILTERS):
                continue
            r = math.isqrt(N)
            if r * r == N:
                pts.add(Point(u, r, w))  # u/w^2 and r/w^3 in lowest terms
                pts.add(Point(u, -r, w))
    return frozenset(pts)


nonzero = st.integers(-1000, 1000).filter(bool)


@settings(max_examples=150, deadline=None)
@given(nonzero, nonzero, st.integers(1, 2000))
def test_search_matches_reference(m, n, height):
    if m == n:
        n = -n
    c = Curve(m, n)
    assert c.search(height) == reference_search(c, height)


def test_search_matches_reference_many_small_primes():
    for m, n in ((-210, 210), (-2 * 3 * 5 * 7 * 11, 13 * 17),
                 (6, 210)):
        c = Curve(m, n)
        assert c.search(10 ** 4) == reference_search(c, 10 ** 4)


class TooManyReductions(Exception):
    pass


class CountingInt(int):
    """An int that counts the reductions (% and //) made of it and raises
    TooManyReductions past CAP of them.  // keeps the type, so the count
    follows v as it is divided down, and so do * and abs(), so that it
    follows m and n into |mn|."""

    CAP = 50
    reductions = 0

    def _count(self):
        CountingInt.reductions += 1
        if CountingInt.reductions > CountingInt.CAP:
            raise TooManyReductions

    def __mod__(self, other):
        self._count()
        return int.__mod__(self, other)

    def __floordiv__(self, other):
        self._count()
        return CountingInt(int.__floordiv__(self, other))

    def __mul__(self, other):
        product = int.__mul__(self, other)
        return product if product is NotImplemented else CountingInt(product)

    def __abs__(self):
        return CountingInt(int.__abs__(self))


def test_search_does_not_factor_mn(monkeypatch):
    # |mn| is about 10^210 with the primes 2^607 - 1 and 2^89 - 1, far past
    # the height bound and past what Pollard rho splits.  search only
    # trial-divides up to H: it reduces |mn| 11 times in all, where one
    # reduction per candidate up to H = 10^4 takes 5009.  Counting them,
    # not timing them, keeps the test independent of the host's load.
    def refuse(v):
        raise AssertionError("search must not factor")

    monkeypatch.setattr("concordia.arith.factorint", refuse)
    monkeypatch.setattr("concordia.arith.divisors", refuse)
    c = Curve(CountingInt(-6 * (2 ** 607 - 1)),
              CountingInt(5 * (2 ** 89 - 1)))
    CountingInt.reductions = 0
    found = c.search(10 ** 4)
    assert CountingInt.reductions <= CountingInt.CAP
    assert c.search(300) == reference_search(c, 300)
    assert reference_search(c, 300) <= found


def reference_prime_factors_up_to(v: int, limit: int) -> list[int]:
    """The primes p <= limit dividing v, by reducing v once per
    candidate."""
    primes = []
    p = 2
    while p <= limit and p * p <= v:
        if v % p == 0:
            primes.append(p)
            while v % p == 0:
                v //= p
        p += 1 if p == 2 else 2
    if 1 < v <= limit:
        primes.append(v)
    return primes


# Products of small primes and squares, and of primes next to 384 and 768,
# the first ends of the blocks of 6k +- 1 candidates.
factors = st.lists(st.sampled_from(
    [2, 3, 4, 5, 7, 9, 25, 49, 383, 389, 397, 761, 769, 773, 11447, 65537,
     2 ** 31 - 1]), max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(1, 10 ** 6), st.integers(1, 10 ** 30)),
       factors, st.integers(1, 2000))
def test_prime_factors_up_to_matches_reference(base, extra, limit):
    v = base * math.prod(extra)
    assert _prime_factors_up_to(v, limit) == \
        reference_prime_factors_up_to(v, limit)


def test_prime_factors_up_to_large_v_is_fast():
    # A 4001-digit v: the blocked gcd reduces it 8 times in all, where
    # reducing it once per candidate up to 10^6 takes 500,006 reductions.
    # Counting them, not timing them, keeps the test independent of the
    # host's load.
    v = 3 * (2 ** 13289 - 1)
    CountingInt.reductions = 0
    assert _prime_factors_up_to(CountingInt(v), 10 ** 6) == [3, 11447]
    assert CountingInt.reductions <= CountingInt.CAP
    CountingInt.reductions = 0
    with pytest.raises(TooManyReductions):
        reference_prime_factors_up_to(CountingInt(v), 10 ** 6)
