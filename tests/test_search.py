"""Differential tests: the sieved `Curve.search` against the row-by-row
grid loop it replaced, and the descent-factored search against the plain
scan of every |u| <= H before it."""

import itertools
import json
import math
import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concordia import sieve
from concordia.arith import (_SQ_CLASSES, _SQ_FILTERS, _prime_factors_up_to,
                             _squarefree_products)
from concordia.curves import Curve, Point
from concordia.sieve import (_SIEVE_MIN_AMAX, _coprime_masks,
                             _nonnegative_roots, _repunit, _row_patterns)


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


def _grid_nonnegative_roots(s: int, d: int, mw: int, nw: int, amax: int):
    """The a in [1, amax] with N = u(u+mw)(u+nw) >= 0 at u = s*d*a^2.

    With t = d*a^2 > 0, N = s*t*(t + s*mw)*(t + s*nw): t must lie outside
    (lo, hi) for s = 1 and inside [lo, hi] for s = -1, where lo <= hi are
    -s*mw and -s*nw.
    """
    lo, hi = sorted((-s * mw, -s * nw))
    # isqrt(v // d) is the last a with d*a^2 <= v (for v >= 0), and
    # isqrt(ceil(v/d) - 1) + 1 the first a with d*a^2 >= v (for v >= 1).
    if s > 0:
        return itertools.chain(
            range(1, min(amax, math.isqrt(max(lo, 0) // d)) + 1),
            range(math.isqrt(-(-max(hi, 1) // d) - 1) + 1, amax + 1))
    return range(math.isqrt(-(-max(lo, 1) // d) - 1) + 1,
                 min(amax, math.isqrt(max(hi, 0) // d)) + 1)


def grid_search(c: Curve, height: int) -> frozenset[Point]:
    """`Curve.search` without the sieve: every cell a of every row
    (d, s, w) in turn, through gcd(a, w), the _SQ_FILTERS and isqrt."""
    m, n = c.m, c.n
    gcd = math.gcd
    isqrt = math.isqrt
    filters = _SQ_FILTERS
    wmax = isqrt(height)
    primes = _prime_factors_up_to(abs(m * n), height)
    pts = {Point(0, 0, 1)}
    for d in _squarefree_products(primes, height):
        amax = isqrt(height // d)
        for w in range(1, wmax + 1):
            if gcd(d, w) != 1:
                continue
            w2 = w * w
            mw, nw = m * w2, n * w2
            for s in (1, -1):
                sd = s * d
                for a in _grid_nonnegative_roots(s, d, mw, nw, amax):
                    if w > 1 and gcd(a, w) != 1:
                        continue
                    u = sd * a * a
                    N = u * (u + mw) * (u + nw)
                    for mod, flags in filters:
                        if not flags[N % mod]:
                            break
                    else:
                        r = isqrt(N)
                        if r * r == N:
                            pts.add(Point(u, r, w))
                            pts.add(Point(u, -r, w))
    return frozenset(pts)


nonzero = st.integers(-1000, 1000).filter(bool)
# The least height bound whose d = 1 rows AND in the residue patterns.
sieve_threshold = _SIEVE_MIN_AMAX ** 2


@settings(max_examples=300, deadline=None)
@given(nonzero, nonzero, st.integers(1, 3000), st.integers(1, 60),
       st.integers(1, 80))
def test_sign_ranges_match_grid(m, n, d, amax, wmax):
    # The sign range of every w, against the grid's; once a row is
    # reported as fixed, every larger w gives that row.
    if m == n:
        n = -n
    for s in (1, -1):
        kept = None
        for w in range(1, wmax + 1):
            mw, nw = m * w * w, n * w * w
            row, fixed = _nonnegative_roots(s, d, mw, nw, amax)
            assert row == sum(1 << a for a in
                              _grid_nonnegative_roots(s, d, mw, nw, amax))
            if kept is not None:
                assert row == kept, w
            elif fixed:
                kept = row


@settings(max_examples=60, deadline=None)
@given(nonzero, nonzero, st.one_of(st.integers(1, sieve_threshold - 1),
                                   st.integers(sieve_threshold, 3 * 10 ** 4)))
def test_sieve_matches_grid(m, n, height):
    if m == n:
        n = -n
    c = Curve(m, n)
    assert c.search(height) == grid_search(c, height)


# The curves of acceptance criterion 5 and those of the golden CLI calls.
CRITERION_5_CURVES = [(-5, 5), (-6, 6), (-7, 7), (-31, 31), (-1, 3), (-2, 3),
                      (-5, 27), (-1, 8), (-64, 125), (-96, 1029), (1, 4),
                      (-20, 108)]


def _golden_curves():
    calls = json.loads((Path(__file__).parent / "cli_golden.json").read_text())
    curves = set()
    for call in calls:
        if call["stdout"].startswith("{"):
            curve = json.loads(call["stdout"]).get("curve")
            if curve:
                curves.add((curve["m"], curve["n"]))
    return sorted(curves)


@pytest.mark.parametrize("mn", sorted(set(CRITERION_5_CURVES)
                                      | set(_golden_curves())))
def test_sieve_matches_grid_on_pinned_curves(mn):
    c = Curve(*mn)
    assert c.search(10 ** 4) == grid_search(c, 10 ** 4)


@pytest.mark.parametrize("mn", [(-5, 5), (-6, 6), (-210, 330)])
def test_sieve_matches_grid_deep(mn):
    # wmax = 316 here: a coprimality mask that stopped at a smaller prime
    # would let through points x = u/w^2 that are not in lowest terms.
    c = Curve(*mn)
    assert c.search(10 ** 5) == grid_search(c, 10 ** 5)


def count_calls(monkeypatch) -> dict:
    """Counts of the calls to math.gcd and math.isqrt from now on."""
    calls = {"gcd": 0, "isqrt": 0}

    def counted(name, f):
        def g(*args):
            calls[name] += 1
            return f(*args)
        return g

    monkeypatch.setattr(math, "gcd", counted("gcd", math.gcd))
    monkeypatch.setattr(math, "isqrt", counted("isqrt", math.isqrt))
    return calls


def test_sieve_skips_the_cells(monkeypatch):
    # E(-6, 6) at H = 10^4 has the rows d = 1, 2, 3, 6 and w <= 100, all
    # sieved (amax >= 40).  The grid loop takes gcd(a, w) of each cell
    # (18,784 calls); the sieve takes one gcd(d, w) per pair of rows, 400
    # in all, and an isqrt for the sign bounds until a row stops changing
    # in w and for each cell that passes the six residue filters (1,745;
    # 2,037 with the bounds taken for every row).  Counting calls, not
    # timing them, keeps the test independent of the host's load.
    calls = count_calls(monkeypatch)
    c = Curve(-6, 6)
    found = c.search(10 ** 4)
    assert calls["gcd"] <= 400
    assert calls["isqrt"] <= 1745
    monkeypatch.undo()
    assert found == grid_search(c, 10 ** 4)


def test_patterned_rows_take_one_gcd_per_d_and_w(monkeypatch):
    # At H = 2000 the rows of E(-6, 6) have amax 44, 31, 25 and 18 for
    # d = 1, 2, 3, 6, so every d builds residue patterns.  The cells pass
    # through the coprimality masks: one gcd(d, w) per d and w <= 44, 176
    # in all, where a gcd(a, w) per cell takes 3,701.  The isqrt calls,
    # for the sign bounds until a row stops changing and for the cells that
    # pass the patterns, stay at 389, where bounds taken for every row
    # made 515 and the grid loop takes 737.
    calls = count_calls(monkeypatch)
    c = Curve(-6, 6)
    found = c.search(2000)
    assert calls["gcd"] == 176
    assert calls["isqrt"] <= 389
    monkeypatch.undo()
    assert found == grid_search(c, 2000)


lookups = {"patterns": 0, "cells": 0}


class CountingClasses(dict):
    """Square classes that count the membership tests of the patterns."""

    def __contains__(self, q):
        lookups["patterns"] += 1
        return dict.__contains__(self, q)


class CountingFlags(bytes):
    """A residue filter that counts the per-cell checks."""

    def __getitem__(self, i):
        lookups["cells"] += 1
        return bytes.__getitem__(self, i)


def count_residue_lookups(monkeypatch):
    """From now on, `lookups` counts the search's residue lookups."""
    lookups.update(patterns=0, cells=0)
    monkeypatch.setattr(sieve, "_SQ_CLASSES", {
        mod: CountingClasses(classes) for mod, classes in _SQ_CLASSES.items()})
    monkeypatch.setattr(sieve, "_SQ_FILTERS", [
        (mod, CountingFlags(flags)) for mod, flags in _SQ_FILTERS])


def count_lookups(monkeypatch) -> list:
    """From now on, `lookups` counts the search's residue lookups, and
    the returned list gets (sd, the pattern lookups, the keys (M, sd mod M)
    new to the search's memo) of each `_row_patterns` call, one per
    patterned (d, s)."""
    builds = []

    def counted(residues, sd, memo):
        before, known = lookups["patterns"], set(memo)
        out = _row_patterns(residues, sd, memo)
        builds.append((sd, lookups["patterns"] - before, set(memo) - known))
        return out

    count_residue_lookups(monkeypatch)
    monkeypatch.setattr(sieve, "_row_patterns", counted)
    return builds


def test_short_rows_check_the_residues_per_cell(monkeypatch):
    # At H = 500 the rows of E(-6, 6) have amax 22, 15, 12 and 9 for
    # d = 1, 2, 3, 6: only d = 1 builds residue patterns, and the cells of
    # the other rows take the _SQ_FILTERS check before isqrt.  One
    # gcd(d, w) per d and w <= 22 makes 88 calls, where a gcd(a, w) per
    # cell takes 924.  isqrt runs 127 times, where bounds taken for every
    # row made 187 and the grid loop takes 297.
    assert math.isqrt(500 // 2) < _SIEVE_MIN_AMAX <= math.isqrt(500)
    builds = count_lookups(monkeypatch)
    calls = count_calls(monkeypatch)
    c = Curve(-6, 6)
    found = c.search(500)
    assert calls["gcd"] == 88
    assert calls["isqrt"] <= 127
    assert len(builds) == 2
    assert lookups["cells"] > 0
    monkeypatch.undo()
    assert found == grid_search(c, 500)


# (prime, lookups for the unit classes of w^2, lookups for the classes
# that are not units) of each M: one evaluation per square class mod M
# serves every unit class, and a class that is not a unit takes one per
# square class of a^2, unless M's prime divides sd.
_LOOKUPS = {64: (2, 12, 4 * 12), 9: (3, 4, 4), 13: (13, 7, 7),
            11: (11, 6, 6), 7: (7, 4, 4), 5: (5, 3, 3)}


def test_patterns_take_one_lookup_per_square_class(monkeypatch):
    # Each new (M, sd mod M) evaluates F(sd*g) mod M once per square class
    # g of the prime powers 64, 9, 13, 11, 7 and 5: 12 + 4 + 7 + 6 + 4 + 3
    # = 36 lookups, which serve every unit class of w^2.  The classes of
    # w^2 that are not units, 0, 4, 16 and 36 mod 64 and 0 mod each odd
    # prime power, take one lookup per square class of a^2, but only for
    # the M whose prime does not divide sd: a row reads w prime to d,
    # whose w^2 is a unit mod such an M.  So 2 | sd saves 4*12 = 48
    # lookups, and 3, 13, 11, 7 and 5 save 4, 7, 6, 4 and 3: 108 lookups
    # for the first sd prime to 2*3*5*7*11*13, where one lookup per pair
    # of square classes took 12^2 + 4^2 + 7^2 + 6^2 + 4^2 + 3^2 = 270.  A
    # key (M, sd mod M) already in the search's memo takes no lookup.
    # Counting lookups, not timing them, keeps the test independent of
    # the host.
    builds = count_lookups(monkeypatch)
    c = Curve(-2310, 221)
    found = c.search(10 ** 4)
    seen = set()
    for sd, count, new in builds:
        assert new == {(mod, sd % mod) for mod in _SQ_CLASSES} - seen
        seen |= new
        assert count == sum(units + (non_units if sd % prime else 0)
                            for prime, units, non_units in
                            (_LOOKUPS[mod] for mod, r in new))
    assert builds[0][:2] == (1, 108)  # d = 1 comes first
    assert len(builds) == 40 and len(seen) == 82
    monkeypatch.undo()
    assert found == grid_search(c, 10 ** 4)


def test_each_residue_of_sd_is_evaluated_once_per_search(monkeypatch):
    # The masks of M depend on sd mod M alone.  The 40 patterned (d, s) of
    # E(-2310, 221) at H = 10^4 hold 82 distinct (M, sd mod M) of their
    # 240, and the search evaluates each once: 2,044 pattern lookups,
    # where evaluating the six moduli of every (d, s) took 3,356.
    count_residue_lookups(monkeypatch)
    c = Curve(-2310, 221)
    found = c.search(10 ** 4)
    assert lookups["patterns"] == 2044
    monkeypatch.undo()
    assert found == grid_search(c, 10 ** 4)


def test_a_sign_builds_its_patterns_at_its_first_non_empty_row(monkeypatch):
    # On E(-5, -7), u = -d*a^2 < 0 gives N = u(u - 5w^2)(u - 7w^2) < 0 at
    # every w: the rows of s = -1 are all empty.  So only the 4 signs
    # s = 1 of d = 1, 5, 7, 35 build patterns, where building both signs
    # of every d took 8.
    builds = count_lookups(monkeypatch)
    c = Curve(-5, -7)
    found = c.search(10 ** 4)
    assert sorted(sd for sd, count, new in builds) == [1, 5, 7, 35]
    monkeypatch.undo()
    assert found == grid_search(c, 10 ** 4)


def test_sign_ranges_are_kept_once_they_stop_changing(monkeypatch):
    # E(-2310, 221) at H = 10^4 has 2-descent rows (d, s, w) over the
    # squarefree d of the primes 2, 3, 5, 7, 11, 13 and 17, and w <= 100
    # prime to d.  A sign range is computed until it can no longer change
    # in w, then kept: 679 calls, where one call per row took 10,356.
    calls = []
    roots = sieve._nonnegative_roots

    def counted(*args):
        calls.append(args)
        return roots(*args)

    monkeypatch.setattr(sieve, "_nonnegative_roots", counted)
    c = Curve(-2310, 221)
    found = c.search(10 ** 4)
    assert len(calls) <= 679
    monkeypatch.undo()
    assert found == grid_search(c, 10 ** 4)


def pairwise_row_patterns(residues: list, sd: int) -> list:
    """`_row_patterns` by one evaluation of N mod M per pair of square
    classes, for every class c of w^2: the reference for the one that
    serves the unit classes c from one evaluation per square class."""
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


def assert_row_patterns_match_pairwise(residues: list, sd: int):
    """`_row_patterns` has a mask for exactly the classes c of w^2 that a
    row of sd reads, the units mod M and, when M's prime does not divide
    sd, the rest, and each is the pairwise reference's."""
    for (mod, got), (_, want) in zip(_row_patterns(residues, sd, {}),
                                     pairwise_row_patterns(residues, sd)):
        prime = min(p for p in range(2, mod + 1) if mod % p == 0)
        readable = {c for c in want if sd % prime or math.gcd(c, mod) == 1}
        assert got == {c: want[c] for c in readable}, (mod, sd)


@pytest.mark.parametrize("mod", [mod for mod in _SQ_CLASSES if mod % 2])
def test_row_patterns_match_pairwise_on_every_residue(mod):
    # Every (m, n, sd) mod M, untiled.
    classes = _SQ_CLASSES[mod]
    for mr, nr, sd in itertools.product(range(mod), repeat=3):
        assert_row_patterns_match_pairwise([(mod, classes, mr, nr, 1)], sd)


def test_row_patterns_match_pairwise_mod_64():
    # 2000 drawn (m, n, sd) mod 64 of the 64^3, tiled over 100 bits.
    draw = random.Random(64).randrange
    classes, tile = _SQ_CLASSES[64], _repunit(64, 100)
    for _ in range(2000):
        mr, nr, sd = draw(64), draw(64), draw(-10 ** 6, 10 ** 6)
        assert_row_patterns_match_pairwise([(64, classes, mr, nr, tile)], sd)


def _square_classes(mod: int) -> dict:
    """{q: the bits i < mod with i^2 = q mod mod}."""
    classes = {}
    for i in range(mod):
        classes[i * i % mod] = classes.get(i * i % mod, 0) | 1 << i
    return classes


def composite_row_patterns(m: int, n: int, sd: int, amax: int) -> list:
    """The residue patterns of a row of length amax over the composite
    moduli 64, 63, 65 and 11, each tiled to amax bits: the reference that
    `_row_patterns` over their prime-power factors must agree with."""
    out = []
    for mod in (64, 63, 65, 11):
        classes = _square_classes(mod)
        flags = bytes(i in classes for i in range(mod))
        mr, nr = m % mod, n % mod
        ts = [(sd * q % mod, bits) for q, bits in classes.items()]
        tile, masks = _repunit(mod, amax), {}
        for c in classes:
            mc, nc = mr * c % mod, nr * c % mod
            masks[c] = tile * sum(bits for t, bits in ts
                                  if flags[t * (t + mc) * (t + nc) % mod])
        out.append((mod, masks))
    return out


def test_prime_power_filters_accept_the_composite_residues():
    # The short rows' per-cell check reads the squares mod 64, 63, 65 and
    # 11, and the patterns the square classes of their prime-power
    # factors.  By the CRT, r is a square mod a composite iff it is one
    # mod every prime-power factor: check each r against both tables.
    filters = dict(_SQ_FILTERS)
    assert sorted(filters) == [11, 63, 64, 65]
    assert sorted(_SQ_CLASSES) == [5, 7, 9, 11, 13, 64]
    for mod, factors in ((64, (64,)), (63, (9, 7)), (65, (5, 13)),
                         (11, (11,))):
        squares = _square_classes(mod)
        for r in range(mod):
            assert filters[mod][r] == (r in squares)
            assert (r in squares) == all(r % f in _SQ_CLASSES[f]
                                         for f in factors)


@settings(max_examples=40, deadline=None)
@given(nonzero, nonzero, st.integers(-3000, 3000).filter(bool),
       st.integers(_SIEVE_MIN_AMAX, 120), st.data(), st.integers(1, 10 ** 9))
def test_row_patterns_match_composite_moduli(m, n, sd, wmax, data, w):
    # The residues of a search at H = wmax^2, with the tiles it builds at
    # wmax bits: cut to the bits a <= amax <= wmax, the AND of a row's
    # masks is the composite moduli's, for every w mod 63 * 65 and for
    # one large w, each prime to sd as the w of a row of sd are.
    if m == n:
        n = -n
    amax = data.draw(st.integers(1, wmax))
    calls = []

    def record(*args):
        calls.append(args)
        return _row_patterns(*args)

    with mock.patch.object(sieve, "_row_patterns", record):
        Curve(m, n).search(wmax * wmax)
    residues = calls[0][0]  # d = 1 has amax = wmax: it takes patterns
    new = _row_patterns(residues, sd, {})
    old = composite_row_patterns(m, n, sd, amax)
    row = (1 << amax + 1) - 1
    for v in (*range(63 * 65), w):
        if math.gcd(v, sd) != 1:
            continue
        masks = [row, row]
        for i, patterns in enumerate((new, old)):
            for mod, by_class in patterns:
                masks[i] &= by_class[v * v % mod]
        assert masks[0] == masks[1], v


@pytest.mark.parametrize("wmax", [*range(1, 61), 331])
def test_coprime_masks_match_gcd(wmax):
    # Every w <= wmax, w = 1 and the prime w among them, against math.gcd.
    # The masks stay non-negative and within wmax + 1 bits, so that ANDing
    # one into a row of d > 1 costs that row's bits.
    masks = _coprime_masks(wmax)
    for w in range(1, wmax + 1):
        assert 0 <= masks[w] < 1 << wmax + 1
        for a in range(wmax + 1):
            assert (masks[w] >> a & 1) == (math.gcd(a, w) == 1), (w, a)


def test_search_builds_the_coprimality_masks_once(monkeypatch):
    # E(-2310, 221) at H = 10^4 has 2-descent rows d over the primes 2, 3,
    # 5, 7, 11, 13 and 17.  One repunit per prime p <= 100 (25) builds the
    # coprimality masks for the whole search, and one per modulus (6)
    # the tiles of the residue patterns: 31 in all.  Masks rebuilt for
    # every d took 2,367, and tiles built per patterned (d, s) 48.
    calls = []
    repunit = sieve._repunit

    def counted(period, amax):
        calls.append(period)
        return repunit(period, amax)

    monkeypatch.setattr(sieve, "_repunit", counted)
    c = Curve(-2310, 221)
    found = c.search(10 ** 4)
    assert len(calls) == 31
    monkeypatch.undo()
    assert found == grid_search(c, 10 ** 4)


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
    # trial-divides up to H: the trial division reduces |mn| 11 times,
    # where one reduction per candidate up to H = 10^4 takes 5009.  The
    # count also takes the m % M and n % M of the residue patterns, 12 per
    # search, so 23 in all; taken again for each of the 8 patterned d, or
    # each (d, s), they would pass CAP.  The per-row // d of the sign
    # bounds are not counted: -s * mw drops the subclass.  Counting
    # reductions, not timing them, keeps the test independent of the
    # host's load.
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
