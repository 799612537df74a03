"""The integer kernel in `concordia.arith` against sympy, the reference
it replaced.  sympy is a test-only dependency; the package itself must
not import it."""

import math
import os
import subprocess
import sys

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import concordia
from concordia.arith import (_SMALL_PRIMES, _is_prime, divisors, factorint,
                             iroot_exact)
from concordia.cli import main

# Known primes above the deterministic Miller-Rabin range (3.3e24), so
# that primality of the large cofactor is decided by BPSW.
BIG_PRIMES = (2 ** 89 - 1, 2 ** 107 - 1, 2 ** 127 - 1, 2 ** 521 - 1,
              sympy.nextprime(10 ** 30))

small_primes = st.integers(3, 10 ** 6).map(sympy.prevprime)


def test_small_primes_match_trial_division():
    # The sieve of Eratosthenes against trial division of every p < 1000.
    assert _SMALL_PRIMES == [p for p in range(2, 1000) if all(
        p % q for q in range(2, math.isqrt(p) + 1))]


def agrees_with_sympy(n):
    ours = factorint(n)
    assert ours == sympy.factorint(n)
    assert list(ours) == sorted(ours)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 10 ** 20))
def test_factorint_random(n):
    agrees_with_sympy(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10 ** 12))
def test_divisors_random(n):
    assert divisors(n) == sympy.divisors(n)


@settings(max_examples=200, deadline=None)
@given(small_primes, st.integers(1, 30))
def test_prime_powers(p, e):
    agrees_with_sympy(p ** e)
    assert divisors(p ** e) == [p ** k for k in range(e + 1)]


@settings(max_examples=5, deadline=None)
@given(st.integers(10 ** 11, 10 ** 12), st.integers(10 ** 11, 10 ** 12))
def test_semiprimes_with_12_digit_factors(a, b):
    p, q = sympy.nextprime(a), sympy.nextprime(b)
    assert factorint(p * q) == sympy.factorint(p * q)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(BIG_PRIMES), st.integers(1, 3),
       st.integers(1, 10 ** 9))
def test_beyond_deterministic_miller_rabin(p, e, cofactor):
    n = p ** e * cofactor
    assert n > 3317044064679887385961981
    agrees_with_sympy(n)


@pytest.mark.parametrize("n", [
    (2 ** 61 - 1) * (2 ** 89 - 1),
    (2 ** 89 - 1) ** 2,
    (2 ** 89 - 1) * (2 ** 107 - 1),
    2 ** 127 - 1,
    3317044064679887385961981,       # the bound itself: composite
    318665857834031151167461,        # strong pseudoprime to bases 2..37
    3825123056546413051,             # strong pseudoprime to bases 2..23
])
def test_primality_matches_sympy(n):
    assert _is_prime(n) == sympy.isprime(n)


def test_primality_small_range():
    assert [n for n in range(10 ** 4) if _is_prime(n)] == \
        list(sympy.primerange(10 ** 4))


def test_factorint_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorint(0)
    assert factorint(1) == {} and divisors(1) == [1]


def test_rho_step_cap_raises(monkeypatch):
    monkeypatch.setattr("concordia.arith._RHO_STEP_LIMIT", 1 << 12)
    with pytest.raises(ValueError, match="no factor in 4096 steps"):
        factorint((2 ** 61 - 1) * (2 ** 89 - 1))
    # a 5-digit prime factor is still found well inside the lowered cap
    assert factorint(10007 * (2 ** 89 - 1)) == {10007: 1, 2 ** 89 - 1: 1}


@pytest.mark.parametrize("exponents,cap", [
    ((61, 89, 107, 127), 3080),  # 384 bits
    ((127, 521), 1081),  # 648 bits
    ((521, 607), 356),  # 1128 bits
])
def test_rho_step_cap_shrinks_above_333_bits(exponents, cap, monkeypatch):
    # A step costs about bits^2, so the cap 4096 of the test above scales
    # by (333 / bits)^2 on products of Mersenne primes past 333 bits.
    monkeypatch.setattr("concordia.arith._RHO_STEP_LIMIT", 1 << 12)
    n = 1
    for e in exponents:
        n *= 2 ** e - 1
    with pytest.raises(ValueError, match=f"no factor in {cap} steps$"):
        factorint(n)


def test_cli_import_leaves_sympy_out():
    code = "import sys, concordia.cli; print('sympy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(concordia.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_oversized_part_is_refused_before_primality(monkeypatch, capsys):
    # 10^4299 + 1 keeps about 14,000 bits after trial division; one
    # Miller-Rabin round alone would take seconds at that size.
    def unreachable(*args):
        raise AssertionError("primality test or rho ran")

    monkeypatch.setattr("concordia.arith._is_prime", unreachable)
    monkeypatch.setattr("concordia.arith._pollard_brent", unreachable)
    with pytest.raises(ValueError, match="cannot factor a 14272-bit integer"):
        factorint(10 ** 4299 + 1)
    assert main(["classify", "--p", str(10 ** 4299), "--q", "1",
                 "--k", str(10 ** 4299 + 1)]) == 1
    assert "cannot factor a" in capsys.readouterr().err
    # the limit applies to what trial division leaves, not to n
    assert factorint(10 ** 4299) == {2: 4299, 5: 4299}


def agrees_with_integer_nthroot(v, k):
    root, exact = sympy.integer_nthroot(v, k)
    assert iroot_exact(v, k) == (root if exact else None)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(0, 1000), st.integers(2 ** 126, 2 ** 600)),
       st.integers(2, 8), st.sampled_from((-1, 0, 1)))
def test_iroot_exact_near_powers(r, k, offset):
    v = r ** k + offset
    assume(v >= 0)
    agrees_with_integer_nthroot(v, k)
    if offset == 0:
        assert iroot_exact(v, k) == r


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 1200), st.integers(2, 8))
def test_iroot_exact_random(v, k):
    agrees_with_integer_nthroot(v, k)
    assert iroot_exact(-v - 1, k) is None
