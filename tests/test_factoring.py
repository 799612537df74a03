"""The integer kernel in `concordia.curves` against sympy, the reference
it replaced.  sympy is a test-only dependency; the package itself must
not import it."""

import os
import subprocess
import sys

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import concordia
from concordia.curves import _is_prime, divisors, factorint

# Known primes above the deterministic Miller-Rabin range (3.3e24), so
# that primality of the large cofactor is decided by BPSW.
BIG_PRIMES = (2 ** 89 - 1, 2 ** 107 - 1, 2 ** 127 - 1, 2 ** 521 - 1,
              sympy.nextprime(10 ** 30))

small_primes = st.integers(3, 10 ** 6).map(sympy.prevprime)


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
    monkeypatch.setattr("concordia.curves._RHO_STEP_LIMIT", 1 << 12)
    with pytest.raises(ValueError, match="no factor in 4096 steps"):
        factorint((2 ** 61 - 1) * (2 ** 89 - 1))
    # a 5-digit prime factor is still found well inside the lowered cap
    assert factorint(10007 * (2 ** 89 - 1)) == {10007: 1, 2 ** 89 - 1: 1}


def test_cli_import_leaves_sympy_out():
    code = "import sys, concordia.cli; print('sympy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(concordia.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
