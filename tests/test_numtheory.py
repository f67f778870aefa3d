import pytest
from hypothesis import given, strategies as st

from grouptables.errors import DomainError
from grouptables.numtheory import (
    least_prime_divisor,
    max_power_dividing,
    powerp,
    primep,
)

from lemmas import gcd_bezout
from oracles import naive_gcd, naive_primes_upto


def test_gcd_bezout_examples():
    g, r, s = gcd_bezout(4, 3)
    assert g == 1 and r * 3 + s * 4 == 1
    g, r, s = gcd_bezout(6, 6)
    assert g == 6 and r * 6 + s * 6 == 6
    g, _, _ = gcd_bezout(8, 12)
    assert g == 4


@given(st.integers(1, 1000), st.integers(1, 1000))
def test_gcd_bezout_identity(m, n):
    g, r, s = gcd_bezout(m, n)
    assert g == naive_gcd(m, n)
    assert m % g == 0 and n % g == 0
    assert r * n + s * m == g


def test_least_prime_divisor():
    assert least_prime_divisor(12) == 2
    assert least_prime_divisor(35) == 5
    assert least_prime_divisor(7) == 7


def test_least_prime_divisor_against_trial_division():
    primes = naive_primes_upto(1000)
    for n in range(2, 1001):
        p = least_prime_divisor(n)
        assert p in primes and n % p == 0
        assert all(n % q for q in primes if q < p)


def test_powerp():
    assert powerp(8, 2)
    assert powerp(1, 3)
    assert not powerp(12, 2)
    with pytest.raises(DomainError):
        powerp(8, 4)


def test_max_power_dividing():
    assert max_power_dividing(2, 12) == 4
    assert max_power_dividing(3, 12) == 3
    assert max_power_dividing(5, 12) == 1


@given(st.integers(1, 2000))
def test_max_power_dividing_property(n):
    for p in (2, 3, 5):
        m = max_power_dividing(p, n)
        assert n % m == 0
        assert (n // m) % p != 0
        assert powerp(m, p)


def test_primep_against_sieve():
    primes = set(naive_primes_upto(500))
    for n in range(501):
        assert primep(n) == (n in primes)


def test_guard_rejects_huge():
    with pytest.raises(DomainError):
        max_power_dividing(2, 2**40)
