"""Exact integer prerequisites: primes and prime powers.

All inputs are guarded to the range [0, 2^31]; group orders at desk scale
never come close, and the guard catches runaway direct-product orders.
"""
from __future__ import annotations

from .errors import DomainError

MAX_NAT = 2**31


def check_nat(n, name="n", minimum=0):
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {n}")
    if n > MAX_NAT:
        raise DomainError(f"{name} exceeds the 2^31 guard: {n}")
    return n


def primep(p):
    """Primality: p >= 2 is its own least prime divisor."""
    return check_nat(p, "p") >= 2 and least_prime_divisor(p) == p


def least_prime_divisor(n):
    check_nat(n, "n", minimum=2)
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def powerp(n, p):
    """True iff n is a power of the prime p (n = 1 counts as p^0)."""
    return max_power_dividing(p, n) == n


def max_power_dividing(p, n):
    """The largest power of the prime p that divides n."""
    check_nat(n, "n", minimum=1)
    if not primep(p):
        raise DomainError(f"p must be prime, got {p}")
    m = 1
    while n % p == 0:
        n //= p
        m *= p
    return m
