"""Exact integer prerequisites: Bezout gcd, primes, prime powers.

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


def gcd_bezout(m, n):
    """Return (g, r, s) with g = gcd(m, n) and r*n + s*m = g.

    The coefficient roles (r against n, s against m) match the splitting
    identity used by the relatively-prime subgroup decomposition.
    """
    check_nat(m, "m", minimum=1)
    check_nat(n, "n", minimum=1)
    # extended Euclid on (n, m): old_r tracks gcd, (old_x, old_y) track
    # coefficients with old_x*n + old_y*m = old_r
    old_r, r = n, m
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


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
