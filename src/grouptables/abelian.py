"""Factorization of an arbitrary finite abelian group into cyclic p-groups.

The group order is peeled one prime block at a time: split off the subgroup
of elements whose order divides the maximal p-power part, factor it with the
p-group machinery, and continue on the relatively-prime complement.
Arguments are checked at each public entry; the result is checked once,
when the explicit isomorphism onto the direct product of the factors is
verified before it is returned.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import abelianp, subgroup
from .errors import DomainError
from .gmaps import GroupMap, classify, homomorphism_check
from .numtheory import gcd_bezout, least_prime_divisor, max_power_dividing
from .pgroup import cyclic_p_subgroup_list
from .products import direct_product, product_list_map


def subgroup_ord_dividing(m, g):
    """The subgroup of elements whose order divides m.  In an abelian g they
    always form one; elsewhere subgroup() rejects them unless closed."""
    if m < 1:
        raise DomainError("m must be >= 1")
    orders = g._orders.tolist()
    return subgroup(g, tuple(x for x, k in zip(g.roster, orders) if m % k == 0))


def rel_prime_split(g, m, n):
    """Split an abelian g of order m*n (gcd(m, n) = 1) into subgroups of
    orders exactly m and n; coprimality makes them meet trivially."""
    gcd, _, _ = gcd_bezout(m, n)
    if gcd != 1:
        raise DomainError(f"m and n must be relatively prime, gcd = {gcd}")
    if g.order != m * n:
        raise DomainError("order of g must equal m * n")
    return subgroup_ord_dividing(m, g), subgroup_ord_dividing(n, g)


def bezout_decomposition(g, x, m, n):
    """Write x = h_part * k_part with the parts of order dividing m and n.

    Uses r*n + s*m = 1; negative coefficients go through the inverse.
    """
    _, r, s = gcd_bezout(m, n)
    return g.power(x, r * n), g.power(x, s * m)


def cyclic_subgroup_list(g):
    """The full list of cyclic p-subgroups factoring an abelian g.

    Blocks come out in ascending least-prime order; within a block, orders
    are non-increasing.  The trivial group yields the empty list.
    """
    if not abelianp(g):
        raise DomainError("cyclic-subgroup-list needs an abelian group")
    factors = ()
    while g.order > 1:
        p = least_prime_divisor(g.order)
        m = max_power_dividing(p, g.order)
        if m == g.order:
            return factors + cyclic_p_subgroup_list(p, g).factors
        h, g = rel_prime_split(g, m, g.order // m)
        factors += cyclic_p_subgroup_list(p, h).factors
    return factors


@dataclass(frozen=True)
class AbelianFactorization:
    factors: tuple
    iso: GroupMap  # verified isomorphism direct_product(factors) -> the group

    @property
    def orders(self):
        return tuple(h.order for h in self.factors)


def abelian_factorization(g):
    """Factor an abelian group of order > 1 and verify the isomorphism."""
    if not abelianp(g):
        raise DomainError("abelian-factorization needs an abelian group")
    if g.order <= 1:
        raise DomainError("abelian-factorization needs order > 1")
    factors = cyclic_subgroup_list(g)
    iso = product_list_map(list(factors), g)
    dp = direct_product(list(factors))
    witness = homomorphism_check(iso, dp, g)
    if witness is not None or not classify(iso, dp, g).isomorphism:
        raise RuntimeError(f"internal error: factorization map not an isomorphism ({witness})")
    return AbelianFactorization(tuple(factors), iso)
