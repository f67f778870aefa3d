"""Factorization of an arbitrary finite abelian group into cyclic p-groups.

By the primary decomposition G = G_p1 x ... x G_pr, each p-primary block
G_p is the subgroup of elements whose order divides the maximal p-power
part of |G|.  Each block is read off the input group itself, primes in
ascending order, and factored with the p-group machinery.
Arguments are checked at each public entry; the result is checked once,
when the explicit isomorphism onto the direct product of the factors is
verified before it is returned.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import abelianp, subgroup
from .errors import DomainError
from .gmaps import GroupMap, classify, homomorphism_check
from .numtheory import least_prime_divisor, max_power_dividing
from .pgroup import cyclic_p_subgroup_list
from .products import direct_product, product_list_map


def subgroup_ord_dividing(m, g):
    """The subgroup of elements whose order divides m.  In an abelian g they
    always form one; elsewhere subgroup() rejects them unless closed."""
    if m < 1:
        raise DomainError("m must be >= 1")
    orders = g._orders.tolist()
    return subgroup(g, tuple(x for x, k in zip(g.roster, orders) if m % k == 0))


def cyclic_subgroup_list(g):
    """The full list of cyclic p-subgroups factoring an abelian g.

    Blocks come out by ascending prime, each read off g itself; within a
    block, orders are non-increasing.  The trivial group yields the empty
    list.
    """
    if not abelianp(g):
        raise DomainError("cyclic-subgroup-list needs an abelian group")
    factors, n = (), g.order
    while n > 1:
        p = least_prime_divisor(n)
        m = max_power_dividing(p, n)
        factors += cyclic_p_subgroup_list(p, subgroup_ord_dividing(m, g))
        n //= m
    return factors


@dataclass(frozen=True)
class AbelianFactorization:
    factors: tuple
    iso: GroupMap  # verified isomorphism direct_product(factors) -> the group


def abelian_factorization(g):
    """Factor an abelian group of order > 1 and verify the isomorphism."""
    if not abelianp(g):
        raise DomainError("abelian-factorization needs an abelian group")
    if g.order <= 1:
        raise DomainError("abelian-factorization needs order > 1")
    factors = cyclic_subgroup_list(g)
    iso = product_list_map(factors, g)
    dp = direct_product(factors)
    witness = homomorphism_check(iso, dp, g)
    if witness is not None or not classify(iso, dp, g).isomorphism:
        raise RuntimeError(f"internal error: factorization map not an isomorphism ({witness})")
    return AbelianFactorization(factors, iso)
