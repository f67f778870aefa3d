"""Factorization of an arbitrary finite abelian group into cyclic p-groups.

By the primary decomposition G = G_p1 x ... x G_pr, each p-primary block
G_p is the subgroup of elements whose order divides the maximal p-power
part of |G|.  Each block is read off the input group itself, primes in
ascending order, as the array of its g-indices in g's roster order, and
factored with the p-group loop; no block is built as a group.
Arguments are checked at each public entry; the result is checked once,
when the explicit isomorphism onto the direct product of the factors is
verified before it is returned.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import abelianp
from .errors import DomainError
from .gmaps import GroupMap, classify, homomorphism_check
from .numtheory import least_prime_divisor, max_power_dividing
from .pgroup import _cyclic_factors
from .products import direct_product, product_list_map


def cyclic_subgroup_list(g):
    """The full list of cyclic p-subgroups factoring an abelian g.

    Blocks come out by ascending prime, each the g-indices whose element
    order divides the block order; within a block, orders are
    non-increasing.  The trivial group yields the empty list.
    """
    if not abelianp(g):
        raise DomainError("cyclic-subgroup-list needs an abelian group")
    factors, n = (), g.order
    while n > 1:
        p = least_prime_divisor(n)
        m = max_power_dividing(p, n)
        factors += _cyclic_factors(p, g, np.flatnonzero(m % g._orders == 0))
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
