"""Factorization of an arbitrary finite abelian group into cyclic p-groups.

One loop, primes in ascending order: by the primary decomposition
G = G_p1 x ... x G_pr, each p-primary block G_p is the array of g-indices,
in g's roster order, whose element order divides the maximal p-power part
of |G|; the loop splits off <a> for the first a of maximal order in it and
continues on the complement (`pgroup._complement`) until that is trivial.
No block or complement is built as a group.  `abelian_factorization` is
the one checked entry: it checks g once, and the result once, when the
explicit isomorphism onto the direct product of the factors is verified
before it is returned.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import abelianp, cyclic
from .errors import DomainError
from .gmaps import GroupMap, classify, homomorphism_check
from .numtheory import least_prime_divisor, max_power_dividing
from .pgroup import _complement
from .products import direct_product, product_list_map


def _cyclic_subgroup_list(g):
    """The cyclic p-subgroups of an abelian g whose direct product is g;
    the caller checks that g is abelian, which makes each block an abelian
    p-group.  Blocks come out by ascending prime and, within a block, with
    non-increasing orders; the trivial group yields no factors.  Each
    factor is built once, from g, listing the powers of its generator.
    """
    factors, n = (), g.order
    while n > 1:
        p = least_prime_divisor(n)
        m = max_power_dividing(p, n)
        r = np.flatnonzero(m % g._orders == 0)
        while len(r) > 1:
            ia = int(r[np.argmax(g._orders[r])])
            factors += (cyclic(g.roster[ia], g),)
            r = _complement(ia, p, g, r)
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
    factors = _cyclic_subgroup_list(g)
    iso = product_list_map(factors, g)
    dp = direct_product(factors)
    witness = homomorphism_check(iso, dp, g)
    if witness is not None or not classify(iso, dp, g).isomorphism:
        raise RuntimeError(f"internal error: factorization map not an isomorphism ({witness})")
    return AbelianFactorization(factors, iso)
