"""Uniqueness of cyclic p-group factorizations up to permutation of orders.

The contraction step takes p-th powers, which divides the p-divisible
orders by p and collapses order-p factors.  An isomorphism dp(l) -> dp(m)
restricts to one between the p-th power subgroups, since phi(x^p) =
phi(x)^p, and those are the products of the contracted lists.  Induction
on the contracted order lists forces the order multisets to agree.

The lists are checked once, at entry: a p-th power of a cyclic p-group is
again one or is trivial and dropped, so no later level can fail that check.
The products are built once, at entry; the given map is checked on their
p-th power subgroups at every level, as it is the certificate.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from .core import abelianp, subgroup
from .errors import DomainError
from .gmaps import classify, homomorphism_check
from .numtheory import least_prime_divisor
from .pgroup import cyclic_p_group_list_p
from .products import direct_product


# ---------------------------------------------------------------------------
# multisets


def permutationp(l, m):
    """True iff m is a rearrangement of l."""
    return Counter(l) == Counter(m)


def hits_diff(l, m):
    """First value (scanning l then m) whose occurrence counts differ, or None."""
    l, m = list(l), list(m)
    cl, cm = Counter(l), Counter(m)
    for x in l + m:
        if cl[x] != cm[x]:
            return x
    return None


def orders(l):
    return tuple(g.order for g in l)


# ---------------------------------------------------------------------------
# group powers


def group_power(n, g):
    """The subgroup of n-th powers of an abelian group, in g order."""
    if not abelianp(g):
        raise DomainError("group-power needs an abelian group")
    if n < 1:
        raise DomainError("n must be >= 1")
    hit = np.zeros(g.order, dtype=bool)
    hit[g._power_row(n)] = True
    return subgroup(g, tuple(g.roster[i] for i in np.flatnonzero(hit)))


# ---------------------------------------------------------------------------
# the contraction


def _contract(orders_, p):
    """The orders of the p-th power subgroups of cyclic groups of the given
    orders > 1, less the trivial ones: those of order p."""
    return tuple(q // p if q % p == 0 else q for q in orders_ if q != p)


def verify_unique_factorization(l, m, iso):
    """Run the uniqueness induction, returning the permutation verdict.

    l and m must be non-empty cyclic p-group lists, checked once here, and
    iso a genuine isomorphism between their direct products, re-verified
    on the p-th power subgroups at every level; a True return certifies
    that the order multisets are permutations.
    """
    l, m = list(l), list(m)
    if not l or not m:
        raise DomainError("uniqueness needs non-empty lists")
    if not cyclic_p_group_list_p(l) or not cyclic_p_group_list_p(m):
        raise DomainError("uniqueness needs cyclic p-group lists")
    g, h = direct_product(l), direct_product(m)
    ol, om = orders(l), orders(m)
    verdict = True
    while True:
        witness = homomorphism_check(iso, g, h)
        if witness is not None:
            raise DomainError(f"map is not a homomorphism: {witness}")
        if not classify(iso, g, h).isomorphism:
            raise DomainError("map is not an isomorphism")
        verdict = permutationp(ol, om) and verdict
        p = least_prime_divisor(ol[0])
        g, h = group_power(p, g), group_power(p, h)
        ol, om = _contract(ol, p), _contract(om, p)
        if not ol or not om:
            return verdict
