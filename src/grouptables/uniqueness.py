"""Uniqueness of cyclic p-group factorizations up to permutation of orders.

The contraction step takes p-th powers of every factor (which divides the
p-divisible orders by p and collapses order-p factors), deletes the collapsed
factors, and transports the isomorphism through the contraction.  Induction
on the contracted lists forces the order multisets to agree.

The lists are checked once, at entry: a p-th power of a cyclic p-group is
again one or is trivial and dropped, so no later level can fail that check.
The map is checked at every level, as it is the certificate.  Each level
builds the p-th power list of each side once, for both the contracted lists
and the transported map.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from .core import abelianp, subgroup
from .errors import DomainError
from .gmaps import GroupMap, classify, homomorphism_check
from .numtheory import divides, least_prime_divisor, primep
from .pgroup import cyclic_p_group_list_p
from .products import direct_product, group_tuples


# ---------------------------------------------------------------------------
# multisets


def hits(x, l):
    """Number of occurrences of x in l."""
    return sum(1 for y in l if y == x)


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
    # x^n for every x at once, by repeated squaring on indices
    t, acc, base = g.table, np.zeros(g.order, dtype=np.intp), np.arange(g.order)
    while n:
        if n & 1:
            acc = t[acc, base]
        base, n = t[base, base], n >> 1
    hit = np.zeros(g.order, dtype=bool)
    hit[acc] = True
    return subgroup(g, tuple(g.roster[i] for i in np.flatnonzero(hit)))


def reduce_order(n, p):
    return n // p if divides(p, n) else n


def reduce_orders(orders_, p):
    return tuple(reduce_order(n, p) for n in orders_)


def group_power_list(n, l):
    return tuple(group_power(n, g) for g in l)


def group_power_dp_check(n, l):
    """Exact equality (roster and table) of the power of a product and the
    product of the powers."""
    l = list(l)
    return group_power(n, direct_product(l)) == direct_product(
        list(group_power_list(n, l))
    )


# ---------------------------------------------------------------------------
# the contraction


def first_prime(l):
    if not l or l[0].order <= 1:
        raise DomainError("first-prime needs a leading non-trivial group")
    return least_prime_divisor(l[0].order)


def delete_trivial(l):
    return tuple(g for g in l if g.order > 1)


def reduce_cyclic(l, p):
    """p-th powers of every member, with collapsed (order-1) members dropped."""
    if not primep(p):
        raise DomainError(f"p must be prime, got {p}")
    return delete_trivial(group_power_list(p, l))


def delete_trivial_elt(x, l):
    return tuple(c for c, g in zip(x, l) if g.order > 1)


def reduce_cyclic_iso(iso, pl, pm):
    """Transport an isomorphism dp(l) -> dp(m) to the contracted products,
    given the p-th power lists pl and pm of l and m.

    The restriction of iso to the p-th power subgroup (legitimate because
    isomorphic abelian groups have isomorphic n-th powers), with the
    trivial components dropped on both sides.  GroupMap's distinct-key
    check rejects a contraction that is not injective; the map itself is
    checked in full by the next level of verify_unique_factorization.
    """
    return GroupMap(tuple(
        (delete_trivial_elt(x, pl), delete_trivial_elt(iso.apply(x), pm))
        for x in group_tuples(pl)
    ))


def verify_unique_factorization(l, m, iso):
    """Run the uniqueness induction, returning the permutation verdict.

    l and m must be non-empty cyclic p-group lists, checked once here, and
    iso a genuine isomorphism between their direct products, re-verified
    at every level; a True return certifies that the order multisets are
    permutations.
    """
    l, m = list(l), list(m)
    if not l or not m:
        raise DomainError("uniqueness needs non-empty lists")
    if not cyclic_p_group_list_p(l) or not cyclic_p_group_list_p(m):
        raise DomainError("uniqueness needs cyclic p-group lists")
    verdict = True
    while True:
        dpl, dpm = direct_product(l), direct_product(m)
        witness = homomorphism_check(iso, dpl, dpm)
        if witness is not None:
            raise DomainError(f"map is not a homomorphism: {witness}")
        if not classify(iso, dpl, dpm).isomorphism:
            raise DomainError("map is not an isomorphism")
        verdict = permutationp(orders(l), orders(m)) and verdict
        p = first_prime(l)
        pl, pm = group_power_list(p, l), group_power_list(p, m)
        l, m = delete_trivial(pl), delete_trivial(pm)
        if not l or not m:
            return verdict
        iso = reduce_cyclic_iso(iso, pl, pm)
