"""Uniqueness of cyclic p-group factorizations up to permutation of orders.

An isomorphism dp(l) -> dp(m) forces the order multisets of l and m to
agree: the paper's induction restricts it to the p-th power subgroups,
since phi(x^p) = phi(x)^p, and those are the products of the contracted
lists.  The restrictions are isomorphisms whenever the map is, so no level
below the first can fail once the map is checked on the products; the
induction is kept executable in the tests, and the library checks the map
once.
"""
from __future__ import annotations

from collections import Counter

from .errors import DomainError
from .gmaps import classify, homomorphism_check
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
# the check


def verify_unique_factorization(l, m, iso):
    """Check iso on the direct products, returning the permutation verdict.

    l and m must be non-empty cyclic p-group lists and iso an isomorphism
    dp(l) -> dp(m), each checked once here; a True return certifies that
    the order multisets are permutations, which the uniqueness theorem
    says every such isomorphism forces.
    """
    l, m = list(l), list(m)
    if not l or not m:
        raise DomainError("uniqueness needs non-empty lists")
    if not cyclic_p_group_list_p(l) or not cyclic_p_group_list_p(m):
        raise DomainError("uniqueness needs cyclic p-group lists")
    g, h = direct_product(l), direct_product(m)
    witness = homomorphism_check(iso, g, h)
    if witness is not None:
        raise DomainError(f"map is not a homomorphism: {witness}")
    if not classify(iso, g, h).isomorphism:
        raise DomainError("map is not an isomorphism")
    return permutationp(orders(l), orders(m))
