"""Direct products, products of subgroups, and internal direct products.

Arguments are checked at each public entry; `product_list_map` leaves its
candidate map to the caller's isomorphism check.
"""
from __future__ import annotations

import numpy as np

from .core import (
    FiniteGroup,
    MAX_ORDER,
    group_intersection,
    lcoset,
    lcosets,
    normalp,
    subgroup,
    subgroupp,
    trivial_subgroup,
)
from .errors import DomainError, ResourceError
from .gmaps import GroupMap


def product_orders(l):
    n = 1
    for g in l:
        n *= g.order
    return n


def group_tuples(l):
    """The Cartesian product of the rosters; the first group varies slowest.

    The first tuple is the identity tuple.
    """
    l = list(l)
    if not l:
        raise DomainError("group-tuples needs a non-empty group list")
    out = [()]
    for g in l:
        out = [t + (x,) for t in out for x in g.roster]
    return tuple(out)


def direct_product(l):
    """The direct product group on group_tuples(l), componentwise operation.

    The table is composed in mixed radix, last factor fastest as in
    group_tuples: T[(I, i), (J, j)] = T_prev[I, J] * k + T_g[i, j], k = |g|.
    """
    l = list(l)
    if not l:
        raise DomainError("direct product of an empty list")
    n = product_orders(l)
    if n > MAX_ORDER:
        raise ResourceError(f"direct-product order {n} exceeds the {MAX_ORDER} guard")
    table = np.zeros((1, 1), dtype=np.int16)
    for g in l:
        m, k = len(table), g.order
        table = table[:, None, :, None] * k + g.table[None, :, None, :]
        table = table.reshape(m * k, m * k)
    return FiniteGroup(group_tuples(l), table)


def dp_index_compare(l, x, y):
    """True iff x precedes y in the direct-product roster.

    Equivalent to the positional comparison: the first-component index is
    smaller, or the first components are equal and the tails compare.
    """
    l = list(l)
    if not l:
        raise DomainError("empty group list")
    i, j = l[0].index(x[0]), l[0].index(y[0])
    if i != j:
        return i < j
    if len(l) == 1:
        return False
    return dp_index_compare(l[1:], x[1:], y[1:])


def products(h, k, g):
    """All pairwise products op(a, b) for a in h, b in k, ordered by g."""
    if not (subgroupp(h, g) and subgroupp(k, g)):
        raise DomainError("products requires subgroups of g")
    ih = [g.index(a) for a in h.roster]
    ik = [g.index(b) for b in k.roster]
    hit = np.zeros(g.order, dtype=bool)
    hit[g.table[ih][:, ik]] = True
    return tuple(g.roster[i] for i in np.flatnonzero(hit))


def product_group(h, k, g):
    """The subgroup on products(h, k, g); needs h or k normal in g."""
    if not (normalp(h, g) or normalp(k, g)):
        raise DomainError("product-group requires h or k normal in g")
    return subgroup(g, products(h, k, g))


def lift_cosets(h, k, g):
    """One k-coset per (h intersect k)-coset of h.

    The concatenation is duplicate-free, has length |h|*|k|/|h^k|, and
    equals products(h, k, g) as a set.  This exists to make the counting
    argument behind len-products executable; callers wanting the product
    set itself should use products().
    """
    if not (subgroupp(h, g) and subgroupp(k, g)):
        raise DomainError("lift-cosets requires subgroups of g")
    i = group_intersection(h, k, g)
    isub = subgroup(h, tuple(x for x in h.roster if x in i))
    return tuple(lcoset(c[0], k, g) for c in lcosets(isub, h))


def product_group_list(l, g):
    """Right fold of product_group over l; empty list gives the trivial subgroup."""
    if not l:
        return trivial_subgroup(g)
    return product_group(l[0], product_group_list(l[1:], g), g)


def internal_direct_product_p(l, g):
    """Each member normal in g and intersecting the product of the rest trivially.

    Scans right to left, carrying the product of the members already
    scanned: the subgroup each earlier member must meet trivially.
    """
    l = list(l)
    rest = trivial_subgroup(g)
    for i in range(len(l) - 1, -1, -1):
        h = l[i]
        if not subgroupp(h, g) or not normalp(h, g):
            return False
        if group_intersection(h, rest, g).roster != (g.identity,):
            return False
        if i:  # l[0] is scanned last; nothing reads its product
            rest = product_group(h, rest, g)
    return True


def internal_direct_product_append(l, m, g):
    """Append two internal direct products whose generated subgroups meet trivially.

    Returns the combined list; any failed premise is a DomainError.
    """
    if not internal_direct_product_p(l, g):
        raise DomainError("l is not an internal direct product in g")
    if not internal_direct_product_p(m, g):
        raise DomainError("m is not an internal direct product in g")
    pl = product_group_list(list(l), g)
    pm = product_group_list(list(m), g)
    if group_intersection(pl, pm, g).roster != (g.identity,):
        raise DomainError("generated subgroups intersect non-trivially")
    combined = tuple(l) + tuple(m)
    if not internal_direct_product_p(combined, g):
        raise DomainError("append is not an internal direct product")
    return combined


def product_list_map(l, g):
    """The candidate map from direct_product(l) to g, for subgroups l of g.

    Sends (x1, ..., xk) to x1 * (x2 * (... * xk)), folded on index arrays
    with the first factor slowest, as in group_tuples.  It is an isomorphism
    exactly when l is an internal direct product of g, which the caller
    checks with homomorphism_check and classify().
    """
    l = list(l)
    images = np.zeros(1, dtype=np.intp)  # g's identity
    for h in reversed(l):
        images = g.table[[g.index(x) for x in h.roster]][:, images].ravel()
    return GroupMap(tuple(zip(group_tuples(l), (g.roster[i] for i in images.tolist()))))
