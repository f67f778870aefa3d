"""Direct products, products of subgroups, and internal direct products.

Arguments are checked at each public entry; `product_list_map` leaves its
candidate map to the caller's isomorphism check.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .core import (
    FiniteGroup,
    MAX_ORDER,
    group_intersection,
    normalp,
    subgroup,
    subgroupp,
    trivial_subgroup,
)
from .errors import DomainError, ResourceError
from .gmaps import GroupMap


def product_orders(l):
    return math.prod(g.order for g in l)


def group_tuples(l):
    """The Cartesian product of the rosters; the first group varies slowest.

    The first tuple is the identity tuple.
    """
    rosters = [g.roster for g in l]
    if not rosters:
        raise DomainError("group-tuples needs a non-empty group list")
    return tuple(itertools.product(*rosters))


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
