"""Direct products and the candidate map from a direct product of subgroups.

Arguments are checked at each public entry; `product_list_map` leaves its
candidate map to the caller's isomorphism check.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .core import FiniteGroup, MAX_ORDER
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
