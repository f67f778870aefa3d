"""Splitting a non-cyclic abelian p-group into a maximal cyclic subgroup and a
complement, then iterating to a full cyclic decomposition.

The split works in g modulo one subgroup C, held as an array of g-indices:
pick a of maximal order, find the first element of order p modulo <a>C,
correct it by a power of a so that its p-th power lies in C, and grow C by
the resulting y until <a>C is all of g; the last C is the complement.  By
the third isomorphism theorem this is the paper's loop through the quotients
g/C_1, (g/C_1)/(C_2/C_1), ..., without building them.  Arguments are
checked once, at each public entry; the factor list is checked once, by
`abelian_factorization`'s isomorphism check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FiniteGroup, abelianp, cyclic, elt_of_ord, subgroup
from .errors import DomainError
from .numtheory import least_prime_divisor, powerp


def p_groupp(g, p):
    """True iff |g| is a power of p; powerp rejects a p that is not prime."""
    return powerp(g.order, p)


def max_ord(g):
    """Largest element order in g."""
    return int(g._orders.max())


def cyclicp(g):
    return max_ord(g) == g.order


def cyclic_p_group_p(g):
    """Cyclic, non-trivial, and a p-group for its least prime divisor."""
    return (
        g.order > 1
        and cyclicp(g)
        and p_groupp(g, least_prime_divisor(g.order))
    )


def cyclic_p_group_list_p(l):
    return all(cyclic_p_group_p(g) for g in l)


@dataclass(frozen=True)
class SplitData:
    """Witness data for one splitting step.

    a generates the maximal cyclic subgroup; y = a^(-j) * x has order p and
    lies outside <a>, and c = <y> meets <a> trivially.
    """

    a: object
    x: object
    i: int
    j: int
    y: object
    c: FiniteGroup


def split_witness(a, p, g):
    if not p_groupp(g, p):
        failure = "not a p-group for p"
    elif not abelianp(g):
        failure = "not abelian"
    elif cyclicp(g):
        failure = "group is cyclic"
    elif a not in g:
        failure = "a is not an element"
    elif g.element_order(a) != max_ord(g):
        failure = "a does not have maximal order"
    else:
        x, i, y = _split(g.index(a), p, g, np.zeros(1, np.intp))
        y = g.roster[y]
        return SplitData(a=a, x=g.roster[x], i=i, j=i // p, y=y, c=cyclic(y, g))
    raise DomainError(f"split preconditions unmet: {failure}")


def _split(ia, p, g, c):
    """split_witness without its checks, on g-indices modulo the subgroup of
    g on the indices c: (x, i, y) with x the first index of order p modulo
    <a>c, x^p in the coset a^i c and y = a^(-i/p) * x, for a at index ia."""
    ac = g.table[g._powers[:g._orders[ia], ia]][:, c]  # row i is the coset a^i c
    in_ac = np.zeros(g.order, bool)
    in_ac[ac] = True
    # Cauchy guarantees an element of order p modulo <a>c, which is not all of g
    x = int(np.argmax(np.argmax(in_ac[g._powers[1:]], axis=0) == p - 1))
    i = int(np.argwhere(ac == g._powers[p, x])[0, 0])
    if i % p != 0:
        raise DomainError("internal inconsistency: i not divisible by p")
    return x, i, int(g.table[g._power_row(-(i // p))[ia], x])


def complement_subgroup(a, p, g):
    """A subgroup g2 with <a> * g2 = g and <a> meeting g2 trivially.

    Grow a subgroup C of g from {e}: each split's y, taken modulo C, makes C
    the union of the cosets y^t C for t < p, until <a>C is g; g2 is the last
    C.  Only the first split is checked: a's coset keeps maximal order
    modulo C, as C meets <a> trivially, so <a>C is g when ord(a) |C| = |g|.
    g2's roster is the order in which the quotients g/C_1, (g/C_1)/(C_2/C_1),
    ... would lift it back: the cosets y^t C that make up g2 in order of t,
    each ordered by its elements' least g-index modulo each earlier C, the
    latest first, then by their own g-index.
    """
    ia, y = g.index(a), g.index(split_witness(a, p, g).y)
    c, keys = np.zeros(1, np.intp), []
    # row t of cosets is y^t c
    while g._orders[ia] * (cosets := g.table[g._powers[:p, y]][:, c]).size < g.order:
        keys.append(g.table[:, c].min(axis=1))  # least g-index modulo c
        c = cosets.ravel()
        y = _split(ia, p, g, c)[2]
    g2 = cosets.ravel()
    order = np.lexsort([key[g2] for key in keys] + [np.arange(p).repeat(len(c))])
    return subgroup(g, [g.roster[k] for k in g2[order].tolist()])


def cyclic_p_subgroup_list(p, g):
    """The tuple of cyclic subgroups whose direct product is the abelian p-group g.

    Chooses a maximal-order generator first, so factor orders come out
    non-increasing; the trivial group yields no factors.  Complements of an
    abelian p-group are abelian p-groups, so the loop checks g only once.
    The last complement is rebuilt by cyclic() like the other factors, so
    every factor's roster lists the powers of its generator roster[1]; the
    complement's own roster is concatenated cosets, or the input's order.
    """
    if not p_groupp(g, p):
        raise DomainError("not a p-group for p")
    if not abelianp(g):
        raise DomainError("not abelian")
    factors = ()
    while not cyclicp(g):
        a = elt_of_ord(max_ord(g), g)
        factors += (cyclic(a, g),)
        g = complement_subgroup(a, p, g)
    return factors + ((cyclic(elt_of_ord(g.order, g), g),) if g.order > 1 else ())
