"""Splitting a non-cyclic abelian p-group into a maximal cyclic subgroup and a
complement, then iterating to a full cyclic decomposition.

The split works through the quotient by a small cyclic subgroup: pick a of
maximal order, find an order-p coset in g/<a>, correct its representative by
a power of a so that its p-th power is the identity, and go on in the
quotient by the resulting order-p cyclic subgroup until it is cyclic, lifting
the last one back up.  Arguments are checked once, at each public entry; the
factor list is checked once, by `abelian_factorization`'s isomorphism check.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FiniteGroup,
    abelianp,
    cyclic,
    elt_of_ord,
    group_intersection,
    lcoset,
    lift,
    powers,
    quotient,
    subgroupp,
)
from .errors import DomainError
from .numtheory import least_prime_divisor, powerp, primep


def p_groupp(g, p):
    if not primep(p):
        raise DomainError(f"p must be prime, got {p}")
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
        return _split(a, p, g)
    raise DomainError(f"split preconditions unmet: {failure}")


def _split(a, p, g):
    """split_witness without its checks."""
    # Cauchy guarantees an order-p element in the quotient, whose order p^k/|a| > 1
    x = elt_of_ord(p, quotient(g, cyclic(a, g)))[0]
    i = powers(g, a).index(g.power(x, p))
    if i % p != 0:
        raise DomainError("internal inconsistency: i not divisible by p")
    j = i // p
    y = g.op(g.power(g.inv(a), j), x)
    return SplitData(a=a, x=x, i=i, j=j, y=y, c=cyclic(y, g))


def complement_subgroup(a, p, g):
    """A subgroup g2 with <a> * g2 = g and <a> meeting g2 trivially.

    Split off an order-p cyclic subgroup c and go on in g/c with a's coset
    until g/c is cyclic; g2 is the last c, lifted back level by level.  Only
    the first level is checked: g/c is again an abelian p-group, and a's
    coset keeps maximal order as c meets <a> trivially.
    """
    sd = split_witness(a, p, g)
    levels = []
    while not cyclicp(gstar := quotient(g, sd.c)):
        levels.append((sd.c, g))
        a, g = lcoset(a, sd.c, g), gstar
        sd = _split(a, p, g)
    g2 = sd.c
    for c, g in reversed(levels):
        g2 = lift(g2, c, g)
    return g2


def desired_properties_check(g, g1, g2):
    """(ok, first failing conjunct or None) for the splitting contract."""
    if not subgroupp(g1, g):
        return False, "g1 not a subgroup"
    if not cyclicp(g1):
        return False, "g1 not cyclic"
    if not subgroupp(g2, g):
        return False, "g2 not a subgroup"
    if g1.order * g2.order != g.order:
        return False, "orders do not multiply to |g|"
    if group_intersection(g1, g2, g).roster != (g.identity,):
        return False, "g1 and g2 intersect non-trivially"
    return True, None


@dataclass(frozen=True)
class PFactorization:
    factors: tuple

    @property
    def orders(self):
        return tuple(h.order for h in self.factors)


def cyclic_p_subgroup_list(p, g):
    """Full decomposition of an abelian p-group into cyclic subgroups.

    Chooses a maximal-order generator first, so factor orders come out
    non-increasing; the trivial group yields no factors.  Complements of an
    abelian p-group are abelian p-groups, so the loop checks g only once.
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
    return PFactorization(factors + ((g,) if g.order > 1 else ()))
