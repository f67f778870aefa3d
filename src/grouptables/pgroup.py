"""Splitting a non-cyclic abelian p-group into a maximal cyclic subgroup and a
complement, the step that `abelian._cyclic_subgroup_list` iterates to a full
cyclic decomposition.

Everything works on the input group's indices.  The p-group to split is an
array of g-indices in g's roster order (a primary block of an abelian g, or
a complement inside one), and so is its complement.  The split works modulo
one subgroup C, also an array of g-indices: pick a of maximal order, find
the first element of order p modulo <a>C, correct it by a power of a so that
its p-th power lies in C, and grow C by the resulting y until <a>C is the
whole subgroup; the last C is the complement.  By the third isomorphism
theorem this is the paper's loop through the quotients g/C_1,
(g/C_1)/(C_2/C_1), ..., without building them, and neither a block nor a
complement is built as a group.  g is checked once, by
`abelian.abelian_factorization`, which also checks the factor list once, by
its isomorphism check.
"""
from __future__ import annotations

import numpy as np

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


def _split(ia, p, g, c, r):
    """(x, i, y) on g-indices modulo the subgroup of g on the indices c,
    inside the subgroup on the indices r: x is the first of r of order p
    modulo <a>c, x^p lies in the coset a^i c and y = a^(-i/p) * x, for a at
    index ia.  The split's preconditions are the caller's to check."""
    ac = g.table[g._powers[:g._orders[ia], ia]][:, c]  # row i is the coset a^i c
    in_ac = np.zeros(g.order, bool)
    in_ac[ac] = True
    # orders modulo <a>c are powers of p, so order p is x outside <a>c with
    # x^p inside; Cauchy guarantees one while <a>c is not all of r
    x = int(r[np.argmax(~in_ac[r] & in_ac[g._powers[p, r]])])
    i = int(np.argwhere(ac == g._powers[p, x])[0, 0])
    if i % p != 0:
        raise DomainError("internal inconsistency: i not divisible by p")
    return x, i, int(g.table[g._power_row(-(i // p))[ia], x])


def _complement(ia, p, g, r):
    """The g-indices of a complement of <a> in the subgroup of g on the
    g-indices r, for a at index ia of maximal order there; r lists that
    subgroup in its roster order, with the identity first.

    Grow a subgroup C of it from {e}: each split's y, taken modulo C, makes
    C the union of the cosets y^t C for t < p, until <a>C is all of r; the
    complement is the last C, and {e} if <a> is all of r.  Its order is the
    one in which the quotients by C_1, then C_2/C_1, ... would lift it back:
    the cosets y^t C that make up the last C in order of t, each ordered by
    its elements' least position in r modulo each earlier C, the latest
    first, then by their own position in r.
    """
    pos = np.zeros(g.order, np.intp)  # g-index -> position in r
    pos[r] = np.arange(len(r))
    c, keys = r[:1], []
    while g._orders[ia] * len(c) < len(r):
        keys.append(pos[g.table[r][:, c]].min(axis=1))  # least position modulo c
        y = _split(ia, p, g, c, r)[2]
        c = g.table[g._powers[:p, y]][:, c].ravel()  # the cosets y^t c in order of t
    # t is the first key; the last c's key is constant on each coset y^t c
    return c[np.lexsort([key[pos[c]] for key in keys] + [np.arange(len(c)) * p // len(c)])]

