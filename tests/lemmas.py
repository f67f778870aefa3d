"""The paper's lemmas, kept as executable checks.

The ACL2 development states its proof steps as functions: the gcd with
Bezout coefficients, the subgroup of elements of order dividing m, the
split of an abelian group of relatively-prime order m*n into its subgroups
of orders m and n, the Bezout split of an element, the element orderings of
a roster, the structural subgroup test, left cosets, quotient groups of
cosets and the lift of their subgroups back to the parent, normality,
intersections and the trivial subgroup, the first element of a given
order, the checked split of a p-group with its witness and the complement
it splits off as a subgroup, the splitting contract of a p-group, the
checked factorization of a p-group on its own and of an abelian group
without the isomorphism check (each its entry checks, then the library's
one factorization loop, for which a p-group is a single block), products
of subgroups and the counting argument behind their size, internal direct
products and their appending, the image and kernel subgroups of a
homomorphism and the inverse of an isomorphism, n-th power subgroups and
the power of a direct product, and the uniqueness contraction: its order reduction, and
the power lists, trivial-factor deletion and transported map of its former
loop.  No CLI verb, selftest or script calls them, so they live here,
beside the tests that check them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from grouptables.core import FiniteGroup, abelianp, cyclic, subgroup
from grouptables.errors import DomainError
from grouptables.gmaps import GroupMap, classify, homomorphism_check, map_from_function
from grouptables.numtheory import check_nat, least_prime_divisor, primep
from grouptables.abelian import _cyclic_subgroup_list
from grouptables.pgroup import _complement, _split, cyclicp, max_ord, p_groupp
from grouptables.products import direct_product, group_tuples


# ---------------------------------------------------------------------------
# core: subgroups, cosets, quotients, lifting, normality, intersections


def subgroupp(h, g):
    """Structural subgroup test: h is the subgroup of g on h's roster."""
    try:
        return subgroup(g, h.roster) == h
    except DomainError:
        return False


def _elements(g, rows):
    """The elements of g at each row of an index array, as tuples."""
    return tuple(tuple(g.roster[i] for i in row) for row in rows.tolist())


def _coset_rows(h, g):
    """Row x holds the g-indices of the left coset x*h in ascending order:
    row x of g's table on h's columns, sorted."""
    return np.sort(g.table[:, [g.index(y) for y in h.roster]], axis=1)


def lcoset(x, h, g):
    """The left coset x*h, ordered with respect to g."""
    row = g.table[g.index(x), [g.index(y) for y in h.roster]]
    return tuple(g.roster[i] for i in sorted(row.tolist()))


def _normal_coset_rows(h, g):
    """_coset_rows(h, g) if h is normal in g, else None: h is normal when
    every left coset x*h is the right coset h*x."""
    if not subgroupp(h, g):
        raise DomainError("h is not a subgroup of g")
    rows = _coset_rows(h, g)
    right = np.sort(g.table[[g.index(y) for y in h.roster]].T, axis=1)
    return rows if np.array_equal(rows, right) else None


def quotient(g, n):
    """The quotient group g/n: elements are the cosets of the normal n."""
    rows = _normal_coset_rows(n, g)
    if rows is None:
        raise DomainError("quotient requires a normal subgroup")
    is_rep = rows[:, 0] == np.arange(g.order)  # x is the first of its coset
    reps = np.flatnonzero(is_rep)
    home = (np.cumsum(is_rep) - 1)[rows[:, 0]]  # parent index -> coset index
    return FiniteGroup(_elements(g, rows[reps]), home[g.table[reps][:, reps]])


def lift(h, n, g):
    """The subgroup of g obtained by concatenating the cosets belonging to h.

    h must be a subgroup of quotient(g, n); its elements are cosets, and the
    lift un-nests them.  order(lift) = order(h) * order(n).
    """
    roster = []
    for c in h.roster:
        if not isinstance(c, tuple):
            raise DomainError("lift expects coset elements")
        roster.extend(c)
    if len(set(roster)) != len(roster):
        raise DomainError("lift cosets overlap; h is not made of n-cosets")
    return subgroup(g, roster)


def trivial_subgroup(g):
    return subgroup(g, (g.identity,))


def lcosets(h, g):
    """All distinct left cosets of h, ordered by first occurrence in g.

    Each coset is g-ordered, so the list comes out ordered by the g-index of
    each coset's smallest member, with the identity coset first.
    """
    if not subgroupp(h, g):
        raise DomainError("h is not a subgroup of g")
    rows = _coset_rows(h, g)
    return _elements(g, rows[rows[:, 0] == np.arange(g.order)])  # first in their coset


def normalp(h, g):
    """h is normal in g: every left coset x*h is the right coset h*x."""
    return _normal_coset_rows(h, g) is not None


def group_intersection(h, k, g):
    """The subgroup on the g-ordered common roster of h and k."""
    hset, kset = set(h.roster), set(k.roster)
    roster = tuple(x for x in g.roster if x in hset and x in kset)
    return subgroup(g, roster)


# ---------------------------------------------------------------------------
# core: element orders and orderings


def elt_of_ord(n, g):
    """First roster element of order exactly n, or None."""
    if n < 1:
        raise DomainError("n must be >= 1")
    found = np.flatnonzero(g._orders == n)
    return g.roster[found[0]] if len(found) else None


def ordp(l, g):
    """True iff l is ordered ascending by g-roster index."""
    idx = [g.index(x) for x in l]
    return all(a < b for a, b in zip(idx, idx[1:]))


def ord_insert(x, l, g):
    """Insert x into the g-ordered duplicate-free sequence l."""
    i = g.index(x)
    out = []
    placed = False
    for y in l:
        j = g.index(y)
        if j == i:
            return tuple(l)
        if j > i and not placed:
            out.append(x)
            placed = True
        out.append(y)
    if not placed:
        out.append(x)
    return tuple(out)


# ---------------------------------------------------------------------------
# numtheory


def gcd_bezout(m, n):
    """Return (g, r, s) with g = gcd(m, n) and r*n + s*m = g.

    The coefficient roles (r against n, s against m) match the splitting
    identity used by the relatively-prime subgroup decomposition.
    """
    check_nat(m, "m", minimum=1)
    check_nat(n, "n", minimum=1)
    # extended Euclid on (n, m): old_r tracks gcd, (old_x, old_y) track
    # coefficients with old_x*n + old_y*m = old_r
    old_r, r = n, m
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


# ---------------------------------------------------------------------------
# abelian


def subgroup_ord_dividing(m, g):
    """The subgroup of elements whose order divides m.  In an abelian g they
    always form one; elsewhere subgroup() rejects them unless closed."""
    if m < 1:
        raise DomainError("m must be >= 1")
    orders = g._orders.tolist()
    return subgroup(g, tuple(x for x, k in zip(g.roster, orders) if m % k == 0))


def rel_prime_split(g, m, n):
    """Split an abelian g of order m*n (gcd(m, n) = 1) into subgroups of
    orders exactly m and n; coprimality makes them meet trivially."""
    gcd, _, _ = gcd_bezout(m, n)
    if gcd != 1:
        raise DomainError(f"m and n must be relatively prime, gcd = {gcd}")
    if g.order != m * n:
        raise DomainError("order of g must equal m * n")
    return subgroup_ord_dividing(m, g), subgroup_ord_dividing(n, g)


def bezout_decomposition(g, x, m, n):
    """Write x = h_part * k_part with the parts of order dividing m and n.

    Uses r*n + s*m = 1; negative coefficients go through the inverse.
    """
    _, r, s = gcd_bezout(m, n)
    return g.power(x, r * n), g.power(x, s * m)


# ---------------------------------------------------------------------------
# pgroup: the checked split, the complement as a subgroup, the splitting
# contract, the checked factorization of a p-group


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
        x, i, y = _split(g.index(a), p, g, np.zeros(1, np.intp), np.arange(g.order))
        y = g.roster[y]
        return SplitData(a=a, x=g.roster[x], i=i, j=i // p, y=y, c=cyclic(y, g))
    raise DomainError(f"split preconditions unmet: {failure}")


def complement_subgroup(a, p, g):
    """A subgroup g2 with <a> * g2 = g and <a> meeting g2 trivially: the
    split's preconditions checked by split_witness, then pgroup._complement
    on all of g, whose order g2's roster keeps."""
    split_witness(a, p, g)
    g2 = _complement(g.index(a), p, g, np.arange(g.order))
    return subgroup(g, [g.roster[k] for k in g2.tolist()])


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


def cyclic_p_subgroup_list(p, g):
    """The tuple of cyclic subgroups whose direct product is the abelian
    p-group g: g checked as one, then the library's factorization loop,
    for which g is its own single block."""
    if not p_groupp(g, p):
        raise DomainError("not a p-group for p")
    if not abelianp(g):
        raise DomainError("not abelian")
    return _cyclic_subgroup_list(g)


def cyclic_subgroup_list(g):
    """The tuple of cyclic p-subgroups whose direct product is the abelian
    g, by ascending prime: g checked abelian, then the library's
    factorization loop, without the isomorphism check."""
    if not abelianp(g):
        raise DomainError("cyclic-subgroup-list needs an abelian group")
    return _cyclic_subgroup_list(g)


# ---------------------------------------------------------------------------
# products


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


# ---------------------------------------------------------------------------
# gmaps: the image and kernel subgroups, the inverse isomorphism


def _require_hom(m, g, h):
    w = homomorphism_check(m, g, h)
    if w is not None:
        raise DomainError(f"not a homomorphism: {w}")


def image(m, g, h):
    """The image subgroup of h, with its roster ordered with respect to h."""
    _require_hom(m, g, h)
    return subgroup(h, sorted({m.apply(x) for x in g.roster}, key=h.index))


def kernel(m, g, h):
    """The kernel subgroup of g: elements sent to h's identity, in g order."""
    _require_hom(m, g, h)
    e = h.identity
    roster = tuple(x for x in g.roster if m.apply(x) == e)
    return subgroup(g, roster)


def inv_isomorphism(m, g, h):
    """The inverse map of an isomorphism, on h's roster."""
    _require_hom(m, g, h)
    if not classify(m, g, h).isomorphism:
        raise DomainError("inv-isomorphism requires an isomorphism")
    preimage = {m.apply(x): x for x in g.roster}
    return map_from_function(h.roster, preimage.__getitem__)


# ---------------------------------------------------------------------------
# uniqueness


def group_power(n, g):
    """The subgroup of n-th powers of an abelian group, in g order."""
    if not abelianp(g):
        raise DomainError("group-power needs an abelian group")
    if n < 1:
        raise DomainError("n must be >= 1")
    hit = np.zeros(g.order, dtype=bool)
    hit[g._power_row(n)] = True
    return subgroup(g, tuple(g.roster[i] for i in np.flatnonzero(hit)))


def group_power_list(n, l):
    return tuple(group_power(n, g) for g in l)


def first_prime(l):
    if not l or l[0].order <= 1:
        raise DomainError("first-prime needs a leading non-trivial group")
    return least_prime_divisor(l[0].order)


def delete_trivial(l):
    return tuple(g for g in l if g.order > 1)


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


def reduce_orders(orders_, p):
    """Each order divided by p where p divides it."""
    return tuple(n // p if n % p == 0 else n for n in orders_)


def group_power_dp_check(n, l):
    """Exact equality (roster and table) of the power of a product and the
    product of the powers."""
    l = list(l)
    return group_power(n, direct_product(l)) == direct_product(
        list(group_power_list(n, l))
    )


def reduce_cyclic(l, p):
    """p-th powers of every member, with collapsed (order-1) members dropped."""
    if not primep(p):
        raise DomainError(f"p must be prime, got {p}")
    return delete_trivial(group_power_list(p, l))
