"""Finite groups as explicit operation tables.

A group of order n is a duplicate-free element roster whose first entry is
the identity, plus a read-only n x n integer array of roster indices: the
Cayley table.  Elements are values (atoms or nested tuples), never indices, at
every API boundary; indices live only inside tables.  Derived tables
(subgroups, quotients, direct products), element orders and powers, cosets
and products of subgroups are all computed on indices.  Tuples encode cosets
(quotient elements) and direct-product tuples, so quotients and products
nest one structural level per application.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, permutations

import numpy as np

from .errors import DomainError, ResourceError

MAX_ORDER = 256
MAX_FILE_CHARS = 16 * 2**20  # characters read from a group or map file
MAX_DEPTH = 32  # nesting levels of a parsed builder expression or element label


@dataclass(frozen=True)
class AxiomViolation:
    """The first violated group axiom, with the witnessing elements."""

    kind: str  # roster | shape | closure | identity-row | identity-column | associativity | inverse
    witness: tuple

    def __str__(self):
        return f"axiom failure: {self.kind}: witness {self.witness!r}"


class GroupAxiomError(DomainError):
    def __init__(self, violation):
        super().__init__(str(violation))
        self.violation = violation


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    """Roster of n distinct elements plus an n x n Cayley table of indices.

    The table may be given as any nested sequence of integers; it is stored
    once as a read-only int16 array.  Instances are immutable; equality
    compares roster and table exactly (ordering included), which is the
    equality the power-of-direct-product identity needs.
    """

    roster: tuple
    table: np.ndarray

    def __post_init__(self):
        table = np.array(self.table, dtype=np.int16)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    @cached_property
    def _pos(self):
        return {x: i for i, x in enumerate(self.roster)}

    @cached_property
    def _orders(self):
        """The order of every element, by roster index: all elements are
        stepped at once, at most n steps by Lagrange."""
        cols = np.arange(self.order)
        acc, orders, k = cols, np.zeros(self.order, dtype=np.intp), 1
        while not orders.all():
            orders[(acc == 0) & (orders == 0)] = k
            acc = self.table[acc, cols]
            k += 1
        orders.flags.writeable = False
        return orders

    @property
    def order(self):
        return len(self.roster)

    @property
    def identity(self):
        return self.roster[0]

    def __contains__(self, x):
        return x in self._pos

    def __iter__(self):
        return iter(self.roster)

    def index(self, x):
        try:
            return self._pos[x]
        except (KeyError, TypeError):
            raise DomainError(f"{x!r} is not an element of this group") from None

    def op(self, x, y):
        return self.roster[self.table.item(self.index(x), self.index(y))]

    def inv(self, x):
        return self.roster[int(np.argmax(self.table[self.index(x)] == 0))]

    def power(self, x, n):
        """x composed with itself n times; n is taken modulo x's order, so a
        negative n gives a power of the inverse."""
        cycle = powers(self, x)
        return cycle[n % len(cycle)]

    def element_order(self, x):
        """Least k >= 1 with x^k = identity."""
        return int(self._orders[self.index(x)])

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.roster == other.roster and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash(self.roster)

    def __repr__(self):
        return f"{type(self).__name__}(order={self.order})"


# ---------------------------------------------------------------------------
# validation


def check_group(roster, table):
    """Return the first violated axiom, or None if (roster, table) is a group.

    The axioms are checked in the order roster, shape, closure, identity
    row, identity column, associativity, inverse.  Associativity is decided
    by Light's test in O(n^2) memory: (x*s)*y = x*(s*y) for every x and y,
    but only for s in a set that generates the table as a magma, since the
    elements s that pass are closed under the operation.  On failure the
    table is rescanned in row blocks for the lexicographically first
    failing triple.
    """
    roster = tuple(roster)
    n = len(roster)
    if n == 0:
        return AxiomViolation("roster", ("empty",))
    if len(set(roster)) != n:
        seen = set()
        for x in roster:
            if x in seen:
                return AxiomViolation("roster", (x,))
            seen.add(x)
    if len(table) != n or any(len(row) != n for row in table):
        return AxiomViolation("shape", (n,))
    t, bad = _index_entries(table, n)
    if bad is not None:
        i, j = divmod(bad, n)
        return AxiomViolation("closure", (roster[i], roster[j], table[i][j]))
    if not np.array_equal(t[0], np.arange(n)):
        j = int(np.nonzero(t[0] != np.arange(n))[0][0])
        return AxiomViolation("identity-row", (roster[j],))
    if not np.array_equal(t[:, 0], np.arange(n)):
        i = int(np.nonzero(t[:, 0] != np.arange(n))[0][0])
        return AxiomViolation("identity-column", (roster[i],))
    if not all(np.array_equal(t[t[:, s]], t[:, t[s]]) for s in _magma_generators(t)):
        i, j, k = _first_non_associative(t)
        return AxiomViolation("associativity", (roster[i], roster[j], roster[k]))
    # in a finite monoid x*y = identity implies y*x = identity, so a row
    # holding the identity is all an inverse needs
    lacks = ~(t == 0).any(axis=1)
    if lacks.any():
        return AxiomViolation("inverse", (roster[int(np.argmax(lacks))],))
    return None


def _index_entries(table, n):
    """(t, None) with t the n x n intp array of the table's entries, or
    (None, k) with k the row-major position of the first entry that is not
    an integer index below n.

    A 2-D integer array (parse_group's plain tables) is typed by its dtype.
    Other entries are typed one by one, not through np.array, which would
    turn [0, True] into int64 silently.
    """
    if isinstance(table, np.ndarray) and table.ndim == 2 and table.dtype.kind in "iu":
        entries = table.ravel()
        stop = entries.size
    else:
        entries = list(chain.from_iterable(table))
        # bool is an int subclass, and np.bool_ is no np.integer
        bad_kinds = {kind for kind in set(map(type, entries))
                     if issubclass(kind, bool) or not issubclass(kind, (int, np.integer))}
        stop = len(entries)
        if bad_kinds:
            kinds = map(bad_kinds.__contains__, map(type, entries))
            stop = int(np.argmax(np.fromiter(kinds, bool, len(entries))))
        # values near [0, n) are exact even if numpy promotes to float64
        entries = np.array(entries[:stop])
    outside = np.flatnonzero((entries < 0) | (entries >= n))
    if len(outside):
        return None, int(outside[0])
    if stop < n * n:
        return None, stop
    return entries.astype(np.intp).reshape(n, n), None


def _magma_generators(t):
    """Indices that, with the identity, generate the table t as a magma.

    The closure starts as {identity}; each round adds the first index not
    yet inside as a generator and closes again under all products, taking
    only the new frontier against the members.  No associativity is
    assumed, so the result also holds for tables that are no group.
    """
    n = len(t)
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    gens = []
    while not inside.all():
        s = int(np.argmin(inside))
        gens.append(s)
        inside[s] = True
        frontier = np.array([s])
        while len(frontier):
            members = np.flatnonzero(inside)
            new = np.zeros(n, dtype=bool)
            new[t[frontier][:, members]] = True
            new[t[members][:, frontier]] = True
            new &= ~inside
            inside |= new
            frontier = np.flatnonzero(new)
    return gens


def _first_non_associative(t):
    """The lexicographically first (i, j, k) with (i*j)*k != i*(j*k).

    Rows i are scanned in blocks that double from one row up to about 2^20
    triples, since a damaged group table tends to fail in its first rows.
    """
    n = len(t)
    cap = max(1, (1 << 20) // (n * n))
    i0, rows = 0, 1
    while i0 < n:
        block = t[i0:i0 + rows]
        bad = np.argwhere(t[block] != block[:, t])
        if len(bad):
            i, j, k = (int(v) for v in bad[0])
            return i0 + i, j, k
        i0 += rows
        rows = min(2 * rows, cap)
    raise AssertionError("the table is associative")


def validate_group(roster, table):
    """Build a FiniteGroup, raising GroupAxiomError on the first bad axiom."""
    violation = check_group(roster, table)
    if violation is not None:
        raise GroupAxiomError(violation)
    return FiniteGroup(tuple(roster), table)


def subgroup(g, roster):
    """The subgroup of g on the given roster, with the operation restricted.

    The roster must start with g's identity and be closed under g's
    operation; the subgroup keeps its order (cyclic subgroups use their
    natural generator order, filtered ones inherit the parent order).
    """
    roster = tuple(roster)
    if len(set(roster)) != len(roster):
        raise DomainError("subgroup roster has duplicates")
    if not roster or roster[0] != g.identity:
        raise DomainError("subgroup roster must start with the parent identity")
    emb = np.array([g.index(x) for x in roster])
    local = np.full(g.order, -1)  # parent index -> subgroup index, -1 outside
    local[emb] = np.arange(len(roster))
    table = local[g.table[emb][:, emb]]
    if (table < 0).any():
        x, y = (roster[i] for i in np.argwhere(table < 0)[0])
        raise DomainError(f"roster not closed: {x!r} * {y!r} = {g.op(x, y)!r}")
    return FiniteGroup(roster, table)


def subgroupp(h, g):
    """Structural subgroup test: roster inside g, operation agreeing with g."""
    if not isinstance(h, FiniteGroup):
        return False
    if any(x not in g for x in h.roster):
        return False
    if h.identity != g.identity:
        return False
    emb = np.array([g.index(x) for x in h.roster])
    return np.array_equal(emb[h.table], g.table[emb][:, emb])


# ---------------------------------------------------------------------------
# element-level machinery


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


def powers(g, a):
    """[e, a, a^2, ...] up to (but excluding) the first repeat of e."""
    i, out = g.index(a), [0]
    while (j := g.table.item(out[-1], i)) != 0:
        out.append(j)
    return tuple(g.roster[j] for j in out)


def cyclic(a, g):
    """The cyclic subgroup generated by a, in its natural power order."""
    return subgroup(g, powers(g, a))


def elt_of_ord(n, g):
    """First roster element of order exactly n, or None."""
    if n < 1:
        raise DomainError("n must be >= 1")
    found = np.flatnonzero(g._orders == n)
    return g.roster[found[0]] if len(found) else None


def trivial_subgroup(g):
    return subgroup(g, (g.identity,))


def abelianp(g):
    return bool((g.table == g.table.T).all())


# ---------------------------------------------------------------------------
# cosets, quotients, lifting


def _elements(g, rows):
    """The elements of g at each row of an index array, as tuples."""
    return tuple(tuple(g.roster[i] for i in row) for row in rows.tolist())


def _coset_rows(h, g):
    """Row x holds the g-indices of the left coset x*h in ascending order.

    Each row of g's table is a permutation, so x*h has exactly |h| members,
    and row x of the membership mask lists them in ascending order.
    """
    n = g.order
    member = np.zeros((n, n), dtype=bool)
    member[np.arange(n)[:, None], g.table[:, [g.index(y) for y in h.roster]]] = True
    return np.nonzero(member)[1].reshape(n, h.order)


def lcoset(x, h, g):
    """The left coset x*h, ordered with respect to g."""
    row = g.table[g.index(x), [g.index(y) for y in h.roster]]
    return tuple(g.roster[i] for i in sorted(row.tolist()))


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
    if not subgroupp(h, g):
        raise DomainError("h is not a subgroup of g")
    t = g.table
    inv = np.argmax(t == 0, axis=1)  # inv[x] is the column of the identity in row x
    emb = [g.index(y) for y in h.roster]
    member = np.zeros(g.order, dtype=bool)
    member[emb] = True
    # conj[x, k] = x * (h_k * x^-1)
    conj = np.take_along_axis(t, t[emb][:, inv].T, axis=1)
    return bool(member[conj].all())


def quotient(g, n):
    """The quotient group g/n: elements are the cosets of the normal n."""
    if not normalp(n, g):
        raise DomainError("quotient requires a normal subgroup")
    rows = _coset_rows(n, g)
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


def group_intersection(h, k, g):
    """The subgroup on the g-ordered common roster of h and k."""
    hset, kset = set(h.roster), set(k.roster)
    roster = tuple(x for x in g.roster if x in hset and x in kset)
    return subgroup(g, roster)


def generated_subgroup(g, gens):
    """Closure of gens under the operation, as a g-ordered subgroup."""
    elems = {g.identity}
    frontier = [g.identity]
    gens = list(gens)
    while frontier:
        x = frontier.pop()
        for a in gens:
            y = g.op(x, a)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    roster = tuple(x for x in g.roster if x in elems)
    return subgroup(g, roster)


# ---------------------------------------------------------------------------
# builders


def cyclic_group(n):
    """Z_n: roster 0..n-1 under addition mod n."""
    if n < 1:
        raise DomainError("cyclic group order must be >= 1")
    if n > MAX_ORDER:
        raise ResourceError(f"order {n} exceeds the {MAX_ORDER} guard")
    ar = np.arange(n, dtype=np.int16)
    return FiniteGroup(tuple(range(n)), (ar[:, None] + ar) % n)


def symmetric_group(n):
    """S_n for n <= 5, on one-line permutation tuples, identity first.

    op(x, y) applies y first: (x*y)(i) = x[y[i]].  The roster is the
    lexicographic order of permutations, which puts the identity first.
    """
    if not 1 <= n <= 5:
        raise DomainError("symmetric group supported for 1 <= n <= 5")
    roster = tuple(permutations(range(n)))
    pos = {x: i for i, x in enumerate(roster)}
    table = tuple(
        tuple(pos[tuple(x[y[i]] for i in range(n))] for y in roster)
        for x in roster
    )
    return FiniteGroup(roster, table)
