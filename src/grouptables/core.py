"""Finite groups as explicit operation tables.

A group of order n is a duplicate-free element roster whose first entry is
the identity, plus a read-only n x n integer array of roster indices: the
Cayley table.  Elements are values (atoms or nested tuples), never indices, at
every API boundary; indices live only inside tables.  Derived tables
(subgroups, direct products), element orders and powers are all computed on
indices, and the p-group factorization holds each complement as an array
of the input group's indices rather than as a subgroup or quotient group.
Tuples encode direct-product elements, so products nest one structural
level per application.
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
    def _powers(self):
        """Row k holds x^k for every x, by roster index, for k = 0 ... e with
        e the group's exponent, so row e is all identity: all elements are
        stepped at once, at most n steps by Lagrange."""
        rows, cols = [np.zeros_like(self.table[0]), self.table[0]], np.arange(self.order)
        while rows[-1].any():
            rows.append(self.table[rows[-1], cols])
        rows = np.array(rows)
        rows.flags.writeable = False
        return rows

    @cached_property
    def _orders(self):
        """The order of every element: the first identity in its column."""
        orders = np.argmax(self._powers[1:] == 0, axis=0) + 1
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
        return self.power(x, -1)

    def power(self, x, n):
        """x composed with itself n times; n is taken modulo the exponent, so
        a negative n gives a power of the inverse."""
        return self.roster[self._power_row(n).item(self.index(x))]

    def _power_row(self, n):
        """x^n for every x, by roster index: row n mod e of _powers."""
        return self._powers[n % (len(self._powers) - 1)]

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
    for s in a magma generating set; each s is tested when it is picked, and
    right multiplication by those that passed, which are closed under the
    operation, closes them in O(n |generators|) steps.  On failure the table
    is rescanned row by row for the lexicographically first failing triple.
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
    if isinstance(table, np.ndarray) and table.ndim == 2:
        shaped = table.shape == (n, n)
    else:
        try:
            shaped = len(table) == n and all(len(row) == n for row in table)
        except TypeError:  # a table or row without a length, e.g. an int
            shaped = False
    if not shaped:
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
    if _light_generators(t) is None:
        i, j, k = _first_non_associative(t)
        return AxiomViolation("associativity", (roster[i], roster[j], roster[k]))
    # in a finite monoid x*y = identity implies y*x = identity, so a row
    # holding the identity is all an inverse needs
    lacks = ~(t == 0).any(axis=1)
    if lacks.any():
        return AxiomViolation("inverse", (roster[int(np.argmax(lacks))],))
    return None


def _index_entries(table, n):
    """(t, None) with t the n x n index array of the table's entries, or
    (None, k) with k the row-major position of the first entry that is not
    an integer index below n.

    A 2-D integer array (parse_group's plain tables) is typed by its dtype,
    range-checked by its least and greatest entries and, if already of the
    index dtype, not copied.  Other entries are typed one by one, not
    through np.array, which would turn [0, True] into int64 silently.
    """
    if isinstance(table, np.ndarray) and table.ndim == 2 and table.dtype.kind in "iu":
        if table.min() >= 0 and table.max() < n:
            return table.astype(_index_dtype(n), copy=False), None
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
    return entries.astype(_index_dtype(n)).reshape(n, n), None


def _index_dtype(n):
    """int16, the dtype of FiniteGroup tables, where it holds every index
    below n: the n x n products of check_group then take 2 bytes each."""
    return np.int16 if n <= 2**15 else np.intp


def _light_generators(t):
    """The magma generators of t, each the first index not yet reached, or
    None at the first that fails Light's test (x*s)*y = x*(s*y).  Those that
    pass are closed under the operation, so right multiplication by them
    reaches their closure: each element once by each, O(n |generators|)."""
    reached = bytearray([1]) + bytes(len(t) - 1)  # the identity
    members, gens, cols = [0], [], []
    while (s := reached.find(0)) >= 0:
        if not np.array_equal(t[t[:, s]], t.take(t[s], axis=1)):  # both C-ordered, unlike t[:, t[s]]
            return None
        gens.append(s)
        cols.append(t[:, s].tolist())
        old = len(members)  # these were multiplied by the earlier generators
        for i, x in enumerate(members):
            for col in cols[-1:] if i < old else cols:
                if not reached[y := col[x]]:
                    reached[y] = 1
                    members.append(y)
    return gens


def _first_non_associative(t):
    """The lexicographically first (i, j, k) with (i*j)*k != i*(j*k).

    Rows i are scanned one at a time, comparing the n x n slices for i,
    since a damaged group table tends to fail in its first rows: the scan
    stops there and builds no n^3 array.  Row 0 is not scanned: t is
    checked to have the identity row and column first, and an identity
    element associates with any two.
    """
    for i in range(1, len(t)):
        bad = np.argwhere(t[t[i]] != t[i][t])
        if len(bad):
            j, k = (int(v) for v in bad[0])
            return i, j, k
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


# ---------------------------------------------------------------------------
# element-level machinery


def powers(g, a):
    """[e, a, a^2, ...] up to (but excluding) the first repeat of e."""
    i = g.index(a)
    return tuple(g.roster[j] for j in g._powers[:g._orders[i], i].tolist())


def cyclic(a, g):
    """The cyclic subgroup generated by a, in its natural power order."""
    return subgroup(g, powers(g, a))


def abelianp(g):
    return bool((g.table == g.table.T).all())


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
