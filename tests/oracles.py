"""Independent oracles used to check the library against brute force.

Isomorphism search is raw backtracking over element bijections or generator
images, arithmetic is naive trial division, subgroup enumeration is closure
from below, the group axioms are compared on full n^3 cubes of products
and a table's magma generators closed in numpy rounds under all products,
group files are read one character and one row at a time and their labels
by recursive descent, plain tables by np.fromstring on their joined rows,
element orders, powers and inverses are stepped or scanned on the table
rather than read from its power table, left cosets are
read from a membership mask and normality from conjugates rather than both
from sorted table columns, the uniqueness contraction map is composed from
three maps rather than built in one pass, the uniqueness induction rebuilds
both direct products at every level and carries the map down to them
rather than restricting it to p-th power subgroups, the p-group split is read off
the quotient groups g/<a> rather than computed on g's indices modulo a
subgroup, the p-group complement recurses through those quotients with
every level checked, the p-group factorization builds each complement as
a subgroup and continues on it, and the abelian factorization carries
each prime block's relatively-prime complement to the next step rather
than reading every block off the input group.

The oracles read a library group in one way, `plain(g)`: its roster, each
element's roster index and its table as lists of ints.  Orders, powers,
closures and subgroups (`restricted`) are computed on those lists, and a
map is read from its `pairs` alone.  Only the five verbatim references
`quotient_split`, `recursive_complement_subgroup`,
`nested_cyclic_p_subgroup_list`, `chained_cyclic_subgroup_list` and
`transported_unique_factorization`, whose purpose is to be the library's
former code, build on the library: on its `abelianp`, `classify`, `cyclic`,
`cyclicp`, `cyclic_p_group_list_p`, `direct_product`, `homomorphism_check`,
`max_ord`, `orders`, `p_groupp`, `permutationp` and `powers`, on
`FiniteGroup`'s `op`, `power` and `inv`, and on `cyclic_p_subgroup_list`,
`delete_trivial`, `elt_of_ord`, `first_prime`, `group_power_list`,
`lcoset`, `lift`, `quotient`, `reduce_cyclic_iso`, `split_witness`,
`subgroup_ord_dividing` and `SplitData`, which tests/lemmas.py holds.  tests/test_certcheck.py fails if any other oracle reaches further.
"""
from __future__ import annotations

import math
from itertools import permutations, product

import numpy as np

from grouptables.core import MAX_DEPTH, MAX_ORDER, FiniteGroup, abelianp, cyclic, powers
from grouptables.errors import DomainError, ResourceError
from grouptables.gmaps import GroupMap, classify, homomorphism_check
from grouptables.pgroup import (
    cyclic_p_group_list_p,
    cyclicp,
    max_ord,
    p_groupp,
)
from grouptables.products import direct_product
from grouptables.uniqueness import orders, permutationp

from lemmas import (
    SplitData,
    cyclic_p_subgroup_list,
    delete_trivial,
    elt_of_ord,
    first_prime,
    group_power_list,
    lcoset,
    lift,
    quotient,
    reduce_cyclic_iso,
    split_witness,
    subgroup_ord_dividing,
)


def naive_gcd(m, n):
    while n:
        m, n = n, m % n
    return m


def naive_primes_upto(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]


def is_prime_power(n):
    if n < 2:
        return False
    p = min(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return n == 1


def factor_multisets(n, smallest=2):
    """All sorted tuples of integers >= 2 with product n."""
    if n == 1:
        yield ()
        return
    for d in range(smallest, n + 1):
        if n % d == 0:
            for rest in factor_multisets(n // d, d):
                yield (d,) + rest


def prime_power_multisets(n):
    """Sorted tuples of prime powers >= 2 with product n."""
    return [ms for ms in factor_multisets(n) if all(is_prime_power(d) for d in ms)]


def naive_factorize(n):
    """[(p, k), ...] with n = prod p^k, primes ascending, by trial division."""
    out = []
    for p in naive_primes_upto(n):
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
    return out


def _partitions(k, largest):
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def abelian_types(max_order):
    """Every abelian group of order 2..max_order up to isomorphism, as the
    ascending tuple of its prime-power cyclic factors: one partition of the
    exponent of each prime of the order (246 types for 128, 515 for 256)."""
    out = []
    for n in range(2, max_order + 1):
        types = [()]
        for p, k in naive_factorize(n):
            types = [t + tuple(p**e for e in part) for t in types for part in _partitions(k, k)]
        out.extend(tuple(sorted(t)) for t in types)
    return out


def invariant_factors(primary):
    """The invariant factors d1 | d2 | ... of the abelian group with the
    given prime-power factors, ascending: the i-th largest power of each
    prime, multiplied together."""
    by_prime = {}
    for q in primary:
        by_prime.setdefault(naive_factorize(q)[0][0], []).append(q)
    cols = [sorted(qs, reverse=True) for qs in by_prime.values()]
    rank = max(len(c) for c in cols)
    return tuple(sorted(math.prod(c[i] for c in cols if i < len(c)) for i in range(rank)))


def check_group_cubes(roster, table):
    """(kind, witness) of the first violated group axiom, or None: the
    library's former check_group, which compares associativity on the two
    n^3 index cubes t[t] and t[:, t] and scans entries and inverses one at
    a time."""
    roster = tuple(roster)
    n = len(roster)
    if n == 0:
        return "roster", ("empty",)
    if len(set(roster)) != n:
        seen = set()
        for x in roster:
            if x in seen:
                return "roster", (x,)
            seen.add(x)
    if len(table) != n or any(len(row) != n for row in table):
        return "shape", (n,)
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if (not (isinstance(v, int) or isinstance(v, np.integer))
                    or isinstance(v, bool) or not 0 <= v < n):
                return "closure", (roster[i], roster[j], v)
    t = np.array(table, dtype=np.intp)
    if not np.array_equal(t[0], np.arange(n)):
        j = int(np.nonzero(t[0] != np.arange(n))[0][0])
        return "identity-row", (roster[j],)
    if not np.array_equal(t[:, 0], np.arange(n)):
        i = int(np.nonzero(t[:, 0] != np.arange(n))[0][0])
        return "identity-column", (roster[i],)
    left = t[t]            # left[i, j, k] = t[t[i, j], k]
    right = t[:, t]        # right[i, j, k] = t[i, t[j, k]]
    if not np.array_equal(left, right):
        i, j, k = (int(v[0]) for v in np.nonzero(left != right))
        return "associativity", (roster[i], roster[j], roster[k])
    for i in range(n):
        js = np.nonzero(t[i] == 0)[0]
        if len(js) == 0 or t[js[0], i] != 0:
            return "inverse", (roster[i],)
    return None


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


def stepped_orders(g):
    """The order of every element, by roster index: all elements are
    stepped at once, at most n steps by Lagrange.  The library's former
    FiniteGroup._orders."""
    cols = np.arange(g.order)
    acc, orders, k = cols, np.zeros(g.order, dtype=np.intp), 1
    while not orders.all():
        orders[(acc == 0) & (orders == 0)] = k
        acc = g.table[acc, cols]
        k += 1
    orders.flags.writeable = False
    return orders


def plain(g):
    """(roster, index, table) of g as plain lists: the roster, a dict from
    each element to its roster index, and the Cayley table as n lists of n
    ints.  The one way the oracles read a library group."""
    return list(g.roster), {x: i for i, x in enumerate(g.roster)}, g.table.tolist()


def cycle(t, i):
    """The walk 0, i, i^2, ... on the table t, up to (but excluding) the
    first return to 0."""
    out = [0]
    while (j := t[out[-1]][i]) != 0:
        out.append(j)
    return out


def closure(t, gens):
    """The ascending indices that gens generate under t: 0 and everything
    reached from it by right multiplication by a generator."""
    inside, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for a in gens:
            if (y := t[x][a]) not in inside:
                inside.add(y)
                frontier.append(y)
    return sorted(inside)


def restricted(g, idx):
    """The oracle's own subgroup: g's rows and columns idx, in that order,
    renumbered 0 ... len(idx) - 1.  idx must start at 0 and be closed."""
    roster, _, t = plain(g)
    local = {i: k for k, i in enumerate(idx)}
    return FiniteGroup(tuple(roster[i] for i in idx),
                       [[local[t[i][j]] for j in idx] for i in idx])


def _abelian(t):
    """The table t equals its transpose."""
    return [list(col) for col in zip(*t)] == t


def walked_powers(g, a):
    """[e, a, a^2, ...] up to (but excluding) the first repeat of e, by a
    walk along a's cycle: the library's former core.powers."""
    roster, pos, t = plain(g)
    return tuple(roster[j] for j in cycle(t, pos[a]))


def walked_power(g, x, n):
    """x^n as the n mod ord(x)-th entry of x's walked cycle: the library's
    former FiniteGroup.power."""
    cyc = walked_powers(g, x)
    return cyc[n % len(cyc)]


def scanned_inv(g, x):
    """The column of the identity in x's row: the library's former
    FiniteGroup.inv."""
    roster, pos, t = plain(g)
    return roster[t[pos[x]].index(0)]


def squared_group_power(n, g):
    """The subgroup of n-th powers of an abelian group, in g order, by
    repeated squaring on indices: the library's former
    uniqueness.group_power."""
    t = plain(g)[2]
    if not _abelian(t):
        raise DomainError("group-power needs an abelian group")
    if n < 1:
        raise DomainError("n must be >= 1")
    # x^n for every x at once, by repeated squaring on indices
    acc, base = [0] * len(t), list(range(len(t)))
    while n:
        if n & 1:
            acc = [t[a][b] for a, b in zip(acc, base)]
        base, n = [t[b][b] for b in base], n >> 1
    return restricted(g, sorted(set(acc)))


def masked_coset_rows(h, g):
    """Row x holds the g-indices of the left coset x*h in ascending order,
    read from a membership mask: the library's former core._coset_rows.

    Each row of g's table is a permutation, so x*h has exactly |h| members,
    and asking each index of g in turn whether it is one lists them in
    ascending order.
    """
    _, pos, t = plain(g)
    idx = [pos[y] for y in h.roster]
    cosets = ({row[j] for j in idx} for row in t)
    return [[k for k in range(len(t)) if k in coset] for coset in cosets]


def conjugated_normalp(h, g):
    """Every conjugate x * (y * x^-1) of a member y of h lies in h: the
    library's former core.normalp."""
    _, pos, t = plain(g)
    idx = [pos.get(y) for y in h.roster]
    members = set(idx)
    # h must be the subgroup of g on its own roster
    if (idx[:1] != [0] or None in members or len(members) != len(idx)
            or any(t[i][j] not in members for i in idx for j in idx)
            or restricted(g, idx) != h):
        raise DomainError("h is not a subgroup of g")
    inv = [row.index(0) for row in t]
    return all(t[x][t[y][inv[x]]] in members for x in range(len(t)) for y in idx)


def tokenize_chars(text):
    """Label tokens, one character at a time: the library's former label
    tokenizer, which fileformat._TOKENS replaced.  Parentheses are tokens of
    their own, whitespace (str.isspace) separates, and every other run of
    characters is a token."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            out.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in "()":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def _ints(tokens):
    """int() of each decimal token; one longer than int() converts is a
    ResourceError, as in the library."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ResourceError("a numeral exceeds the integer conversion limit") from None


def _parse_one(tokens, k, depth=0):
    """The element starting at tokens[k], inside depth open parentheses."""
    if k >= len(tokens):
        raise DomainError("unexpected end of element text")
    t = tokens[k]
    if t == "(":
        if depth >= MAX_DEPTH:
            raise ResourceError(f"element nesting exceeds the {MAX_DEPTH} guard")
        parts = []
        k += 1
        while k < len(tokens) and tokens[k] != ")":
            part, k = _parse_one(tokens, k, depth + 1)
            parts.append(part)
        if k >= len(tokens):
            raise DomainError("unbalanced parenthesis in element text")
        return tuple(parts), k + 1
    if t == ")":
        raise DomainError("unexpected ')' in element text")
    if t.removeprefix("-").isdecimal():
        return _ints([t])[0], k + 1
    return t, k + 1


def parse_elements_recursive(text):
    """All elements in a label string, by recursive descent: the library's
    former fileformat.parse_elements, on the tokens of tokenize_chars."""
    tokens = tokenize_chars(text)
    out = []
    k = 0
    while k < len(tokens):
        x, k = _parse_one(tokens, k)
        out.append(x)
    return out


def parse_group_rows(text):
    """(roster, table) of a group file with the table read row by row into
    tuples of ints: the library's former fileformat.parse_group, with the
    same errors and messages, with labels read by parse_elements_recursive."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty group file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "group" or not head[1].isdecimal():
        raise DomainError(f"bad header line: {lines[0]!r}")
    n = _ints([head[1]])[0]
    if n > MAX_ORDER:
        raise ResourceError(f"group file order {n} exceeds the {MAX_ORDER} guard")
    if len(lines) != n + 2:
        raise DomainError(f"expected {n + 2} lines, got {len(lines)}")
    roster = parse_elements_recursive(lines[1])
    if len(roster) != n:
        raise DomainError(f"expected {n} labels, got {len(roster)}")
    table = []
    for ln in lines[2:]:
        row = ln.split()
        if len(row) != n or not all(map(str.isdecimal, row)):
            raise DomainError(f"bad table row: {ln!r}")
        table.append(_ints(row))
    return tuple(roster), tuple(table)


def fromstring_index_array(rows, n):
    """The n rows as an n x n int64 array, or None unless every row is n
    ASCII numerals of at most 18 digits between blanks, each below n: the
    library's former fileformat._index_array, which joins the rows, finds
    their digit runs and has np.fromstring parse the joined text again."""
    body = "\n".join(rows)
    if not body.isascii():
        return None
    b = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    digit = b - ord("0") < 10  # uint8: bytes below "0" wrap past 10
    newline = b == ord("\n")
    if not (digit | newline | (b == ord(" ")) | (b == ord("\t"))).all():
        return None
    padded = np.concatenate(([False], digit, [False]))
    starts, ends = np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2).T
    if len(starts) != n * n or (ends - starts).max() > 18:
        return None
    # n numerals per row: the k-th row break has k * n numerals before it
    if not np.array_equal(np.searchsorted(starts, np.flatnonzero(newline)),
                          np.arange(n, n * n, n)):
        return None
    t = np.fromstring(body, dtype=np.int64, sep=" ")
    if (t >= n).any():
        return None
    return t.reshape(n, n)


def delete_trivial_iso(l):
    """The tuple-contraction map dropping trivial-group components: an
    isomorphism from direct_product(l) onto the product of the non-trivial
    members; requires at least one non-trivial member.  The library's
    former uniqueness.delete_trivial_iso."""
    rosters = [g.roster for g in l]
    keep = [len(r) > 1 for r in rosters]
    if not any(keep):
        raise DomainError("delete-trivial-iso needs a non-trivial member")
    return GroupMap(tuple((x, tuple(c for c, k in zip(x, keep) if k))
                          for x in product(*rosters)))


def compose_maps(m2, m1):
    """m2 after m1, on the domain of m1."""
    outer = dict(m2.pairs)
    pairs = []
    for x, y in m1.pairs:
        if y not in outer:
            raise DomainError(f"composition escapes the outer domain at {y!r}")
        pairs.append((x, outer[y]))
    return GroupMap(tuple(pairs))


def composed_reduce_cyclic_iso(iso, l, m, p):
    """The library's former uniqueness.reduce_cyclic_iso, built as a
    composition: un-contracting on the l side (the swapped pairs of the
    l-side contraction), then iso, then contracting on the m side."""
    contract_l = delete_trivial_iso([squared_group_power(p, g) for g in l])
    contract_m = delete_trivial_iso([squared_group_power(p, g) for g in m])
    expand = GroupMap(tuple((y, x) for x, y in contract_l.pairs))
    return compose_maps(contract_m, compose_maps(iso, expand))


def quotient_split(a, p, g):
    """The library's former pgroup._split: x is the first element of the
    first order-p coset of the quotient g/<a>, and y = a^(-j) * x."""
    # Cauchy guarantees an order-p element in the quotient, whose order p^k/|a| > 1
    x = elt_of_ord(p, quotient(g, cyclic(a, g)))[0]
    i = powers(g, a).index(g.power(x, p))
    if i % p != 0:
        raise DomainError("internal inconsistency: i not divisible by p")
    j = i // p
    y = g.op(g.power(g.inv(a), j), x)
    return SplitData(a=a, x=x, i=i, j=j, y=y, c=cyclic(y, g))


def recursive_complement_subgroup(a, p, g):
    """The library's former pgroup.complement_subgroup: split off an
    order-p cyclic subgroup c through quotient_split, with the split's
    preconditions checked by split_witness at every level; if g/c is cyclic
    the complement is c, otherwise the complement of a's coset in g/c,
    found by recursion, lifted back through c."""
    split_witness(a, p, g)
    sd = quotient_split(a, p, g)
    gstar = quotient(g, sd.c)
    if cyclicp(gstar):
        return sd.c
    rec = recursive_complement_subgroup(lcoset(a, sd.c, g), p, gstar)
    return lift(rec, sd.c, g)


def nested_cyclic_p_subgroup_list(p, g):
    """The library's former pgroup.cyclic_p_subgroup_list, with each
    complement built by recursive_complement_subgroup: split off the cyclic
    subgroup of the first element of maximal order and continue on its
    complement, a subgroup in its own roster order, until that is cyclic."""
    if not p_groupp(g, p):
        raise DomainError("not a p-group for p")
    if not abelianp(g):
        raise DomainError("not abelian")
    factors = ()
    while not cyclicp(g):
        a = elt_of_ord(max_ord(g), g)
        factors += (cyclic(a, g),)
        g = recursive_complement_subgroup(a, p, g)
    return factors + ((cyclic(elt_of_ord(g.order, g), g),) if g.order > 1 else ())


def chained_cyclic_subgroup_list(g):
    """The library's former abelian.cyclic_subgroup_list: split off the
    block of the least prime p, carry its relatively-prime complement to
    the next step, and factor each block with the p-group machinery; a
    p-group left over is factored as it stands."""
    if not abelianp(g):
        raise DomainError("cyclic-subgroup-list needs an abelian group")
    factors = ()
    while g.order > 1:
        p = next(d for d in range(2, g.order + 1) if g.order % d == 0)
        m = p
        while g.order % (m * p) == 0:
            m *= p
        if m == g.order:
            return factors + cyclic_p_subgroup_list(p, g)
        h, g = subgroup_ord_dividing(m, g), subgroup_ord_dividing(g.order // m, g)
        factors += cyclic_p_subgroup_list(p, h)
    return factors


def transported_unique_factorization(l, m, iso):
    """The library's former uniqueness.verify_unique_factorization: at every
    level it builds the direct products of both lists, checks iso on them,
    takes each factor's p-th powers, drops the trivial ones and carries iso
    down to the contracted products with reduce_cyclic_iso.

    l and m must be non-empty cyclic p-group lists, checked once here, and
    iso a genuine isomorphism between their direct products, re-verified
    at every level; a True return certifies that the order multisets are
    permutations.
    """
    l, m = list(l), list(m)
    if not l or not m:
        raise DomainError("uniqueness needs non-empty lists")
    if not cyclic_p_group_list_p(l) or not cyclic_p_group_list_p(m):
        raise DomainError("uniqueness needs cyclic p-group lists")
    verdict = True
    while True:
        dpl, dpm = direct_product(l), direct_product(m)
        witness = homomorphism_check(iso, dpl, dpm)
        if witness is not None:
            raise DomainError(f"map is not a homomorphism: {witness}")
        if not classify(iso, dpl, dpm).isomorphism:
            raise DomainError("map is not an isomorphism")
        verdict = permutationp(orders(l), orders(m)) and verdict
        p = first_prime(l)
        pl, pm = group_power_list(p, l), group_power_list(p, m)
        l, m = delete_trivial(pl), delete_trivial(pm)
        if not l or not m:
            return verdict
        iso = reduce_cyclic_iso(iso, pl, pm)


def generated_subgroup(g, gens):
    """Closure of gens under the operation, as a g-ordered subgroup."""
    _, pos, t = plain(g)
    return restricted(g, closure(t, [pos[a] for a in gens]))


def all_subgroups(g):
    """Every subgroup of g, found by closing generator sets from below."""
    t = plain(g)[2]
    subs, frontier = {(0,): None}, [(0,)]  # subs: the index tuples found, in order
    while frontier:
        h = frontier.pop()
        for x in range(len(t)):
            if x in h:
                continue
            k = tuple(closure(t, [*h, x]))
            if k not in subs:
                subs[k] = None
                frontier.append(k)
    return [restricted(g, k) for k in subs]


def brute_force_isomorphism(g, h):
    """An isomorphism g -> h as a GroupMap, or None if none exists.

    Orders <= 8 try every identity-fixing bijection; larger (abelian)
    groups use a generator-image backtracking search.  Both work on the
    index rows of the two tables.
    """
    if g.order != h.order:
        return None
    (gr, _, tg), (hr, _, th) = plain(g), plain(h)
    n = len(tg)
    if n <= 8:
        for image in permutations(range(1, n)):
            m = (0, *image)
            if all(m[tg[x][y]] == th[m[x]][m[y]] for x in range(n) for y in range(n)):
                return GroupMap(tuple((gr[x], hr[m[x]]) for x in range(n)))
        return None
    found = _generator_image_search(tg, th)
    if found is None:
        return None
    return GroupMap(tuple((gr[x], hr[found[x]]) for x in range(n)))


def _greedy_generators(t, cycles):
    gens, covered = [], {0}
    for x in sorted(range(len(t)), key=lambda x: -len(cycles[x])):
        if len(covered) == len(t):
            break
        if x not in covered:
            gens.append(x)
            covered = set(closure(t, gens))
    return gens


def _extend_partial(D, cx, cy, tg, th):
    """Extend a partial isomorphism (defined on a subgroup) by x -> y, given
    the cycles cx of x and cy of y; None at the first image that is not
    well defined or is already taken by another element."""
    if len(cy) != len(cx):
        return None
    new, used = dict(D), set(D.values())
    for xe, ye in zip(cx[1:], cy[1:]):
        for s, u in D.items():
            z, w = tg[s][xe], th[u][ye]
            if new.get(z, w) != w or z not in new and w in used:
                return None
            new[z] = w
            used.add(w)
    return new


def _generator_image_search(tg, th):
    """An isomorphism tg -> th as a dict of indices, or None."""
    assert _abelian(tg) and _abelian(th), "generator-image search is abelian-only"
    cg = [cycle(tg, x) for x in range(len(tg))]
    ch = [cycle(th, y) for y in range(len(th))]
    gens = _greedy_generators(tg, cg)

    def search(D, k):
        if len(D) == len(tg):
            return D
        if k == len(gens):
            return None
        for y in range(len(th)):
            ext = _extend_partial(D, cg[gens[k]], ch[y], tg, th)
            if ext is not None:
                found = search(ext, k + 1)
                if found is not None:
                    return found
        return None

    return search({0: 0}, 0)
