"""Independent oracles used to check the library against brute force.

Nothing here calls the code paths under test: isomorphism search is raw
backtracking over element bijections or generator images, arithmetic is
naive trial division, subgroup enumeration is closure from below, the
group axioms are compared on full n^3 cubes of products, group files
are read one character and one row at a time, the uniqueness
contraction map is composed from three maps rather than built in one pass,
and the p-group complement recurses with every level checked.
"""
from __future__ import annotations

from itertools import permutations

import numpy as np

from grouptables.core import (
    MAX_ORDER,
    abelianp,
    generated_subgroup,
    lcoset,
    lift,
    quotient,
    trivial_subgroup,
)
from grouptables.errors import DomainError, ResourceError
from grouptables.fileformat import parse_elements, parse_numerals
from grouptables.gmaps import GroupMap, compose_maps, map_from_function
from grouptables.pgroup import cyclicp, split_witness
from grouptables.products import group_tuples
from grouptables.uniqueness import delete_trivial, delete_trivial_elt, group_power_list


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


def tokenize_chars(text):
    """Label tokens, one character at a time: the library's former
    fileformat._tokenize.  Parentheses are tokens of their own, whitespace
    (str.isspace) separates, and every other run of characters is a token."""
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


def parse_group_rows(text):
    """(roster, table) of a group file with the table read row by row into
    tuples of ints: the library's former fileformat.parse_group, with the
    same errors and messages.  Labels go through the library's
    parse_elements, whose tokenizer is compared with tokenize_chars."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DomainError("empty group file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "group" or not head[1].isdecimal():
        raise DomainError(f"bad header line: {lines[0]!r}")
    n = parse_numerals([head[1]])[0]
    if n > MAX_ORDER:
        raise ResourceError(f"group file order {n} exceeds the {MAX_ORDER} guard")
    if len(lines) != n + 2:
        raise DomainError(f"expected {n + 2} lines, got {len(lines)}")
    roster = parse_elements(lines[1])
    if len(roster) != n:
        raise DomainError(f"expected {n} labels, got {len(roster)}")
    table = []
    for ln in lines[2:]:
        row = ln.split()
        if len(row) != n or not all(map(str.isdecimal, row)):
            raise DomainError(f"bad table row: {ln!r}")
        table.append(parse_numerals(row))
    return tuple(roster), tuple(table)


def delete_trivial_iso(l):
    """The tuple-contraction map dropping trivial-group components: an
    isomorphism from direct_product(l) onto the product of the non-trivial
    members; requires at least one non-trivial member.  The library's
    former uniqueness.delete_trivial_iso."""
    l = list(l)
    if not delete_trivial(l):
        raise DomainError("delete-trivial-iso needs a non-trivial member")
    return map_from_function(group_tuples(l), lambda x: delete_trivial_elt(x, l))


def composed_reduce_cyclic_iso(iso, l, m, p):
    """The library's former uniqueness.reduce_cyclic_iso, built as a
    composition: un-contracting on the l side (the swapped pairs of the
    l-side contraction), then iso, then contracting on the m side."""
    contract_l = delete_trivial_iso(group_power_list(p, l))
    contract_m = delete_trivial_iso(group_power_list(p, m))
    expand = GroupMap(tuple((y, x) for x, y in contract_l.pairs))
    return compose_maps(contract_m, compose_maps(iso, expand))


def recursive_complement_subgroup(a, p, g):
    """The library's former pgroup.complement_subgroup: split off an
    order-p cyclic subgroup c, with the split's preconditions checked at
    every level; if g/c is cyclic the complement is c, otherwise the
    complement of a's coset in g/c, found by recursion, lifted back
    through c."""
    sd = split_witness(a, p, g)
    gstar = quotient(g, sd.c)
    if cyclicp(gstar):
        return sd.c
    rec = recursive_complement_subgroup(lcoset(a, sd.c, g), p, gstar)
    return lift(rec, sd.c, g)


def all_subgroups(g):
    """Every subgroup of g, found by closing generator sets from below."""
    triv = trivial_subgroup(g)
    subs = {frozenset(triv.roster): triv}
    frontier = [triv]
    while frontier:
        h = frontier.pop()
        for x in g.roster:
            if x in h:
                continue
            k = generated_subgroup(g, list(h.roster) + [x])
            key = frozenset(k.roster)
            if key not in subs:
                subs[key] = k
                frontier.append(k)
    return list(subs.values())


def brute_force_isomorphism(g, h):
    """An isomorphism g -> h as a GroupMap, or None if none exists.

    Orders <= 8 try every identity-fixing bijection; larger (abelian)
    groups use a generator-image backtracking search.
    """
    if g.order != h.order:
        return None
    if g.order <= 8:
        rest = g.roster[1:]
        for image in permutations(h.roster[1:]):
            m = dict(zip(rest, image))
            m[g.identity] = h.identity
            if all(
                m[g.op(x, y)] == h.op(m[x], m[y])
                for x in g.roster
                for y in g.roster
            ):
                return GroupMap(tuple((x, m[x]) for x in g.roster))
        return None
    return _generator_image_search(g, h)


def _greedy_generators(g):
    gens = []
    covered = {g.identity}
    for x in sorted(g.roster, key=lambda x: -g.element_order(x)):
        if len(covered) == g.order:
            break
        if x not in covered:
            gens.append(x)
            covered = set(generated_subgroup(g, gens).roster)
    return gens


def _extend_partial(D, x, y, g, h):
    """Extend a partial isomorphism (defined on a subgroup) by x -> y."""
    ordx = g.element_order(x)
    if h.element_order(y) != ordx:
        return None
    new = dict(D)
    for e in range(1, ordx):
        xe = g.power(x, e)
        ye = h.power(y, e)
        for s, t in D.items():
            z = g.op(s, xe)
            w = h.op(t, ye)
            if new.get(z, w) != w:
                return None
            new[z] = w
    if len(set(new.values())) != len(new):
        return None
    return new


def _generator_image_search(g, h):
    assert abelianp(g) and abelianp(h), "generator-image search is abelian-only"
    gens = _greedy_generators(g)

    def search(D, k):
        if len(D) == g.order:
            return D
        if k == len(gens):
            return None
        x = gens[k]
        for y in h.roster:
            ext = _extend_partial(D, x, y, g, h)
            if ext is not None:
                found = search(ext, k + 1)
                if found is not None:
                    return found
        return None

    D = search({g.identity: h.identity}, 0)
    if D is None:
        return None
    return GroupMap(tuple((x, D[x]) for x in g.roster))
