"""Built-in checks behind the `selftest` CLI verb: the claims the verbs make,
on every abelian group of order at most 32, runnable without pytest.

Each of the 54 types is built as a direct product of cyclic prime powers.
`factor`'s claims are that the group is the direct product of its factors,
by a verified isomorphism, that their orders are the type, and that each
printed generator generates its factor.  `unique`'s claims are that a
permutation of a list is certified as one, and that no map certifies two
lists of different types.  `validate`'s check, `check_group`, must accept
every group the suites build.
"""
from __future__ import annotations

import math
from itertools import combinations

from .abelian import abelian_factorization
from .core import check_group, cyclic_group
from .errors import DomainError
from .gmaps import GroupMap, map_from_function
from .numtheory import least_prime_divisor, powerp
from .products import direct_product, group_tuples
from .uniqueness import orders, verify_unique_factorization


def _abelian_types(max_order):
    """Every abelian group of order 2 ... max_order up to isomorphism, as the
    ascending tuple of its prime-power cyclic orders: each tuple is extended
    by every prime power no smaller than its last entry that keeps its
    product within max_order."""
    prime_powers = [q for q in range(2, max_order + 1) if powerp(q, least_prime_divisor(q))]
    types = [()]
    for t in types:  # the list grows as it is read, one extension at a time
        types += [t + (q,) for q in prime_powers
                  if (not t or q >= t[-1]) and math.prod(t) * q <= max_order]
    return types[1:]


def _rejected(l, m, iso):
    """True iff verify_unique_factorization rejects iso with a DomainError."""
    try:
        verify_unique_factorization(l, m, iso)
    except DomainError:
        return True
    return False


def run_selftest(out):
    types = _abelian_types(32)
    lists = [[cyclic_group(q) for q in t] for t in types]
    groups = [direct_product(l) for l in lists]
    facts = [abelian_factorization(g) for g in groups]  # raises if an iso fails
    suites = [
        ("axioms", lambda: all(check_group(g.roster, g.table) is None
                               for g in groups + [h for f in facts for h in f.factors])),
        ("abelian factorization", lambda: all(
            tuple(sorted(orders(f.factors))) == t for f, t in zip(facts, types))),
        ("generators", lambda: all(h.element_order(h.roster[1]) == h.order
                                   for f in facts for h in f.factors)),
        ("uniqueness", lambda: all(
            verify_unique_factorization(l, l[::-1], map_from_function(
                group_tuples(l), lambda x: x[::-1])) is True
            for l in lists if len(l) > 1)),
        # a bijection by roster position between groups of different types
        # of one order: by the theorem no map certifies such a pair
        ("certificates", lambda: all(
            _rejected(l, m, GroupMap(tuple(zip(group_tuples(l), group_tuples(m)))))
            for (l, g), (m, h) in combinations(zip(lists, groups), 2)
            if g.order == h.order)),
    ]
    failed = 0
    for name, run in suites:
        ok = run()
        print(f"{'ok' if ok else 'FAIL'} {name}", file=out)
        failed += 0 if ok else 1
    return 0 if failed == 0 else 1
