#!/usr/bin/env python3
"""Classify abelian 2-groups of a given order by cyclic factor multiset.

Builds every direct product of cyclic 2-groups with the requested total
order, factors each one, and tabulates the resulting order multisets.
The number of distinct multisets for order 2^k should equal the number
of integer partitions of k.

Usage: python3 scripts/classify_2groups.py [order]
"""
import argparse
import sys
from pathlib import Path
from collections import Counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from grouptables.abelian import abelian_factorization
from grouptables.core import cyclic_group
from grouptables.products import direct_product
from grouptables.uniqueness import orders


def factor_multisets(n):
    """All sorted tuples of integers >= 2 whose product is n, in ascending
    order: each tuple is extended by every divisor of what is left that is
    no smaller than its last entry."""
    done, todo = [], [((), n)]
    while todo:
        ms, left = todo.pop()
        if left == 1:
            done.append(ms)
        todo += [(ms + (d,), left // d)
                 for d in range(ms[-1] if ms else 2, left + 1) if left % d == 0]
    return sorted(done)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("order", type=int, nargs="?", default=16,
                    help="total order, a power of 2 (default 16)")
    args = ap.parse_args()

    n = args.order
    if n < 2 or n & (n - 1):
        ap.error("order must be a power of 2, at least 2")

    counts = Counter()
    for ms in factor_multisets(n):
        g = direct_product([cyclic_group(k) for k in ms])
        fact = abelian_factorization(g)
        canon = tuple(sorted(orders(fact.factors), reverse=True))
        counts[canon] += 1
        print(f"built {ms!r:24} -> factors {canon}")

    print()
    print(f"{len(counts)} isomorphism classes of abelian groups of order {n}:")
    for canon in sorted(counts, reverse=True):
        print(f"  {' x '.join(f'Z{k}' for k in canon):24} "
              f"({counts[canon]} construction(s))")


if __name__ == "__main__":
    main()
