#!/usr/bin/env python3
"""Factor every cyclic group up to a bound and verify each isomorphism.

For each Z_n the factorization splits the group into cyclic subgroups of
prime-power order, builds the product map onto Z_n, and checks it is an
isomorphism before reporting.  A second pass confirms the multiset of
factor orders matches the prime factorization of n.

Usage: python3 scripts/factorization_report.py [--max-order N]
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from grouptables.abelian import abelian_factorization
from grouptables.core import cyclic_group
from grouptables.numtheory import max_power_dividing, primep
from grouptables.uniqueness import orders


def prime_power_parts(n):
    parts = []
    for p in range(2, n + 1):
        if n % p == 0 and primep(p):
            parts.append(max_power_dividing(p, n))
    return sorted(parts, reverse=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=64)
    args = ap.parse_args()

    start = time.monotonic()
    verified = 0
    for n in range(2, args.max_order + 1):
        fact = abelian_factorization(cyclic_group(n))
        got = sorted(orders(fact.factors), reverse=True)
        expected = prime_power_parts(n)
        status = "ok" if got == expected else "MISMATCH"
        if status != "ok":
            raise SystemExit(f"Z{n}: got {got}, expected {expected}")
        verified += 1
        print(f"Z{n:<3} = {' x '.join(f'Z{k}' for k in got):24} {status}")
    elapsed = time.monotonic() - start
    print(f"\n{verified} factorizations built and verified in {elapsed:.2f}s")


if __name__ == "__main__":
    main()
