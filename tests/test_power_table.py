"""FiniteGroup._powers, the one power table per group, against the stepping,
cycle-walking, row-scanning and squaring code it replaced (tests/oracles.py).

Element orders, inverses, `power(x, n)` for every n in [-2e, 2e] and
`group_power(n, g)` for n in 1 ... 2e are compared on every abelian type of
order <= 64, on S3, S4 and S5, and on random relabellings of some of them.
Exponents far beyond any int64 are reduced as Python ints.
"""
import math
import random

import numpy as np
import pytest

from grouptables.core import abelianp, cyclic_group, powers, symmetric_group
from grouptables.products import direct_product

from conftest import relabelled
from lemmas import group_power
from oracles import (
    prime_power_multisets,
    scanned_inv,
    squared_group_power,
    stepped_orders,
    walked_power,
    walked_powers,
)

ABELIAN = {"x".join(f"Z{q}" for q in ms): direct_product([cyclic_group(q) for q in ms])
           for n in range(2, 65) for ms in prime_power_multisets(n)}
SYMMETRIC = {f"S{k}": symmetric_group(k) for k in (3, 4, 5)}


def _relabellings():
    rng = random.Random("power-table")
    picks = ("Z3xZ4", "Z2xZ3xZ4", "Z2xZ2xZ2xZ2", "Z3xZ9", "S3", "S4")
    return {f"{name}-relabelled-{k}": relabelled({**ABELIAN, **SYMMETRIC}[name], rng)
            for name in picks for k in range(2)}


RELABELLED = _relabellings()
GROUPS = {**ABELIAN, **SYMMETRIC, **RELABELLED}
ABELIAN_GROUPS = {name: g for name, g in GROUPS.items() if abelianp(g)}


def exponent(g):
    return math.lcm(*stepped_orders(g).tolist())


@pytest.mark.parametrize("g", GROUPS.values(), ids=GROUPS.keys())
def test_power_table_matches_the_stepping_oracles(g):
    assert np.array_equal(g._orders, stepped_orders(g))
    e = exponent(g)
    for x in g.roster:
        cycle = walked_powers(g, x)
        assert powers(g, x) == cycle
        assert g.inv(x) == scanned_inv(g, x)
        assert [g.power(x, n) for n in range(-2 * e, 2 * e + 1)] == [
            cycle[n % len(cycle)] for n in range(-2 * e, 2 * e + 1)]


@pytest.mark.parametrize("g", ABELIAN_GROUPS.values(), ids=ABELIAN_GROUPS.keys())
def test_group_power_matches_squaring(g):
    for n in range(1, 2 * exponent(g) + 1):
        assert group_power(n, g) == squared_group_power(n, g)


@pytest.mark.parametrize("g", [cyclic_group(1), *GROUPS.values()], ids=["Z1", *GROUPS])
def test_power_table_shape_dtype_and_rows(g):
    t = g._powers
    e = exponent(g)
    assert not t.flags.writeable
    assert t.dtype == g.table.dtype
    assert t.shape == (e + 1, g.order)
    assert not t[0].any() and not t[e].any()
    assert np.array_equal(t[1], np.arange(g.order))


@pytest.mark.parametrize("n", [2**63, -2**63, 2**63 - 1, -2**63 - 1, 2**100, -2**100,
                               2**100 + 1, 2**100 + 7, -2**70])
def test_large_exponents_match_the_oracles(n):
    z12, s5 = cyclic_group(12), symmetric_group(5)
    assert [z12.power(x, n) for x in z12.roster] == [(x * n) % 12 for x in z12.roster]
    assert [s5.power(x, n) for x in s5.roster] == [walked_power(s5, x, n) for x in s5.roster]
    if n > 0:
        assert group_power(n, z12) == squared_group_power(n, z12)
