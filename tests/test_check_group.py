"""check_group (Light's associativity test, vectorized scans) against the
cube reference oracles.check_group_cubes: same kind, same witness."""
import random
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grouptables.core import (
    _first_non_associative,
    _index_entries,
    _light_generators,
    check_group,
    cyclic_group,
    symmetric_group,
)
from grouptables.products import direct_product

from conftest import relabelled
from oracles import _magma_generators, check_group_cubes


def verdict(roster, table):
    v = check_group(roster, table)
    return None if v is None else (v.kind, v.witness)


def assert_matches_cubes(roster, table):
    got, want = verdict(roster, table), check_group_cubes(roster, table)
    assert got == want
    if got is not None:
        assert [type(x) for x in got[1]] == [type(x) for x in want[1]]


def magma_closure(gens, table):
    """Every product of products of gens and the identity, by brute force."""
    inside = {0, *gens}
    while True:
        new = {table[x][y] for x in inside for y in inside} - inside
        if not new:
            return inside
        inside |= new


def greedy_generators(table):
    """Add the first index outside the closure until nothing is left out."""
    gens = []
    while len(inside := magma_closure(gens, table)) < len(table):
        gens.append(min(set(range(len(table))) - inside))
    return gens


@st.composite
def magmas_with_identity(draw):
    n = draw(st.integers(1, 8))
    table = [[i * j and draw(st.integers(0, n - 1)) for j in range(n)] for i in range(n)]
    for k in range(n):
        table[0][k] = table[k][0] = k
    return n, table


@settings(max_examples=400, deadline=None)
@given(magmas_with_identity())
def test_magmas_with_identity_match_cubes(magma):
    n, table = magma
    roster = tuple(f"e{k}" for k in range(n))
    assert_matches_cubes(roster, table)
    assert_matches_cubes(roster, np.array(table, dtype=np.int16))
    assert _magma_generators(np.array(table)) == greedy_generators(table)


def damaged(table, rng, count):
    out = table.tolist()
    n = len(out)
    for _ in range(count):
        i, j = rng.randrange(n), rng.randrange(n)
        out[i][j] = rng.choice([v for v in range(n) if v != out[i][j]] or [0])
    return out


def test_damaged_tables_match_cubes(corpus_with_subgroups):
    rng = random.Random(6)
    checked = 0
    for g, subgroups in corpus_with_subgroups:
        for h in (g, *subgroups):
            if h.order < 2:
                continue
            for count in (1, 1, 1, 2, 2, 2):
                assert_matches_cubes(h.roster, damaged(h.table, rng, count))
                checked += 1
    assert checked > 1000


def test_group_generating_sets_are_small(corpus_with_subgroups):
    for g, _ in corpus_with_subgroups:
        gens = _magma_generators(g.table)
        assert gens == greedy_generators(g.table.tolist())
        assert 2 ** len(gens) <= g.order


@pytest.mark.parametrize("n", [3, 8, 40])
def test_null_semigroup_monoid(n):
    # 0 is the identity, n - 1 a zero, and every product of two others is
    # the zero: the first n - 2 generators close with the zero as a1 * a1
    table = [[j if i == 0 else i if j == 0 else n - 1 for j in range(n)] for i in range(n)]
    assert len(_magma_generators(np.array(table))) == n - 2
    roster = tuple(range(10, 10 + n))
    assert verdict(roster, table) == ("inverse", (11,))
    assert_matches_cubes(roster, table)


@pytest.mark.parametrize("n", [3, 5, 40])
def test_products_all_identity(n):
    # every product of two non-identity elements is the identity, so none
    # of them is a product of others and all n - 1 are generators; for
    # n >= 3 the table is not associative: (a1 * a1) * a2 = a2, a1 * (a1 * a2) = a1
    table = [[j if i == 0 else i if j == 0 else 0 for j in range(n)] for i in range(n)]
    assert _magma_generators(np.array(table)) == list(range(1, n))
    roster = tuple(range(10, 10 + n))
    assert verdict(roster, table) == ("associativity", (11, 11, 12))
    assert_matches_cubes(roster, table)


def test_light_generators_of_groups(corpus_with_subgroups):
    rng = random.Random(16)
    groups = [g for g, _ in corpus_with_subgroups] + [symmetric_group(5)]
    for g in groups + [relabelled(g, rng) for g in groups]:
        gens = _light_generators(g.table)
        assert gens == greedy_generators(g.table.tolist())
        assert 2 ** len(gens) <= g.order


@settings(max_examples=400, deadline=None)
@given(magmas_with_identity())
def test_light_generators_fail_exactly_on_non_associative_magmas(magma):
    n, table = magma
    gens = _light_generators(np.array(table, dtype=np.int16))
    want = check_group_cubes(range(n), table)
    assert (gens is None) == (want is not None and want[0] == "associativity")
    if gens is not None:
        assert gens == greedy_generators(table)


def test_light_generators_of_order_256_null_semigroup_monoid():
    # associative, and every product of two non-identity elements is the
    # zero 255, so every element but the identity and the zero is a generator
    n = 256
    table = [[j if i == 0 else i if j == 0 else n - 1 for j in range(n)] for i in range(n)]
    assert _light_generators(np.array(table, dtype=np.int16)) == list(range(1, n - 1))


# a Latin square with identity: a loop, but no group (1 has order 2 in a
# loop of order 5), hence not associative
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def first_non_associative(table):
    n = len(table)
    return next((i, j, k) for i, j, k in product(range(n), repeat=3)
                if table[table[i][j]][k] != table[i][table[j][k]])


def test_non_associative_loop():
    assert all(sorted(row) == list(range(5)) for row in LOOP5)
    assert all(sorted(col) == list(range(5)) for col in zip(*LOOP5))
    roster = ("e", "a", "b", "c", "d")
    first = first_non_associative(LOOP5)
    assert verdict(roster, LOOP5) == ("associativity", tuple(roster[x] for x in first))
    assert_matches_cubes(roster, LOOP5)


def test_non_associative_witness_beyond_first_row_block():
    # LOOP5 x Z40 with index 40*b + a: a triple fails iff its loop parts
    # do, so the first failing triple is 40 times the loop's, and its row
    # (row 40 or beyond) lies past the first row blocks of the witness scan
    m = 40
    table = [[LOOP5[i // m][j // m] * m + (i + j) % m for j in range(5 * m)]
             for i in range(5 * m)]
    first = tuple(m * x for x in first_non_associative(LOOP5))
    assert verdict(range(5 * m), table) == ("associativity", first)


BAD_ENTRIES = [True, np.True_, 1.0, "1", -1, 4]


def z4_with(entries):
    table = cyclic_group(4).table.tolist()
    for (i, j), v in entries.items():
        table[i][j] = v
    return table


@pytest.mark.parametrize("later", [True, 7, "x"])
@pytest.mark.parametrize("bad", BAD_ENTRIES, ids=repr)
def test_closure_reports_first_bad_entry(bad, later):
    roster = ("e", "a", "b", "c")
    table = z4_with({(1, 2): bad, (2, 1): later})
    forms = [table, tuple(map(tuple, table)), np.array(table, dtype=object)]
    if isinstance(bad, int) and not isinstance(bad, bool) and isinstance(later, int):
        forms.append(np.array(table, dtype=np.int16))
    for form in forms:
        v = check_group(roster, form)
        assert (v.kind, v.witness) == ("closure", ("a", "b", bad))
        assert type(v.witness[2]) is type(form[1][2])
        assert_matches_cubes(roster, form)


@pytest.mark.parametrize("dtype", [bool, float, str])
def test_closure_rejects_non_integer_arrays(dtype):
    table = np.array(cyclic_group(4).table, dtype=dtype)
    v = check_group(range(4), table)
    assert (v.kind, v.witness) == ("closure", (0, 0, table[0][0]))
    assert_matches_cubes(range(4), table)


@pytest.mark.parametrize("nested", [False, True])
def test_memory_is_quadratic(nested):
    g = direct_product([cyclic_group(2)] * 8)
    table = g.table.tolist() if nested else g.table
    tracemalloc.start()
    try:
        assert check_group(g.roster, table) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("roster, table, kind, witness", [
    ((), [], "roster", ("empty",)),
    ((0,), [0], "shape", (1,)),
    ((0,), np.array([0]), "shape", (1,)),
    ((0,), 0, "shape", (1,)),
    ((0, 1), [[0, 1]], "shape", (2,)),
    ((0, 1), [[0, 1], [1]], "shape", (2,)),
    ((0, 1), np.zeros((2, 3), dtype=np.int16), "shape", (2,)),
], ids=["empty-roster", "int-rows", "1-d-array", "int-table", "missing-row",
        "short-row", "wide-array"])
def test_roster_and_shape_kinds(roster, table, kind, witness):
    v = check_group(roster, table)
    assert (v.kind, v.witness) == (kind, witness)


@pytest.mark.parametrize("dtype", [np.int16, np.intp, np.uint8, np.int64])
@pytest.mark.parametrize("shape", [(4, 5), (5, 4), (4, 4, 1)])
def test_array_of_another_shape(dtype, shape):
    table = np.zeros(shape, dtype=dtype)
    v = check_group(range(4), table)
    assert v.kind == "shape" if len(shape) == 2 else v.kind == "closure"
    assert verdict(range(4), table) == check_group_cubes(range(4), table)


def test_bool_array_fails_closure():
    table = cyclic_group(4).table == 0
    assert verdict(range(4), table) == ("closure", (0, 0, table[0][0]))


@pytest.mark.parametrize("dtype", [np.int16, np.intp])
def test_index_array_is_not_copied(dtype):
    table = np.array(cyclic_group(6).table, dtype=dtype)
    t, bad = _index_entries(table, 6)
    assert bad is None and (t is table) == (dtype is np.int16)
    t, bad = _index_entries(table, 5)
    assert t is None and bad == int(np.argmax(table.ravel() >= 5))


@pytest.mark.parametrize("bad, witness", [(-1, -1), (6, 6), (2**40, 2**40)])
def test_array_entries_out_of_range(bad, witness):
    table = cyclic_group(6).table.astype(np.int64)
    table[3, 2] = bad
    v = check_group(range(6), table)
    assert (v.kind, v.witness) == ("closure", (3, 2, witness))


def test_witness_scan_from_row_one_matches_cubes(corpus_with_subgroups):
    # damage that keeps the identity row and column: the scan skips row 0,
    # as an identity associates with any two elements
    rng = random.Random(15)
    checked = 0
    for g, _ in corpus_with_subgroups:
        if g.order < 3:
            continue
        g = relabelled(g, rng)
        for count in (1, 2, 3):
            table = np.array(g.table)
            for _ in range(count):
                i, j = rng.randrange(1, g.order), rng.randrange(1, g.order)
                table[i, j] = rng.randrange(g.order)
            want = check_group_cubes(range(g.order), table.tolist())
            if want is not None and want[0] == "associativity":
                assert _first_non_associative(table) == want[1]
                checked += 1
    assert checked > 50
