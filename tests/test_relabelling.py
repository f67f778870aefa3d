"""Relabelling a group file leaves what `factor` and `info` say unchanged.

Two metamorphic checks: the file of `dp zn q1 zn q2 ...` and a `relabelled`
copy of it (roster shuffled, identity kept first, table carried along)
present the same group.  For every abelian type of order <= 64 and a seeded
sample of 12 types of order 65 to 256, `factor` of the relabelled file
prints the type's orders, and `info` prints the same lines for both files.
For every type of order <= 64, the two factorizations' generators give an
isomorphism between their direct products, which `unique` accepts.
"""
import contextlib
import io
import itertools
import math
import random

from grouptables.cli import main
from grouptables.core import cyclic_group
from grouptables.fileformat import print_group
from grouptables.products import direct_product

from conftest import relabelled
from oracles import abelian_types, cycle, parse_elements_recursive, plain

TYPES = abelian_types(64) + random.Random(22).sample(
    [t for t in abelian_types(256) if math.prod(t) > 64], 12)


def run(*argv):
    """(exit code, stdout, stderr) of one in-process CLI request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def test_relabelled_files_factor_and_report_alike(tmp_path):
    original, copy = tmp_path / "g.grp", tmp_path / "relabelled.grp"
    for t in TYPES:
        g = direct_product([cyclic_group(q) for q in t])
        original.write_text(print_group(g))
        copy.write_text(print_group(relabelled(g, random.Random(repr(t)))))
        rc, out, err = run("factor", copy)
        *lines, last = out.splitlines()
        assert (rc, last, err) == (0, "iso verified: true", ""), t
        assert sorted(int(ln.split()[0].removeprefix("order=")) for ln in lines) == list(t), t
        assert run("info", original) == run("info", copy), t


def factor_products(path, table, pos):
    """(orders L, {c: index of g_1^(c_1) ... g_k^(c_k)}) for the orders L and
    generators g that `factor` prints for the group file at path, with the
    products taken in the plain table of that file's group."""
    rc, out, err = run("factor", path)
    *lines, last = out.splitlines()
    assert (rc, last, err) == (0, "iso verified: true", "")
    orders, walks = [], []
    for ln in lines:
        order, _, gen = ln.split(" ", 2)
        orders.append(int(order.removeprefix("order=")))
        x = parse_elements_recursive(gen.removeprefix("generator="))[0]
        walks.append(cycle(table, pos[x]))
    products = {}
    for c in itertools.product(*map(range, orders)):
        x = 0
        for walk, e in zip(walks, c):
            x = table[x][walk[e]]
        products[c] = x
    return orders, products


def test_unique_accepts_the_map_between_factorizations(tmp_path):
    # the second relation: with L, g and M, g' the orders and generators
    # printed for a file and for its relabelled copy, c -> the d with
    # prod g'_j^(d_j) = prod g_i^(c_i) is an isomorphism dp(zn L) -> dp(zn M)
    original, copy, mapfile = tmp_path / "g.grp", tmp_path / "relabelled.grp", tmp_path / "map"
    for t in abelian_types(64):
        g = direct_product([cyclic_group(q) for q in t])
        original.write_text(print_group(g))
        copy.write_text(print_group(relabelled(g, random.Random(repr(t)))))
        _, pos, table = plain(g)
        l, at_l = factor_products(original, table, pos)
        m, at_m = factor_products(copy, table, pos)
        d_of = {x: d for d, x in at_m.items()}
        assert len(d_of) == g.order, t
        mapfile.write_text("".join(f"({' '.join(map(str, c))}) -> ({' '.join(map(str, d_of[x]))})\n"
                                   for c, x in at_l.items()))
        rc, out, err = run("unique", "dp", *(w for q in l for w in ("zn", q)),
                           "--", "dp", *(w for q in m for w in ("zn", q)), mapfile)
        assert (rc, err) == (0, "") and "permutation: true" in out.splitlines(), t
