"""tests/certcheck.py stands apart from the library, and it rejects
certificates that are false; tests/oracles.py takes from the library only
what its five verbatim references of former library code need."""
import ast
import contextlib
import io
import math
import random
import sys
from itertools import product
from pathlib import Path

import pytest

import certcheck
import oracles
from certcheck import check_certificate, check_map_certificate, split_labels
from grouptables.cli import main
from grouptables.core import cyclic_group
from grouptables.fileformat import print_group
from grouptables.products import direct_product
from oracles import abelian_types

Z4XZ4 = print_group(direct_product([cyclic_group(4), cyclic_group(4)]))
Z4 = "group 4\n0 1 2 3\n0 1 2 3\n1 2 3 0\n2 3 0 1\n3 0 1 2\n"


def factor_lines(*factors):
    return "".join(f"order={q} p={p} generator={g}\n" for q, p, g in factors) + "iso verified: true\n"


def test_checker_imports_only_the_standard_library():
    tree = ast.parse(Path(certcheck.__file__).read_text())
    modules = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert modules and all(m.split(".")[0] in sys.stdlib_module_names for m in modules)
    assert not any(m.split(".")[0] == "grouptables" for m in modules)


# the names the oracles may import: the types and guards, and what the
# five verbatim references of former library code call
ORACLE_IMPORTS = {
    "grouptables": {"FiniteGroup", "GroupMap", "DomainError", "ResourceError",
                    "MAX_DEPTH", "MAX_ORDER", "abelianp", "classify", "cyclic", "cyclicp",
                    "cyclic_p_group_list_p", "direct_product", "homomorphism_check",
                    "max_ord", "orders", "p_groupp", "permutationp", "powers"},
    "lemmas": {"SplitData", "cyclic_p_subgroup_list", "delete_trivial", "elt_of_ord",
               "first_prime", "group_power_list", "lcoset", "lift", "quotient",
               "reduce_cyclic_iso", "split_witness", "subgroup_ord_dividing"},
}
VERBATIM = {"quotient_split", "recursive_complement_subgroup", "nested_cyclic_p_subgroup_list",
            "chained_cyclic_subgroup_list", "transported_unique_factorization"}
# FiniteGroup's and GroupMap's element-level methods and internals
LIBRARY_ATTRIBUTES = {"op", "power", "inv", "element_order", "apply", "domain", "_powers",
                      "_orders", "_pos", "_power_row", "_table"}


def oracle_dependence(source):
    """Each import of the library or of lemmas beyond ORACLE_IMPORTS, and
    each read of a LIBRARY_ATTRIBUTES name by a top-level function outside
    VERBATIM, in the source of an oracle module."""
    tree = ast.parse(source)
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            faults += [f"import {a.name}" for a in node.names
                       if a.name.split(".")[0] in ORACLE_IMPORTS]
        elif isinstance(node, ast.ImportFrom) and node.module:
            allowed = ORACLE_IMPORTS.get(node.module.split(".")[0])
            if allowed is not None:
                faults += [f"from {node.module} import {a.name}" for a in node.names
                           if a.name not in allowed]
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name not in VERBATIM:
            faults += [f"{node.name} reads .{n.attr}" for n in ast.walk(node)
                       if isinstance(n, ast.Attribute) and n.attr in LIBRARY_ATTRIBUTES]
    return faults


def test_oracles_take_only_what_the_verbatim_references_need():
    assert oracle_dependence(Path(oracles.__file__).read_text()) == []


def test_dependence_scan_sees_library_imports_and_calls():
    source = ("import grouptables.core\n"
              "from grouptables.core import cyclic, subgroup\n"
              "from lemmas import lift, subgroupp\n"
              "def closed(g, x):\n    return g.op(x, g.inv(x))\n"
              "def quotient_split(a, p, g):\n    return g.op(a, a)\n")
    assert oracle_dependence(source) == [
        "import grouptables.core", "from grouptables.core import subgroup",
        "from lemmas import subgroupp", "closed reads .op", "closed reads .inv"]


def test_labels_split_outside_parentheses():
    assert split_labels("0 (1 (2  3)) (4 5)  x") == ["0", "(1 (2 3))", "(4 5)", "x"]


@pytest.mark.parametrize("group, factors", [
    pytest.param(Z4XZ4, [(4, 2, "(0 1)"), (4, 2, "(1 0)")], id="z4xz4"),
    pytest.param(Z4, [(4, 2, "1")], id="z4-1"),
    pytest.param(Z4, [(4, 2, "3")], id="z4-3"),
])
def test_accepts(group, factors):
    assert check_certificate(group, factor_lines(*factors)) is None


@pytest.mark.parametrize("group, factors, why", [
    # an element of order 2 printed as an order-4 generator
    pytest.param(Z4XZ4, [(4, 2, "(0 1)"), (4, 2, "(2 0)")],
                 "generator (2 0) does not have order 4", id="z4xz4-order-2-generator"),
    # two order-4 generators that are not a basis: (1 2)^2 = (1 0)^2
    pytest.param(Z4XZ4, [(4, 2, "(1 2)"), (4, 2, "(1 0)")],
                 "the generators' products are not a bijection onto the roster",
                 id="z4xz4-not-a-basis"),
    pytest.param(Z4XZ4, [(4, 2, "(0 1)")], "the orders do not multiply to n", id="z4xz4-one-factor"),
    pytest.param(Z4XZ4, [(4, 4, "(0 1)"), (4, 4, "(1 0)")], "p = 4 is not prime", id="z4xz4-p-4"),
    pytest.param(Z4XZ4, [(4, 2, "(0 5)"), (4, 2, "(1 0)")],
                 "generator (0 5) is not in the roster", id="z4xz4-no-such-label"),
    pytest.param(Z4, [(2, 2, "2"), (2, 2, "2")],
                 "the generators' products are not a bijection onto the roster", id="z4-2-twice"),
    # row 2 damaged off the generator's column: 2 * 2 = 1 and 2 * 3 = 0
    pytest.param(Z4.replace("2 3 0 1", "2 3 1 0"), [(4, 2, "1")],
                 "the generators' products are not a homomorphism", id="z4-damaged-row"),
])
def test_rejects(group, factors, why):
    assert check_certificate(group, factor_lines(*factors)) == why


def _map_text(image):
    """`(c1 c2 ...) -> (...)` lines, as unique-perm writes its map files."""
    return "".join(f"({' '.join(map(str, x))}) -> ({' '.join(map(str, y))})\n"
                   for x, y in image.items())


def _element_order(x, orders):
    return math.lcm(*(q // math.gcd(c, q) for c, q in zip(x, orders)))


def permuted_maps():
    """(l, m, map text, damaged map text or None) for each abelian type of
    order <= 64: l the type in a seeded order, m a seeded permutation of its
    coordinates, and the map x -> (x[s] for s in that permutation), written
    as `(c1 c2 ...) -> (...)` lines.  The damaged text swaps the images of
    two non-identity elements of different orders, if the type has them."""
    for t in abelian_types(64):
        rng = random.Random(repr(t))
        l = list(t)
        rng.shuffle(l)
        sigma = rng.sample(range(len(l)), len(l))
        elems = list(product(*map(range, l)))
        image = {x: tuple(x[s] for s in sigma) for x in elems}
        text = _map_text(image)
        damaged = None
        if len({_element_order(x, l) for x in elems[1:]}) > 1:
            a = rng.choice(elems[1:])
            b = rng.choice([x for x in elems[1:] if _element_order(x, l) != _element_order(a, l)])
            image[a], image[b] = image[b], image[a]
            damaged = _map_text(image)
        yield l, [l[s] for s in sigma], text, damaged


def unique(l, m, text, path):
    """(exit code, stdout, stderr) of `unique dp zn l1 ... -- dp zn m1 ... FILE`
    on the map text, in process."""
    path.write_text(text)
    dp = [["dp", *(tok for q in orders for tok in ("zn", str(q)))] for orders in (l, m)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["unique", *dp[0], "--", *dp[1], str(path)])
    return rc, out.getvalue(), err.getvalue()


def test_unique_maps_are_certificates(tmp_path):
    accepted = damaged = 0
    for l, m, text, bad in permuted_maps():
        assert check_map_certificate(l, m, text) is None, (l, m)
        rc, out, err = unique(l, m, text, tmp_path / "ok.map")
        assert (rc, out.splitlines()[-1], err) == (0, "permutation: true", ""), (l, m)
        accepted += 1
        if bad is not None:
            assert check_map_certificate(l, m, bad) == "the map is not a homomorphism", (l, m)
            rc, _, err = unique(l, m, bad, tmp_path / "bad.map")
            assert rc == 1 and err.startswith("error: map is not a homomorphism"), (l, m)
            damaged += 1
    # every type of order <= 64, and all but the 27 elementary abelian ones
    assert (accepted, damaged) == (116, 89)


@pytest.mark.parametrize("text, why", [
    pytest.param("(0) -> (0)\n(1) -> (1)\n", "the map does not cover the domain", id="short"),
    pytest.param("(0) -> (0)\n(1) -> (0)\n(2) -> (2)\n", "the map is not a bijection",
                 id="not-injective"),
    pytest.param("(0) -> (0)\n(0) -> (1)\n", "(0) is mapped twice", id="twice"),
    pytest.param("(0) -> (0)\n(3) -> (1)\n", "'(3) -> (1)' is not a pair of elements",
                 id="outside"),
    pytest.param("(0) (0)\n", "not a map line: '(0) (0)'", id="no-arrow"),
    pytest.param("0 -> (0)\n", "bad map line '0 -> (0)': not a tuple of numerals: '0'",
                 id="bare-label"),
])
def test_map_checker_rejects(text, why):
    assert check_map_certificate([3], [3], text) == why
