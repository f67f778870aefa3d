"""tests/certcheck.py stands apart from the library, and it rejects
certificates that are false."""
import ast
import sys
from pathlib import Path

import pytest

import certcheck
from certcheck import check_certificate, split_labels
from grouptables.core import cyclic_group
from grouptables.fileformat import print_group
from grouptables.products import direct_product

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
