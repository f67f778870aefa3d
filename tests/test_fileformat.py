import numpy as np
import pytest

from grouptables.core import cyclic, cyclic_group, symmetric_group
from grouptables.errors import DomainError, ResourceError
from grouptables.fileformat import (
    format_element,
    load_group,
    parse_element,
    parse_elements,
    parse_group,
    parse_map,
    print_group,
    print_map,
)
from grouptables.gmaps import identity_map, map_from_function
from grouptables.products import direct_product

from lemmas import quotient


class TestElements:
    def test_atoms(self):
        assert format_element(7) == "7"
        assert parse_element("7") == 7
        assert parse_element("x") == "x"

    def test_tuples(self):
        assert format_element((0, 1)) == "(0 1)"
        assert parse_element("(0 1)") == (0, 1)

    def test_nested(self):
        x = ((0, 1), (2, (3, 4)))
        assert parse_element(format_element(x)) == x

    def test_multi(self):
        assert parse_elements("0 (1 2) 3") == [0, (1, 2), 3]

    def test_numeric_looking_symbols(self):
        # one leading '-' is a sign; '²' passes str.isdigit but not int()
        assert parse_element("-1") == -1
        for label in ("²", "--1", "-", "-²", "1_0", "+1"):
            assert parse_element(label) == label

    def test_nesting_guard(self):
        deepest = "(" * 32 + "0" + ")" * 32
        assert format_element(parse_element(deepest)) == deepest
        for depth in (33, 3000):
            with pytest.raises(ResourceError, match="32"):
                parse_element("(" * depth + "0" + ")" * depth)

    def test_unbalanced(self):
        with pytest.raises(DomainError):
            parse_element("(0 1")
        with pytest.raises(DomainError):
            parse_element(")")


class TestGroupFiles:
    @pytest.mark.parametrize(
        "g",
        [
            cyclic_group(1),
            cyclic_group(6),
            symmetric_group(3),
            direct_product([cyclic_group(2), cyclic_group(3)]),
        ],
        ids=["z1", "z6", "s3", "z2xz3"],
    )
    def test_round_trip(self, g):
        assert load_group(print_group(g)) == g

    def test_round_trip_quotient_labels(self):
        z4 = cyclic_group(4)
        q = quotient(z4, cyclic(2, z4))
        assert load_group(print_group(q)) == q

    def test_plain_table_is_read_into_index_array(self, small_abelian_corpus):
        z4 = cyclic_group(4)
        groups = [g for _, g in small_abelian_corpus]
        groups += [symmetric_group(k) for k in (3, 4, 5)] + [quotient(z4, cyclic(2, z4))]
        for g in groups:
            roster, table = parse_group(print_group(g))
            assert roster == g.roster
            assert isinstance(table, np.ndarray) and table.dtype.kind in "iu"
            assert np.array_equal(table, g.table)

    def test_bad_header(self):
        with pytest.raises(DomainError):
            parse_group("grp 2\n0 1\n0 1\n1 0\n")

    def test_non_decimal_numerals(self):
        for text in ("group ²\n0\n0\n", "group 2\n0 1\n0 1\n1 ²\n"):
            with pytest.raises(DomainError):
                parse_group(text)

    def test_wrong_line_count(self):
        with pytest.raises(DomainError):
            parse_group("group 2\n0 1\n0 1\n")

    def test_order_guard_before_rows(self):
        # the rows are not there; the header alone is rejected
        with pytest.raises(ResourceError, match="257"):
            parse_group("group 257\n")
        with pytest.raises(DomainError):
            parse_group("group 256\n")


class TestMapFiles:
    def test_round_trip(self):
        z4 = cyclic_group(4)
        m = map_from_function(z4.roster, lambda x: (3 * x) % 4)
        assert parse_map(print_map(m)) == m

    def test_tuple_keys(self):
        g = direct_product([cyclic_group(2), cyclic_group(2)])
        m = map_from_function(g.roster, lambda x: (x[1], x[0]))
        assert parse_map(print_map(m)) == m

    @pytest.mark.parametrize("label", ["a->b", "->", "x->", "->y", "(a -> b)", "(-> (->) ->)"])
    def test_labels_holding_arrows(self, label):
        m = identity_map(load_group(f"group 2\n0 {label}\n0 1\n1 0\n").roster)
        assert parse_map(print_map(m)) == m

    def test_bad_line(self):
        with pytest.raises(DomainError):
            parse_map("0 = 1\n")
