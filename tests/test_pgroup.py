import pytest

from grouptables.core import cyclic, cyclic_group, elt_of_ord, group_intersection
from grouptables.errors import DomainError
from grouptables.numtheory import least_prime_divisor
from grouptables.pgroup import (
    complement_subgroup,
    cyclic_p_group_list_p,
    cyclic_p_group_p,
    cyclic_p_subgroup_list,
    cyclicp,
    desired_properties_check,
    max_ord,
    p_groupp,
    split_witness,
)
from grouptables.products import (
    direct_product,
    internal_direct_product_p,
    product_orders,
)

from conftest import dp_cyclic_corpus
from oracles import recursive_complement_subgroup


def dp(*ns):
    return direct_product([cyclic_group(n) for n in ns])


class TestPredicates:
    def test_max_ord_cyclic(self, z4):
        assert max_ord(z4) == 4

    def test_max_ord_z2z2(self):
        assert max_ord(dp(2, 2)) == 2

    def test_max_ord_trivial(self):
        assert max_ord(cyclic_group(1)) == 1

    def test_p_groupp(self, z6):
        assert not p_groupp(z6, 2)
        assert p_groupp(cyclic_group(8), 2)
        assert p_groupp(cyclic_group(1), 3)

    def test_cyclicp(self, z6):
        assert cyclicp(z6)
        assert not cyclicp(dp(2, 2))

    def test_cyclic_p_group_p(self):
        assert cyclic_p_group_p(cyclic_group(9))
        assert not cyclic_p_group_p(cyclic_group(6))
        assert not cyclic_p_group_p(cyclic_group(1))
        assert not cyclic_p_group_p(dp(2, 2))


class TestSplitWitness:
    def test_z2z4(self):
        g = dp(2, 4)
        a = elt_of_ord(max_ord(g), g)
        sd = split_witness(a, 2, g)
        g1 = cyclic(a, g)
        assert sd.i % 2 == 0 and sd.j == sd.i // 2
        assert g.power(sd.y, 2) == g.identity
        assert g.element_order(sd.y) == 2
        assert sd.y not in g1
        assert sd.c.order == 2
        assert group_intersection(g1, sd.c, g).order == 1

    def test_z2z2(self):
        g = dp(2, 2)
        a = elt_of_ord(2, g)
        sd = split_witness(a, 2, g)
        g1 = cyclic(a, g)
        assert g.element_order(sd.y) == 2
        assert g1.order * sd.c.order == 4

    def test_cyclic_rejected(self, z4):
        with pytest.raises(DomainError):
            split_witness(1, 2, z4)


class TestComplement:
    def test_z2z4(self):
        g = dp(2, 4)
        a = elt_of_ord(4, g)
        g2 = complement_subgroup(a, 2, g)
        assert g2.order == 2
        ok, why = desired_properties_check(g, cyclic(a, g), g2)
        assert ok, why

    def test_z2z2z2(self):
        g = dp(2, 2, 2)
        a = elt_of_ord(2, g)
        g2 = complement_subgroup(a, 2, g)
        assert g2.order == 4
        ok, why = desired_properties_check(g, cyclic(a, g), g2)
        assert ok, why

    def test_z2z2_base_case(self):
        g = dp(2, 2)
        a = elt_of_ord(2, g)
        sd = split_witness(a, 2, g)
        g2 = complement_subgroup(a, 2, g)
        assert g2 == sd.c  # quotient of order 2 is cyclic


class TestComplementOracle:
    def test_loop_equals_recursive_reference(self):
        """Exact equality, roster order included, over every non-cyclic
        abelian p-group of order <= 64 and every a of maximal order."""
        groups = checked = 0
        for _, g in dp_cyclic_corpus(64):
            p = least_prime_divisor(g.order)
            if not p_groupp(g, p) or cyclicp(g):
                continue
            groups += 1
            for a in g.roster:
                if g.element_order(a) == max_ord(g):
                    assert complement_subgroup(a, p, g) == recursive_complement_subgroup(a, p, g)
                    checked += 1
        assert groups == 28 and checked > groups

    @pytest.mark.parametrize("p, ns", [(2, (2, 2, 2, 2)), (2, (2, 4, 8)), (3, (3, 3, 9))])
    def test_split_checked_once_per_complement(self, p, ns, split_calls):
        fact = cyclic_p_subgroup_list(p, dp(*ns))
        assert sorted(fact.orders) == sorted(ns)
        calls = len(ns) - 1  # one complement per factor but the last
        assert split_calls == {"complement_subgroup": calls, "split_witness": calls}


class TestDesiredPropertiesCheck:
    def test_failure_on_equal_subgroups(self, z4):
        g1 = cyclic(1, z4)
        ok, why = desired_properties_check(z4, g1, g1)
        assert not ok and "intersect" in why or "orders" in why

    def test_order_mismatch_detected(self):
        from grouptables.core import trivial_subgroup

        g = dp(2, 4)
        a = elt_of_ord(4, g)
        ok, why = desired_properties_check(g, cyclic(a, g), trivial_subgroup(g))
        assert not ok and why == "orders do not multiply to |g|"


class TestFactorization:
    def test_cyclic_case(self):
        fact = cyclic_p_subgroup_list(2, cyclic_group(8))
        assert fact.orders == (8,)

    def test_z2z4(self):
        fact = cyclic_p_subgroup_list(2, dp(2, 4))
        assert sorted(fact.orders) == [2, 4]

    def test_z2z2z2(self):
        fact = cyclic_p_subgroup_list(2, dp(2, 2, 2))
        assert fact.orders == (2, 2, 2)

    def test_trivial(self):
        assert cyclic_p_subgroup_list(5, cyclic_group(1)).factors == ()

    def test_four_conjuncts_on_samples(self):
        cases = [(2, dp(4, 4)), (2, dp(2, 8)), (3, dp(3, 9)), (5, dp(5, 5))]
        for p, g in cases:
            fact = cyclic_p_subgroup_list(p, g)
            assert fact.factors  # consp
            assert cyclic_p_group_list_p(fact.factors)
            assert internal_direct_product_p(list(fact.factors), g)
            assert product_orders(fact.factors) == g.order

    def test_orders_non_increasing(self):
        for p, g in [(2, dp(2, 4, 4)), (2, dp(2, 2, 8)), (3, dp(3, 27))]:
            fact = cyclic_p_subgroup_list(p, g)
            assert list(fact.orders) == sorted(fact.orders, reverse=True)

    def test_guard(self, z6):
        with pytest.raises(DomainError):
            cyclic_p_subgroup_list(2, z6)


def test_astar_preserves_max_ord():
    from grouptables.core import lcoset, quotient

    g = dp(2, 4)
    a = elt_of_ord(max_ord(g), g)
    sd = split_witness(a, 2, g)
    gstar = quotient(g, sd.c)
    astar = lcoset(a, sd.c, g)
    assert gstar.element_order(astar) == max_ord(g) == max_ord(gstar)
