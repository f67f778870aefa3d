import random
from functools import cache

import pytest

from grouptables.core import cyclic, cyclic_group
from grouptables.errors import DomainError
from grouptables.numtheory import least_prime_divisor
from grouptables.pgroup import (
    cyclic_p_group_list_p,
    cyclic_p_group_p,
    cyclicp,
    max_ord,
    p_groupp,
)
from grouptables.products import direct_product, product_orders
from grouptables.uniqueness import orders

from conftest import dp_cyclic_corpus, relabelled
from lemmas import (
    complement_subgroup,
    cyclic_p_subgroup_list,
    desired_properties_check,
    elt_of_ord,
    group_intersection,
    internal_direct_product_p,
    split_witness,
)
from oracles import (
    is_prime_power,
    nested_cyclic_p_subgroup_list,
    quotient_split,
    recursive_complement_subgroup,
)


def dp(*ns):
    return direct_product([cyclic_group(n) for n in ns])


@cache
def maximal_order_splits(min_order, max_order):
    """(p, g, every a of maximal order in g) for each non-cyclic abelian
    p-group g, as a direct product of cyclic groups, of order in range."""
    out = []
    for n in filter(is_prime_power, range(min_order, max_order + 1)):
        for _, g in dp_cyclic_corpus(n, n):
            if not cyclicp(g):
                out.append((least_prime_divisor(n), g,
                            [a for a in g.roster if g.element_order(a) == max_ord(g)]))
    return out


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
        abelian p-group of order <= 64 and every a of maximal order, and
        over a seeded sample of at most 6 such a in each of order 65..256."""
        groups = checked = 0
        for p, g, maximal in maximal_order_splits(2, 64):
            groups += 1
            for a in maximal:
                assert complement_subgroup(a, p, g) == recursive_complement_subgroup(a, p, g)
                checked += 1
        assert groups == 28 and checked > groups
        rng, larger = random.Random(21), maximal_order_splits(65, 256)
        for p, g, maximal in larger:
            for a in rng.sample(maximal, min(6, len(maximal))):
                assert complement_subgroup(a, p, g) == recursive_complement_subgroup(a, p, g)
        assert len(larger) == 49

    def test_split_equals_quotient_split(self):
        """The whole SplitData, c included, against the split read off the
        quotient g/<a>, for every a of maximal order in every non-cyclic
        abelian p-group of order <= 64."""
        checked = 0
        for p, g, maximal in maximal_order_splits(2, 64):
            for a in maximal:
                assert split_witness(a, p, g) == quotient_split(a, p, g)
                checked += 1
        assert checked == 707

    def test_factors_equal_nested_reference(self):
        """Exact equality, rosters and tables, with the former loop, which
        built each complement as a subgroup through quotients and split it
        in its own roster order, over every non-cyclic abelian p-group of
        order <= 256, as built and as two relabelled copies."""
        rng, checked = random.Random(25), 0
        for p, g, _ in maximal_order_splits(2, 64) + maximal_order_splits(65, 256):
            for h in (g, relabelled(g, rng), relabelled(g, rng)):
                assert cyclic_p_subgroup_list(p, h) == nested_cyclic_p_subgroup_list(p, h)
                checked += 1
        assert checked == 231

    @pytest.mark.parametrize("p, ns", [(2, (2, 2, 2, 2)), (2, (2, 4, 8)), (3, (3, 3, 9))])
    def test_split_checked_once_per_complement(self, p, ns, split_calls):
        """g is checked once, and no complement is built as a subgroup: the
        one subgroup built per factor is the factor."""
        fact = cyclic_p_subgroup_list(p, dp(*ns))
        assert sorted(orders(fact)) == sorted(ns)
        assert split_calls == {"abelianp": 1, "subgroup": len(ns)}


class TestDesiredPropertiesCheck:
    def test_failure_on_equal_subgroups(self, z4):
        g1 = cyclic(1, z4)
        ok, why = desired_properties_check(z4, g1, g1)
        assert not ok and "intersect" in why or "orders" in why

    def test_order_mismatch_detected(self):
        from lemmas import trivial_subgroup

        g = dp(2, 4)
        a = elt_of_ord(4, g)
        ok, why = desired_properties_check(g, cyclic(a, g), trivial_subgroup(g))
        assert not ok and why == "orders do not multiply to |g|"


class TestFactorization:
    def test_cyclic_case(self):
        fact = cyclic_p_subgroup_list(2, cyclic_group(8))
        assert orders(fact) == (8,)

    def test_z2z4(self):
        fact = cyclic_p_subgroup_list(2, dp(2, 4))
        assert sorted(orders(fact)) == [2, 4]

    def test_z2z2z2(self):
        fact = cyclic_p_subgroup_list(2, dp(2, 2, 2))
        assert orders(fact) == (2, 2, 2)

    def test_trivial(self):
        assert cyclic_p_subgroup_list(5, cyclic_group(1)) == ()

    def test_four_conjuncts_on_samples(self):
        cases = [(2, dp(4, 4)), (2, dp(2, 8)), (3, dp(3, 9)), (5, dp(5, 5))]
        for p, g in cases:
            fact = cyclic_p_subgroup_list(p, g)
            assert fact  # consp
            assert cyclic_p_group_list_p(fact)
            assert internal_direct_product_p(list(fact), g)
            assert product_orders(fact) == g.order

    def test_orders_non_increasing(self):
        for p, g in [(2, dp(2, 4, 4)), (2, dp(2, 2, 8)), (3, dp(3, 27))]:
            fact = cyclic_p_subgroup_list(p, g)
            assert list(orders(fact)) == sorted(orders(fact), reverse=True)

    def test_guard(self, z6):
        with pytest.raises(DomainError):
            cyclic_p_subgroup_list(2, z6)


def test_astar_preserves_max_ord():
    from lemmas import lcoset, quotient

    g = dp(2, 4)
    a = elt_of_ord(max_ord(g), g)
    sd = split_witness(a, 2, g)
    gstar = quotient(g, sd.c)
    astar = lcoset(a, sd.c, g)
    assert gstar.element_order(astar) == max_ord(g) == max_ord(gstar)
