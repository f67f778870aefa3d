import importlib
import random

import pytest

from grouptables.abelian import abelian_factorization
from grouptables.core import cyclic_group, subgroup
from grouptables.errors import DomainError
from grouptables.gmaps import classify, homomorphism_check
from grouptables.pgroup import cyclic_p_group_list_p
from grouptables.products import (
    direct_product,
    group_tuples,
    product_list_map,
    product_orders,
)
from grouptables.uniqueness import orders

from conftest import relabelled
from lemmas import (
    bezout_decomposition,
    cyclic_subgroup_list,
    group_intersection,
    internal_direct_product_p,
    rel_prime_split,
    subgroup_ord_dividing,
)
from oracles import abelian_types, chained_cyclic_subgroup_list, invariant_factors


def dp(*ns):
    return direct_product([cyclic_group(n) for n in ns])


class TestSubgroupOrdDividing:
    def test_m_1_is_trivial(self, z12):
        assert subgroup_ord_dividing(1, z12).roster == (0,)

    def test_z12_m4(self, z12):
        assert subgroup_ord_dividing(4, z12).roster == (0, 3, 6, 9)

    def test_z12_m3(self, z12):
        assert subgroup_ord_dividing(3, z12).roster == (0, 4, 8)

    def test_non_abelian_rejected(self, s3):
        with pytest.raises(DomainError):
            subgroup_ord_dividing(2, s3)


class TestRelPrimeSplit:
    def test_z12(self, z12):
        h, k = rel_prime_split(z12, 4, 3)
        assert h.order == 4 and k.order == 3
        assert group_intersection(h, k, z12).roster == (0,)

    def test_z6(self, z6):
        h, k = rel_prime_split(z6, 2, 3)
        assert h.roster == (0, 3)
        assert k.roster == (0, 2, 4)

    def test_degenerate(self, z6):
        h, k = rel_prime_split(z6, 6, 1)
        assert h.order == 6 and k.order == 1

    def test_non_abelian_split_where_closed(self, s3):
        # the order-6 and order-5 element sets of S3 x Z5 are closed
        h, k = rel_prime_split(direct_product([s3, cyclic_group(5)]), 6, 5)
        assert (h.order, k.order) == (6, 5)
        with pytest.raises(DomainError):
            subgroup_ord_dividing(2, s3)

    def test_non_coprime_rejected(self, z4):
        with pytest.raises(DomainError):
            rel_prime_split(z4, 2, 2)

    def test_bezout_decomposition(self, z12):
        m, n = 4, 3
        h, k = rel_prime_split(z12, m, n)
        for x in z12.roster:
            hp, kp = bezout_decomposition(z12, x, m, n)
            assert z12.op(hp, kp) == x
            assert hp in h and kp in k


class TestCyclicSubgroupList:
    def test_z12(self, z12):
        l = cyclic_subgroup_list(z12)
        assert tuple(h.order for h in l) == (4, 3)

    def test_z2z2(self):
        l = cyclic_subgroup_list(dp(2, 2))
        assert tuple(h.order for h in l) == (2, 2)

    def test_trivial(self):
        assert cyclic_subgroup_list(cyclic_group(1)) == ()

    def test_block_order_ascending_prime(self):
        l = cyclic_subgroup_list(dp(6, 6))
        # p = 2 block first, then p = 3 block
        assert tuple(h.order for h in l) == (2, 2, 3, 3)

    def test_idp_conjuncts(self):
        for g in (cyclic_group(30), dp(4, 6), dp(2, 2, 3)):
            l = cyclic_subgroup_list(g)
            assert cyclic_p_group_list_p(l)
            assert internal_direct_product_p(list(l), g)
            assert product_orders(l) == g.order


class TestChainedOracle:
    @pytest.mark.parametrize("form, seed", [("primary", 1), ("invariant", 2), ("relabelled", 3)])
    def test_loop_equals_chained_reference(self, form, seed):
        """Exact equality, factor by factor (roster and table), over every
        abelian type of order <= 256 built with its moduli in a seeded
        random order, or as a seeded relabelled copy of its primary form,
        whose blocks lie scattered through the roster.  The reference
        builds each block as a subgroup in g's roster order, so it checks
        that an index block keeps that order."""
        rng = random.Random(seed)
        types = abelian_types(256)
        assert len(types) == 515
        for t in types:
            moduli = list(t if form != "invariant" else invariant_factors(t))
            rng.shuffle(moduli)
            g = dp(*moduli)
            if form == "relabelled":
                g = relabelled(g, rng)
            assert cyclic_subgroup_list(g) == chained_cyclic_subgroup_list(g), moduli


class TestAbelianFactorization:
    def test_z6(self, z6):
        fact = abelian_factorization(z6)
        assert orders(fact.factors) == (2, 3)
        dpf = direct_product(list(fact.factors))
        assert homomorphism_check(fact.iso, dpf, z6) is None
        assert classify(fact.iso, dpf, z6).isomorphism

    def test_z2z4(self, z2xz4):
        fact = abelian_factorization(z2xz4)
        assert sorted(orders(fact.factors)) == [2, 4]

    def test_z8_single_factor(self):
        fact = abelian_factorization(cyclic_group(8))
        assert orders(fact.factors) == (8,)

    def test_non_abelian_rejected(self, s3):
        with pytest.raises(DomainError):
            abelian_factorization(s3)

    def test_isomorphism_checked_once(self, hom_check_calls):
        abelian_factorization(dp(2, 2, 2, 2))
        assert hom_check_calls == [(16, 16)]

    def test_trivial_rejected(self):
        with pytest.raises(DomainError):
            abelian_factorization(cyclic_group(1))

    def test_each_precondition_checked_once(self, factorization_calls, split_calls):
        """g is checked abelian once, at the one checked entry, and the one
        factorization loop runs once; no block is built as a subgroup: the
        one subgroup built per factor is the factor.
        Z2^4 x Z9, Z2 x Z3 x Z5 and Z8 x Z8 have 5, 3 and 2 factors."""
        for g, factors in ((dp(2, 2, 2, 2, 9), 5), (dp(2, 3, 5), 3), (dp(8, 8), 2)):
            factorization_calls.clear()
            split_calls.clear()
            abelian_factorization(g)
            assert factorization_calls["_cyclic_subgroup_list"] == 1
            assert factorization_calls["internal_direct_product_p"] == 0
            assert split_calls == {"abelianp": 1, "subgroup": factors}

    @pytest.mark.parametrize("copies", [2, 1])
    def test_isomorphism_check_is_the_only_guard(self, monkeypatch, z4, copies):
        # [<2>, <2>] has the right product order but is no internal direct
        # product; [<2>] is short of the group order
        abelian = importlib.import_module("grouptables.abelian")
        bad = [subgroup(z4, (0, 2))] * copies
        monkeypatch.setattr(abelian, "_cyclic_subgroup_list", lambda g: tuple(bad))
        with pytest.raises(RuntimeError, match="factorization map not an isomorphism"):
            abelian_factorization(z4)
        m = product_list_map(bad, z4)
        dpb = direct_product(bad)
        assert tuple(k for k, _ in m.pairs) == group_tuples(bad)
        assert homomorphism_check(m, dpb, z4) is None
        assert not classify(m, dpb, z4).isomorphism

    def test_corpus_full_verification(self, small_abelian_corpus):
        for ms, g in small_abelian_corpus:
            fact = abelian_factorization(g)
            assert product_orders(fact.factors) == g.order
            assert cyclic_p_group_list_p(fact.factors)
            assert internal_direct_product_p(list(fact.factors), g)
