import pytest

from grouptables.core import (
    check_group,
    cyclic,
    cyclic_group,
    subgroup,
)
from grouptables.errors import DomainError, ResourceError
from grouptables.gmaps import classify, homomorphism_check
from grouptables.products import (
    direct_product,
    group_tuples,
    product_list_map,
    product_orders,
)
from grouptables.core import abelianp

from lemmas import (
    dp_index_compare,
    internal_direct_product_append,
    internal_direct_product_p,
    lift_cosets,
    product_group,
    product_group_list,
    products,
    trivial_subgroup,
)
from oracles import all_subgroups


class TestGroupTuples:
    def test_single_factor(self):
        assert group_tuples([cyclic_group(2)]) == ((0,), (1,))

    def test_z2_z2_order(self):
        assert group_tuples([cyclic_group(2), cyclic_group(2)]) == (
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        )

    def test_length_is_product(self):
        l = [cyclic_group(2), cyclic_group(3), cyclic_group(4)]
        assert len(group_tuples(l)) == 24

    def test_first_tuple_is_identity_list(self):
        l = [cyclic_group(3), cyclic_group(5)]
        assert group_tuples(l)[0] == (0, 0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            group_tuples([])


class TestDirectProduct:
    def test_single_trivial(self):
        g = direct_product([cyclic_group(1)])
        assert g.order == 1

    def test_z2_z3_has_order_6_element(self):
        g = direct_product([cyclic_group(2), cyclic_group(3)])
        assert g.element_order((1, 1)) == 6

    def test_passes_validation(self):
        g = direct_product([cyclic_group(2), cyclic_group(4)])
        assert check_group(g.roster, g.table) is None

    def test_table_is_componentwise_op(self, small_abelian_corpus, s3):
        lists = [[cyclic_group(k) for k in ms] for ms, _ in small_abelian_corpus]
        for l in lists + [[s3, cyclic_group(2)], [cyclic_group(2), s3]]:
            g = direct_product(l)
            roster = group_tuples(l)
            assert g.roster == roster
            assert g.table.tolist() == [
                [roster.index(tuple(f.op(a, b) for f, a, b in zip(l, x, y))) for y in roster]
                for x in roster
            ]

    def test_abelian_iff_all_factors(self, s3):
        assert abelianp(direct_product([cyclic_group(2), cyclic_group(3)]))
        assert not abelianp(direct_product([cyclic_group(2), s3]))

    def test_order_guard(self):
        with pytest.raises(ResourceError):
            direct_product([cyclic_group(64), cyclic_group(64)])


class TestDpIndexCompare:
    def test_identity_first(self):
        l = [cyclic_group(2), cyclic_group(2)]
        g = direct_product(l)
        for y in g.roster[1:]:
            assert dp_index_compare(l, (0, 0), y)

    def test_example(self):
        l = [cyclic_group(2), cyclic_group(2)]
        assert dp_index_compare(l, (0, 1), (1, 0))

    def test_irreflexive(self):
        l = [cyclic_group(2), cyclic_group(3)]
        for x in direct_product(l).roster:
            assert not dp_index_compare(l, x, x)

    def test_agrees_with_positional_index(self):
        l = [cyclic_group(2), cyclic_group(3)]
        g = direct_product(l)
        for x in g.roster:
            for y in g.roster:
                assert dp_index_compare(l, x, y) == (g.index(x) < g.index(y))


class TestProducts:
    def test_trivial_trivial(self, z6):
        t = trivial_subgroup(z6)
        assert products(t, t, z6) == (0,)

    def test_z6_generating_pair(self, z6):
        h, k = cyclic(3, z6), cyclic(2, z6)
        assert products(h, k, z6) == (0, 1, 2, 3, 4, 5)

    def test_z4_self_product(self, z4):
        h = subgroup(z4, (0, 2))
        assert products(h, h, z4) == (0, 2)

    def test_len_products_all_pairs_z12(self, z12):
        from lemmas import group_intersection

        subs = all_subgroups(z12)
        for h in subs:
            for k in subs:
                i = group_intersection(h, k, z12)
                assert len(products(h, k, z12)) == h.order * k.order // i.order


    def test_products_match_definition(self, corpus_with_subgroups):
        # S3 and S4 bring pairs where neither subgroup is normal
        for g, subs in corpus_with_subgroups:
            for h in subs:
                for k in subs:
                    expected = {g.op(a, b) for a in h.roster for b in k.roster}
                    assert products(h, k, g) == tuple(sorted(expected, key=g.index))


class TestProductGroup:
    def test_z6(self, z6):
        pg = product_group(cyclic(3, z6), cyclic(2, z6), z6)
        assert pg.roster == z6.roster

    def test_product_with_trivial(self, z6):
        h = cyclic(2, z6)
        pg = product_group(h, trivial_subgroup(z6), z6)
        assert pg.roster == tuple(sorted(h.roster))

    def test_neither_normal_rejected(self, s3):
        h = cyclic((1, 0, 2), s3)
        k = cyclic((0, 2, 1), s3)
        with pytest.raises(DomainError):
            product_group(h, k, s3)


class TestLiftCosets:
    def test_trivial_h(self, z6):
        k = cyclic(2, z6)
        lc = lift_cosets(trivial_subgroup(z6), k, z6)
        assert lc == ((0, 2, 4),)

    def test_z6_three_cosets(self, z6):
        h, k = cyclic(2, z6), cyclic(3, z6)
        lc = lift_cosets(h, k, z6)
        assert len(lc) == 3 and all(len(c) == 2 for c in lc)
        flat = [x for c in lc for x in c]
        assert len(set(flat)) == 6

    def test_z4_overlap(self, z4):
        h = subgroup(z4, (0, 2))
        lc = lift_cosets(h, h, z4)
        assert lc == ((0, 2),)

    def test_concatenation_equals_products_as_set(self, z12):
        subs = all_subgroups(z12)
        for h in subs:
            for k in subs:
                flat = [x for c in lift_cosets(h, k, z12) for x in c]
                assert len(set(flat)) == len(flat)
                assert set(flat) == set(products(h, k, z12))


class TestInternalDirectProduct:
    def test_empty_gives_trivial(self, z6):
        assert product_group_list((), z6).roster == (0,)
        assert internal_direct_product_p((), z6)

    def test_z6_pair(self, z6):
        l = [cyclic(3, z6), cyclic(2, z6)]
        assert internal_direct_product_p(l, z6)

    def test_self_intersecting_pair(self, z4):
        h = subgroup(z4, (0, 2))
        assert not internal_direct_product_p([h, h], z4)

    def test_append_combinator(self, z6):
        combined = internal_direct_product_append(
            [cyclic(3, z6)], [cyclic(2, z6)], z6
        )
        assert internal_direct_product_p(list(combined), z6)

    def test_append_rejects_overlap(self, z4):
        h = subgroup(z4, (0, 2))
        with pytest.raises(DomainError):
            internal_direct_product_append([h], [h], z4)


class TestProductListMap:
    def test_singleton_is_identity_embedding(self, z4):
        g = subgroup(z4, z4.roster)
        m = product_list_map([g], z4)
        assert all(m.apply((x,)) == x for x in z4.roster)

    def test_z6_value(self, z6):
        l = [cyclic(3, z6), cyclic(2, z6)]
        m = product_list_map(l, z6)
        assert m.apply((3, 2)) == 5

    def test_verified_isomorphism(self, z6):
        l = [cyclic(3, z6), cyclic(2, z6)]
        m = product_list_map(l, z6)
        dp = direct_product(l)
        assert homomorphism_check(m, dp, z6) is None
        assert classify(m, dp, z6).isomorphism

    def test_z2z2_realized_internally(self):
        g = direct_product([cyclic_group(2), cyclic_group(2)])
        l = [cyclic((1, 0), g), cyclic((0, 1), g)]
        m = product_list_map(l, g)
        dp = direct_product(l)
        assert homomorphism_check(m, dp, g) is None
        assert classify(m, dp, g).isomorphism


def product_list_val(x, g):
    """x1 * (x2 * (... * xk)): the recursive fold product_list_map is defined by."""
    if len(x) == 1:
        return x[0]
    return g.op(x[0], product_list_val(x[1:], g))


def test_product_list_map_matches_recursive_fold(corpus_with_subgroups):
    from lemmas import cyclic_subgroup_list

    for g, _ in corpus_with_subgroups:
        lists = [[g], [trivial_subgroup(g), g], [g, trivial_subgroup(g)]]
        if abelianp(g):
            factors = list(cyclic_subgroup_list(g))
            lists += [factors, factors[::-1]]
        for l in lists:
            m = product_list_map(l, g)
            assert tuple(k for k, _ in m.pairs) == group_tuples(l)
            assert all(m.apply(x) == product_list_val(x, g) for x, _ in m.pairs)


def test_product_orders():
    assert product_orders([]) == 1
    assert product_orders([cyclic_group(4), cyclic_group(3)]) == 12


def test_products_matches_ord_insert_fold(z12):
    from lemmas import ord_insert

    subs = all_subgroups(z12)
    for h in subs:
        for k in subs:
            folded = ()
            for a in h.roster:
                for b in k.roster:
                    folded = ord_insert(z12.op(a, b), folded, z12)
            assert products(h, k, z12) == folded
