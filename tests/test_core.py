import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grouptables.core import (
    FiniteGroup,
    GroupAxiomError,
    abelianp,
    check_group,
    cyclic,
    cyclic_group,
    powers,
    subgroup,
    symmetric_group,
    validate_group,
)
from grouptables.errors import DomainError
from grouptables.products import direct_product

from conftest import relabelled
from lemmas import (
    _coset_rows,
    elt_of_ord,
    group_intersection,
    lcoset,
    lcosets,
    lift,
    normalp,
    ord_insert,
    ordp,
    quotient,
    subgroupp,
    trivial_subgroup,
)
from oracles import all_subgroups, conjugated_normalp, generated_subgroup, masked_coset_rows


@pytest.fixture(params=["z12", "z2xz4", "s3"])
def group_and_subgroups(request):
    """A small group with every one of its subgroups."""
    g = request.getfixturevalue(request.param)
    return g, all_subgroups(g)


@pytest.fixture(scope="module")
def coset_corpus(corpus_with_subgroups):
    """(group, subgroups) for corpus_with_subgroups, for a relabelling of
    each of its groups with the same subgroups, and for S5 with its cyclic
    subgroups, a point stabilizer S4, a dihedral D5, A5 and S5 itself."""
    rng = random.Random("cosets")
    relabellings = []
    for g, subs in corpus_with_subgroups:
        rg = relabelled(g, rng)
        relabellings.append((rg, [subgroup(rg, h.roster) for h in subs]))
    s5 = symmetric_group(5)
    cyclics = {frozenset(h.roster): h for h in (cyclic(a, s5) for a in s5.roster)}
    generated = [generated_subgroup(s5, gens) for gens in (
        [(1, 0, 2, 3, 4), (1, 2, 3, 0, 4)],  # fixes 4
        [(1, 2, 3, 4, 0), (4, 3, 2, 1, 0)],
        [(1, 2, 0, 3, 4), (0, 2, 3, 1, 4), (0, 1, 3, 4, 2)],  # 3-cycles
        [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)],
    )]
    return corpus_with_subgroups + relabellings + [(s5, [*cyclics.values(), *generated])]


class TestValidation:
    def test_trivial_group(self):
        g = validate_group([0], [[0]])
        assert g.order == 1 and g.identity == 0

    def test_z4_table(self):
        z4 = cyclic_group(4)
        assert check_group(z4.roster, z4.table) is None

    def test_perturbed_z4_fails_with_witness(self):
        table = [list(row) for row in cyclic_group(4).table]
        table[1][1] = 3
        violation = check_group(range(4), table)
        assert violation is not None
        assert violation.kind in ("associativity", "inverse")
        with pytest.raises(GroupAxiomError):
            validate_group(range(4), table)

    def test_duplicate_roster(self):
        assert check_group([0, 0], [[0, 1], [1, 0]]).kind == "roster"

    def test_identity_row_violation(self):
        assert check_group([0, 1], [[1, 0], [1, 0]]).kind == "identity-row"

    def test_closure_violation(self):
        assert check_group([0, 1], [[0, 1], [1, 7]]).kind == "closure"

    def test_table_is_read_only(self, z4, s3, z2xz4):
        for g in (z4, s3, z2xz4, subgroup(z4, (0, 2)), quotient(z4, subgroup(z4, (0, 2))),
                  validate_group(range(2), [[0, 1], [1, 0]])):
            with pytest.raises(ValueError):
                g.table[0, 0] = 1


class TestOps:
    def test_z4_op(self, z4):
        assert z4.op(1, 3) == 0
        assert z4.op(0, 2) == 2

    def test_identity_law(self, z6, s3):
        for g in (z6, s3):
            for x in g.roster:
                assert g.op(g.identity, x) == x

    def test_s3_transpositions_compose_to_cycle(self, s3):
        t1, t2 = (1, 0, 2), (0, 2, 1)
        # permutation composition oracle: apply t2 then t1
        expected = tuple(t1[t2[i]] for i in range(3))
        assert s3.op(t1, t2) == expected
        assert s3.element_order(expected) == 3

    def test_z6_ord_inv(self, z6):
        assert z6.element_order(2) == 3
        assert z6.inv(2) == 4

    def test_power_of_ord_is_identity(self, z6, s3):
        for g in (z6, s3):
            for x in g.roster:
                assert g.power(x, g.element_order(x)) == g.identity

    def test_negative_power(self, z6):
        assert z6.power(2, -1) == 4
        assert z6.power(2, -2) == z6.power(4, 2)

    def test_orders_match_definition(self, corpus_with_subgroups):
        for g, _ in corpus_with_subgroups:
            for x in g.roster:
                acc, k = x, 1
                while acc != g.identity:
                    acc, k = g.op(acc, x), k + 1
                assert g.element_order(x) == k

    def test_power_matches_repeated_op(self, corpus_with_subgroups):
        # negative exponents and exponents past the element's order
        for g, _ in corpus_with_subgroups:
            for x in g.roster:
                k = g.element_order(x)
                for n in range(-2 * k - 1, 2 * k + 2):
                    step = x if n >= 0 else g.inv(x)
                    expected = g.identity
                    for _ in range(abs(n)):
                        expected = g.op(expected, step)
                    assert g.power(x, n) == expected

    def test_membership_error(self, z4):
        with pytest.raises(DomainError):
            z4.op(1, 9)


class TestCyclicSubgroups:
    def test_powers_z6(self, z6):
        assert powers(z6, 2) == (0, 2, 4)

    def test_powers_identity(self, z4):
        assert powers(z4, 0) == (0,)

    def test_powers_match_definition(self, corpus_with_subgroups):
        for g, _ in corpus_with_subgroups:
            for a in g.roster:
                expected = [g.identity]
                acc = g.op(g.identity, a)
                while acc != g.identity:
                    expected.append(acc)
                    acc = g.op(acc, a)
                assert powers(g, a) == tuple(expected)

    def test_cyclic_generator_full(self, z4):
        assert cyclic(1, z4).roster == (0, 1, 2, 3)

    def test_elt_of_ord(self, z6, z4):
        assert elt_of_ord(2, z6) == 3
        assert elt_of_ord(1, z6) == 0
        assert elt_of_ord(3, z4) is None

    def test_ord_insert(self, z4):
        assert ord_insert(2, (0, 3), z4) == (0, 2, 3)
        assert ord_insert(0, (0,), z4) == (0,)


class TestSubgroup:
    def test_table_is_restricted_operation(self, group_and_subgroups):
        g, subs = group_and_subgroups
        for h in subs:
            # the parent order and a roster whose embedding is not monotone
            for roster in (h.roster, h.roster[:1] + h.roster[:0:-1]):
                k = subgroup(g, roster)
                assert k.roster == roster
                assert k.table.tolist() == [
                    [roster.index(g.op(x, y)) for y in roster] for x in roster
                ]

    def test_unclosed_roster_reports_first_pair(self, group_and_subgroups):
        g, _ = group_and_subgroups
        for roster in (g.roster[:3], g.roster[:1] + g.roster[:1:-1], g.roster[:-1]):
            first = next(
                (x, y, g.op(x, y))
                for x in roster for y in roster if g.op(x, y) not in roster
            )
            with pytest.raises(DomainError) as exc:
                subgroup(g, roster)
            assert str(exc.value) == "roster not closed: %r * %r = %r" % first

    def test_subgroupp_matches_definition(self, group_and_subgroups):
        g, subs = group_and_subgroups
        z4 = cyclic_group(4)
        klein = validate_group(range(4), [[i ^ j for j in range(4)] for i in range(4)])
        pairs = [(h, k) for h in subs for k in subs + [g]]
        pairs += [(h, z4) for h in all_subgroups(klein)] + [(klein, z4), (z4, klein)]
        rg = relabelled(g, random.Random(g.order))
        pairs += [(h, rg) for h in subs] + [(subgroup(rg, h.roster), g) for h in subs]
        for h, k in pairs:
            expected = (
                all(x in k for x in h.roster)
                and h.identity == k.identity
                and all(h.op(x, y) == k.op(x, y) for x in h.roster for y in h.roster)
            )
            assert subgroupp(h, k) == expected

    def test_subgroupp_of_empty_roster_is_false(self, group_and_subgroups):
        g, _ = group_and_subgroups
        assert not subgroupp(FiniteGroup((), np.zeros((0, 0))), g)


@given(st.permutations([0, 1, 2, 3]))
def test_ord_insert_fold_order_independent(perm):
    z4 = cyclic_group(4)
    acc = ()
    for x in perm:
        acc = ord_insert(x, acc, z4)
    assert acc == (0, 1, 2, 3)


def coset_definition(h, g):
    """{x: x*h in g order}, keyed in g-roster order, and the distinct cosets
    in order of first occurrence."""
    cosets = {x: tuple(sorted({g.op(x, y) for y in h.roster}, key=g.index)) for x in g.roster}
    return cosets, tuple(dict.fromkeys(cosets.values()))


class TestCosets:
    def test_z4_lcoset(self, z4):
        h = subgroup(z4, (0, 2))
        assert lcoset(1, h, z4) == (1, 3)

    def test_identity_coset_is_reordered_h(self, z6):
        h = cyclic(2, z6)
        assert lcoset(0, h, z6) == tuple(sorted(h.roster))

    def test_z4_lcosets(self, z4):
        h = subgroup(z4, (0, 2))
        assert lcosets(h, z4) == ((0, 2), (1, 3))

    def test_partition(self, s3):
        for a in s3.roster:
            h = cyclic(a, s3)
            cos = lcosets(h, s3)
            flat = [x for c in cos for x in c]
            assert sorted(flat, key=s3.index) == list(
                sorted(s3.roster, key=s3.index)
            )
            assert all(len(c) == h.order for c in cos)

    def test_cosets_match_definition(self, coset_corpus):
        # S3, S4 and S5 bring non-normal subgroups, whose left cosets differ
        # from their right cosets
        for g, subs in coset_corpus:
            for h in subs:
                cosets, distinct = coset_definition(h, g)
                assert all(lcoset(x, h, g) == c for x, c in cosets.items())
                assert lcosets(h, g) == distinct
                assert np.array_equal(_coset_rows(h, g), masked_coset_rows(h, g))


class TestNormalQuotient:
    def test_abelian_always_normal(self, z6):
        for a in z6.roster:
            assert normalp(cyclic(a, z6), z6)

    def test_s3_two_element_subgroup_not_normal(self, s3):
        h = cyclic((1, 0, 2), s3)
        assert h.order == 2
        assert not normalp(h, s3)

    def test_z4_quotient(self, z4):
        q = quotient(z4, subgroup(z4, (0, 2)))
        assert q.order == 2
        assert q.identity == (0, 2)
        assert check_group(q.roster, q.table) is None

    def test_quotient_requires_normal(self, s3):
        with pytest.raises(DomainError):
            quotient(s3, cyclic((1, 0, 2), s3))

    def test_quotient_order(self, z12):
        n = cyclic(4, z12)
        q = quotient(z12, n)
        assert q.order == z12.order // n.order

    def test_normalp_matches_definition(self, group_and_subgroups):
        g, subs = group_and_subgroups
        rg = relabelled(g, random.Random(g.order))
        for k, h in [(g, h) for h in subs] + [(rg, subgroup(rg, h.roster)) for h in subs]:
            assert normalp(h, k) == all(
                k.op(x, k.op(y, k.inv(x))) in h for x in k.roster for y in h.roster
            )

    def test_normalp_matches_the_conjugation_reference(self, coset_corpus):
        for g, subs in coset_corpus:
            for h in subs:
                assert normalp(h, g) == conjugated_normalp(h, g)

    def test_quotient_table_is_coset_operation(self, group_and_subgroups):
        g, subs = group_and_subgroups
        for n in (h for h in subs if normalp(h, g)):
            q = quotient(g, n)
            assert q.roster == lcosets(n, g)
            home = {x: k for k, c in enumerate(q.roster) for x in c}
            assert q.table.tolist() == [
                [home[g.op(c[0], d[0])] for d in q.roster] for c in q.roster
            ]

    def test_quotient_matches_definition(self, corpus_with_subgroups):
        for g, subs in corpus_with_subgroups:
            for n in (h for h in subs if normalp(h, g)):
                q = quotient(g, n)
                assert q.roster == coset_definition(n, g)[1]
                home = {x: k for k, c in enumerate(q.roster) for x in c}
                assert sorted(home, key=g.index) == list(g.roster)
                # every pair of members, not only the first of each coset
                for x in g.roster:
                    for y in g.roster:
                        assert q.table[home[x], home[y]] == home[g.op(x, y)]


class TestLift:
    def test_lift_trivial_is_n(self, z4):
        n = subgroup(z4, (0, 2))
        q = quotient(z4, n)
        h = trivial_subgroup(q)
        assert set(lift(h, n, z4).roster) == {0, 2}

    def test_lift_full_is_g(self, z4):
        n = subgroup(z4, (0, 2))
        q = quotient(z4, n)
        full = subgroup(q, q.roster)
        assert set(lift(full, n, z4).roster) == set(z4.roster)

    def test_lift_order_multiplies(self, z2xz4):
        g = z2xz4
        n = cyclic((1, 0), g)
        q = quotient(g, n)
        h = cyclic(elt_of_ord(2, q), q)
        lifted = lift(h, n, g)
        assert lifted.order == h.order * n.order
        assert subgroupp(n, lifted)


class TestIntersections:
    def test_subset_case(self, z4):
        h = subgroup(z4, (0, 2))
        assert group_intersection(h, subgroup(z4, z4.roster), z4).roster == (0, 2)

    def test_trivial_case(self, z6):
        h = cyclic(2, z6)
        k = cyclic(3, z6)
        assert group_intersection(h, k, z6).roster == (0,)

    def test_intersection_is_parent_ordered(self, z12):
        h = cyclic(2, z12)
        k = cyclic(3, z12)
        assert ordp(group_intersection(h, k, z12).roster, z12)

    def test_abelianp(self, z6, s3):
        assert abelianp(z6)
        assert not abelianp(s3)

    def test_abelianp_matches_definition(self, group_and_subgroups):
        g, subs = group_and_subgroups
        for h in subs + [g]:
            assert abelianp(h) == all(
                h.op(x, y) == h.op(y, x) for x in h.roster for y in h.roster
            )


class TestBuilders:
    def test_cyclic_1(self):
        assert cyclic_group(1).order == 1

    def test_cyclic_6(self, z6):
        assert z6.order == 6 and abelianp(z6)

    def test_s3(self, s3):
        assert s3.order == 6 and not abelianp(s3)

    def test_symmetric_guard(self):
        with pytest.raises(DomainError):
            symmetric_group(6)

    def test_builders_pass_validation(self):
        for g in (
            cyclic_group(1),
            cyclic_group(7),
            symmetric_group(4),
            direct_product([cyclic_group(2), cyclic_group(3)]),
        ):
            assert check_group(g.roster, g.table) is None


def test_lagrange_small():
    for g in (cyclic_group(12), symmetric_group(3)):
        for a in g.roster:
            assert g.order % cyclic(a, g).order == 0


@given(st.integers(1, 24))
def test_element_orders_divide_group_order(n):
    g = cyclic_group(n)
    for x in g.roster:
        assert n % g.element_order(x) == 0
