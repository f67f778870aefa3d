import importlib
import math
import random
from collections import Counter
from itertools import groupby, permutations

import pytest
from hypothesis import given, settings, strategies as st

from grouptables.core import abelianp, cyclic_group, check_group
from grouptables.errors import DomainError
from grouptables.gmaps import GroupMap, classify, homomorphism_check, identity_map
from grouptables.products import direct_product, group_tuples
from grouptables.uniqueness import (
    hits_diff,
    orders,
    permutationp,
    verify_unique_factorization,
)
from grouptables.fileformat import format_element, parse_map, print_map
from grouptables.gmaps import map_from_function

from certcheck import check_map_certificate
from conftest import relabelled
from lemmas import (
    delete_trivial,
    first_prime,
    group_power,
    group_power_dp_check,
    group_power_list,
    reduce_cyclic,
    reduce_cyclic_iso,
    reduce_orders,
)
from oracles import (
    abelian_types,
    brute_force_isomorphism,
    composed_reduce_cyclic_iso,
    delete_trivial_iso,
    naive_factorize,
    transported_unique_factorization,
)


def zs(*ns):
    return [cyclic_group(n) for n in ns]


class TestMultisets:
    def test_permutationp(self):
        assert permutationp([4, 3], [3, 4])
        assert not permutationp([2, 2], [2, 4])
        assert permutationp([], [])

    def test_hits_diff(self):
        assert hits_diff([2, 2], [2, 4]) in (2, 4)
        assert hits_diff([1, 2, 3], [3, 2, 1]) is None

    @given(st.lists(st.integers(0, 5)), st.lists(st.integers(0, 5)))
    def test_hits_diff_perm_agree(self, l, m):
        assert permutationp(l, m) == (hits_diff(l, m) is None)

    @given(st.lists(st.integers(0, 9), max_size=8), st.randoms())
    def test_shuffle_is_permutation(self, l, rnd):
        m = list(l)
        rnd.shuffle(m)
        assert permutationp(l, m)


class TestGroupPower:
    def test_first_power_is_group(self, z6):
        assert group_power(1, z6).roster == z6.roster

    def test_squares_of_z4(self, z4):
        assert group_power(2, z4).roster == (0, 2)

    def test_coprime_power_is_everything(self, z4):
        assert group_power(3, z4).roster == z4.roster

    def test_power_subgroup_is_valid(self, z12):
        h = group_power(2, z12)
        assert check_group(h.roster, h.table) is None

    def test_matches_definition(self, corpus_with_subgroups):
        for g, _ in corpus_with_subgroups:
            if not abelianp(g):
                continue
            for n in list(range(1, 2 * g.order + 2)) + [255, 256]:
                expected = set()
                for x in g.roster:
                    acc = g.identity
                    for _ in range(n):
                        acc = g.op(acc, x)
                    expected.add(acc)
                assert group_power(n, g).roster == tuple(x for x in g.roster if x in expected)

    def test_non_abelian_rejected(self, s3):
        with pytest.raises(DomainError):
            group_power(2, s3)


class TestReduceOrder:
    def test_divisible(self):
        assert reduce_orders((8,), 2) == (4,)

    def test_indivisible(self):
        assert reduce_orders((9,), 2) == (9,)

    def test_pointwise(self):
        assert reduce_orders((4, 3), 2) == (2, 3)

    def test_prime_power_cyclic(self):
        from grouptables.pgroup import cyclicp

        for n in range(1, 31):
            g = cyclic_group(n)
            for p in (2, 3, 5, 7, 11, 13):
                h = group_power(p, g)
                assert cyclicp(h)
                assert (h.order,) == reduce_orders((n,), p)


class TestGroupPowerDp:
    def test_n1_reproduces(self):
        l = zs(2, 3)
        assert group_power_dp_check(1, l)

    def test_z4_z3_squares(self):
        l = zs(4, 3)
        assert group_power_dp_check(2, l)
        assert group_power(2, direct_product(l)).order == 6

    def test_z2_z2_collapse(self):
        l = zs(2, 2)
        assert group_power(2, direct_product(l)).order == 1
        assert group_power_dp_check(2, l)

    def test_every_type_and_prime_to_256(self):
        # the lemma behind restricting the map to the p-th power subgroups,
        # on the built factors and on relabelled copies of them
        rng = random.Random(26)
        checks = 0
        for t in abelian_types(256):
            l = zs(*t)
            shuffled = [relabelled(g, rng) for g in l]
            for p, _ in naive_factorize(math.prod(t)):
                assert group_power_dp_check(p, l), (t, p)
                assert group_power_dp_check(p, shuffled), (t, p)
                checks += 1
        assert checks == 955

    def test_order_group_power_list(self):
        for l in (zs(4, 3), zs(2, 8), zs(9, 2)):
            for p in (2, 3):
                assert orders(group_power_list(p, l)) == reduce_orders(
                    orders(l), p
                )


class TestReduceCyclic:
    def test_first_prime(self):
        assert first_prime(zs(4, 3)) == 2
        assert first_prime(zs(9, 2)) == 3

    def test_delete_trivial(self):
        l = zs(1, 2, 1)
        assert orders(delete_trivial(l)) == (2,)

    def test_reduce_z2_z4(self):
        assert orders(reduce_cyclic(zs(2, 4), 2)) == (2,)

    def test_reduce_all_collapse(self):
        assert reduce_cyclic(zs(2, 2), 2) == ()


class TestDeleteTrivialIso:
    def test_no_trivial_is_identity(self):
        l = zs(2, 3)
        m = delete_trivial_iso(l)
        assert all(m.apply(x) == x for x in group_tuples(l))

    def test_drop_slot(self):
        l = zs(1, 2)
        m = delete_trivial_iso(l)
        assert m.apply((0, 1)) == (1,)

    def test_is_isomorphism(self):
        l = zs(1, 2, 3)
        m = delete_trivial_iso(l)
        src = direct_product(l)
        dst = direct_product(delete_trivial(l))
        assert homomorphism_check(m, src, dst) is None
        assert classify(m, src, dst).isomorphism

    def test_all_trivial_rejected(self):
        with pytest.raises(DomainError):
            delete_trivial_iso(zs(1, 1))


class TestReduceCyclicIso:
    def test_swap_case(self):
        l, m = zs(2, 4), zs(4, 2)
        swap = map_from_function(group_tuples(l), lambda x: (x[1], x[0]))
        r = reduce_cyclic_iso(swap, group_power_list(2, l), group_power_list(2, m))
        l2, m2 = reduce_cyclic(l, 2), reduce_cyclic(m, 2)
        src, dst = direct_product(list(l2)), direct_product(list(m2))
        assert homomorphism_check(r, src, dst) is None
        assert classify(r, src, dst).isomorphism


class TestVerifyUniqueFactorization:
    def test_identity_case(self):
        l = zs(4, 3)
        assert verify_unique_factorization(l, l, identity_map(group_tuples(l)))

    def test_swapped_lists(self):
        l, m = zs(2, 4), zs(4, 2)
        swap = map_from_function(group_tuples(l), lambda x: (x[1], x[0]))
        assert verify_unique_factorization(l, m, swap)

    def test_z4_vs_z2z2_no_isomorphism(self):
        g = direct_product(zs(4))
        h = direct_product(zs(2, 2))
        assert brute_force_isomorphism(g, h) is None
        assert not permutationp((4,), (2, 2))

    def test_discovered_map_feeds_through(self):
        l, m = zs(2, 2, 3), zs(3, 2, 2)
        found = brute_force_isomorphism(direct_product(l), direct_product(m))
        assert found is not None
        assert verify_unique_factorization(l, m, found)

    def test_bad_map_rejected(self):
        l, m = zs(2, 4), zs(4, 2)
        with pytest.raises(DomainError):
            verify_unique_factorization(l, m, identity_map(group_tuples(l)))

    def test_non_p_group_list_rejected(self):
        l = zs(6)
        with pytest.raises(DomainError):
            verify_unique_factorization(l, l, identity_map(group_tuples(l)))

    def test_one_hom_check_per_level(self, monkeypatch, hom_check_calls):
        uniqueness = importlib.import_module("grouptables.uniqueness")
        levels = []

        def recorded(l):
            levels.append(orders(l))
            return direct_product(l)

        def reentered(*args):
            raise AssertionError("verify_unique_factorization called itself")

        monkeypatch.setattr(uniqueness, "direct_product", recorded)
        monkeypatch.setattr(uniqueness, "verify_unique_factorization", reentered)
        l, m = zs(2, 4, 3), zs(3, 4, 2)
        reverse = map_from_function(group_tuples(l), lambda x: x[::-1])
        assert verify_unique_factorization(l, m, reverse)
        # the products are built at entry only, and the map is checked once,
        # on them: no level below it can fail
        assert levels == [(2, 4, 3), (3, 4, 2)]
        assert hom_check_calls == [(24, 24)]

    @pytest.mark.parametrize("ls, ms", [((2, 4, 3), (3, 4, 2)), ((8,), (8,)),
                                        ((2, 2, 9), (9, 2, 2))])
    def test_lists_checked_once(self, ls, ms, list_check_calls):
        l, m = zs(*ls), zs(*ms)
        iso = map_from_function(group_tuples(l), lambda x: x[::-1])
        assert verify_unique_factorization(l, m, iso)
        assert list_check_calls == {"cyclic_p_group_list_p": 2}

    def test_power_lists_built_once_per_level(self, power_calls):
        l, m = zs(2, 4, 8), zs(8, 2, 4)
        iso = map_from_function(group_tuples(l), lambda x: (x[2], x[0], x[1]))
        assert verify_unique_factorization(l, m, iso)
        # the check needs no power subgroup, nor any other subgroup
        assert power_calls == {}


# orders of cyclic p-groups; permuted_lists keeps their products at most 72
P_ORDERS = (2, 4, 8, 3, 9, 5, 7)


@st.composite
def permuted_lists(draw):
    """(l, m, iso): a cyclic p-group list, a random rearrangement of it and
    the coordinate permutation between their direct products."""
    ns = draw(st.lists(st.sampled_from(P_ORDERS), min_size=1, max_size=4)
              .filter(lambda ns: math.prod(ns) <= 72))
    sigma = draw(st.permutations(range(len(ns))))
    l = zs(*ns)
    m = [l[i] for i in sigma]
    iso = map_from_function(group_tuples(l), lambda x: tuple(x[i] for i in sigma))
    return l, m, iso


class TestReduceCyclicIsoOracle:
    @settings(max_examples=60, deadline=None)
    @given(permuted_lists())
    def test_pairs_equal_composed_reference(self, case):
        l, m, iso = case
        while True:
            p = first_prime(l)
            l2, m2 = reduce_cyclic(l, p), reduce_cyclic(m, p)
            if not l2 or not m2:
                return
            reduced = reduce_cyclic_iso(iso, group_power_list(p, l), group_power_list(p, m))
            assert reduced.pairs == composed_reduce_cyclic_iso(iso, l, m, p).pairs
            iso, l, m = reduced, l2, m2


def transported_cases():
    """(l, m, iso) for each abelian type of order <= 64, as a seeded
    arrangement l of its factors, a seeded permutation m of l and the
    coordinate map between their products, that map again with the images
    of two seeded elements swapped and, up to order 32, the map onto the
    identity; and the roster-position bijection dp(l) -> dp(m) for each
    ordered pair of different types l, m of equal order <= 32."""
    for t in abelian_types(64):
        rng = random.Random(repr(t))
        ns = list(t)
        rng.shuffle(ns)
        sigma = rng.sample(range(len(ns)), len(ns))
        l, m = zs(*ns), zs(*(ns[s] for s in sigma))
        image = {x: tuple(x[s] for s in sigma) for x in group_tuples(l)}
        yield l, m, GroupMap(tuple(image.items()))
        a, b = rng.sample(sorted(image), 2)
        image[a], image[b] = image[b], image[a]
        yield l, m, GroupMap(tuple(image.items()))
        if math.prod(t) <= 32:
            yield l, m, GroupMap(tuple((x, (0,) * len(ns)) for x in image))
    for _, same in groupby(abelian_types(32), math.prod):
        for t, u in permutations(same, 2):
            l, m = zs(*t), zs(*u)
            yield l, m, GroupMap(tuple(zip(group_tuples(l), group_tuples(m))))


class TestTransportedReference:
    def test_same_outcomes_and_check_sizes(self, monkeypatch):
        """The library and the paper's per-level loop give the same verdict,
        or the same exception type and message; the library's one
        homomorphism check is the loop's first, on the two products."""
        sizes = []

        def recorded(iso, g, h):
            sizes.append((g.order, h.order))
            return homomorphism_check(iso, g, h)

        uniqueness = importlib.import_module("grouptables.uniqueness")
        oracles = importlib.import_module("oracles")
        monkeypatch.setattr(uniqueness, "homomorphism_check", recorded)
        monkeypatch.setattr(oracles, "homomorphism_check", recorded)
        outcomes = Counter()
        for l, m, iso in transported_cases():
            runs = []
            for verify in (verify_unique_factorization, transported_unique_factorization):
                sizes.clear()
                try:
                    out = verify(l, m, iso)
                except DomainError as e:
                    out = (type(e), str(e))
                runs.append((out, list(sizes)))
            (out, lib_sizes), (ref_out, ref_sizes) = runs
            assert out == ref_out and lib_sizes == ref_sizes[:1], (orders(l), orders(m))
            outcomes[out if isinstance(out, bool) else out[1].split(":")[0]] += 1
        # one swap of two images is an automorphism of Z2 x Z2
        assert outcomes == {True: 117, "map is not a homomorphism": 209,
                            "map is not an isomorphism": 54}


class TestCertificateAgreement:
    def test_unique_and_certcheck_agree(self):
        """unique's verdict on each map file of transported_cases() is the
        independent checker's; with one pair outside the domain appended,
        both reject every map."""
        accepted = 0
        for l, m, iso in transported_cases():
            ol, om = orders(l), orders(m)
            text = print_map(iso)
            outside = f"{text}{format_element(ol)} -> {format_element((0,) * len(om))}\n"
            verdicts = []
            for t in (text, outside):
                try:
                    ok = verify_unique_factorization(l, m, parse_map(t))
                except DomainError:
                    ok = False
                verdicts.append((ok, check_map_certificate(ol, om, t) is None))
            assert verdicts[0][0] == verdicts[0][1], (ol, om)
            assert verdicts[1] == (False, False), (ol, om)
            accepted += verdicts[0][0]
        assert accepted == 117
