import math

import pytest

from grouptables.core import cyclic_group, subgroup
from grouptables.errors import DomainError
from grouptables.gmaps import (
    GroupMap,
    classify,
    homomorphism_check,
    identity_map,
    image,
    inv_isomorphism,
    kernel,
    map_from_function,
)
from grouptables.products import direct_product, product_list_map

from lemmas import cyclic_subgroup_list, ordp
from oracles import brute_force_isomorphism, compose_maps


def doubling(g):
    return map_from_function(g.roster, lambda x: g.op(x, x))


class TestConstruction:
    def test_doubling_z4(self, z4):
        m = doubling(z4)
        assert m.pairs == ((0, 0), (1, 2), (2, 0), (3, 2))

    def test_empty_domain(self):
        assert map_from_function((), lambda x: x).pairs == ()

    def test_identity_map(self, z4):
        m = identity_map(z4.roster)
        assert all(m.apply(x) == x for x in z4.roster)

    def test_duplicate_keys_rejected(self):
        with pytest.raises(DomainError):
            GroupMap(((0, 1), (0, 2)))

    def test_strict_apply(self, z4):
        with pytest.raises(DomainError):
            doubling(z4).apply(17)

    def test_pointwise_equality(self):
        assert GroupMap(((0, 1), (1, 2))) == GroupMap(((1, 2), (0, 1)))
        assert GroupMap(((0, 1),)) != GroupMap(((0, 2),))


class TestHashContracts:
    """What a set of (map, G, H) triples relies on, as the benchmark's
    tracer counts distinct homomorphism checks with one."""

    def test_reordered_pairs_equal_and_hash_equal(self):
        m, n = GroupMap(((0, 1), (1, 2))), GroupMap(((1, 2), (0, 1)))
        assert m == n and hash(m) == hash(n)

    def test_rebuilt_direct_product_equal_and_hash_equal(self):
        g, h = (direct_product([cyclic_group(2), cyclic_group(4)]) for _ in range(2))
        assert g is not h
        assert g == h and hash(g) == hash(h)

    def test_never_equal_to_another_type(self, z4):
        m = identity_map(z4.roster)
        assert m.__eq__(m.pairs) is NotImplemented and m != m.pairs and m != dict(m.pairs)
        assert z4.__eq__(z4.roster) is NotImplemented and z4 != z4.roster and z4 != "Z4"

    def test_set_of_equal_triples_holds_one(self):
        def triple(reverse):
            # the isomorphism Z2 x Z3 -> Z6, (a, b) -> 3a + 4b
            g, h = direct_product([cyclic_group(2), cyclic_group(3)]), cyclic_group(6)
            pairs = tuple((x, (3 * x[0] + 4 * x[1]) % 6) for x in g.roster)
            return GroupMap(pairs[::-1] if reverse else pairs), g, h

        assert len({triple(False), triple(True)}) == 1


class TestCompose:
    def test_compose_identity(self, z4):
        m = doubling(z4)
        assert compose_maps(identity_map(z4.roster), m) == m

    def test_doubling_twice_is_quadrupling(self):
        z8 = cyclic_group(8)
        m = doubling(z8)
        q = compose_maps(m, m)
        assert all(q.apply(x) == (4 * x) % 8 for x in z8.roster)

    def test_compose_apply_agrees_with_nested(self, z4):
        m1 = doubling(z4)
        m2 = map_from_function(z4.roster, lambda x: z4.op(x, 1))
        c = compose_maps(m2, m1)
        assert all(
            c.apply(x) == m2.apply(m1.apply(x)) for x in z4.roster
        )

    def test_range_escape(self, z4):
        m1 = map_from_function(z4.roster, lambda x: x)
        m2 = GroupMap(((0, 0),))
        with pytest.raises(DomainError):
            compose_maps(m2, m1)


class TestHomomorphismCheck:
    def test_doubling_is_hom(self, z4):
        assert homomorphism_check(doubling(z4), z4, z4) is None

    def test_operation_witness(self, z4):
        m = map_from_function(z4.roster, lambda x: {0: 0, 1: 1, 2: 3, 3: 2}[x])
        w = homomorphism_check(m, z4, z4)
        assert w is not None and w.kind == "operation"
        assert w.witness == (1, 1)

    def test_identity_witness(self, z4):
        m = map_from_function(z4.roster, lambda x: (x + 1) % 4)
        w = homomorphism_check(m, z4, z4)
        assert w.kind == "identity"

    def test_domain_coverage_witness(self, z4):
        m = GroupMap(((0, 0), (1, 1)))
        assert homomorphism_check(m, z4, z4).kind == "domain-coverage"

    def test_domain_witness(self, z4):
        # every element is mapped, but so is a key outside the group
        m = GroupMap(tuple((x, x) for x in z4.roster) + ((7, 0), (9, 0)))
        w = homomorphism_check(m, z4, z4)
        assert (w.kind, w.witness) == ("domain", (7,))
        assert str(w) == "domain failure at (7,)"

    def test_codomain_witness(self, z4):
        m = map_from_function(z4.roster, lambda x: 0 if x == 0 else "junk")
        w = homomorphism_check(m, z4, z4)
        assert w.kind == "codomain"


class TestImageKernel:
    def test_doubling_z4(self, z4):
        m = doubling(z4)
        assert image(m, z4, z4).roster == (0, 2)
        assert kernel(m, z4, z4).roster == (0, 2)

    def test_identity_map_image_kernel(self, z6):
        m = identity_map(z6.roster)
        assert image(m, z6, z6).roster == z6.roster
        assert kernel(m, z6, z6).roster == (0,)

    def test_constant_map(self, z4):
        m = map_from_function(z4.roster, lambda x: 0)
        assert image(m, z4, z4).roster == (0,)
        assert kernel(m, z4, z4).roster == z4.roster

    def test_image_is_h_ordered(self, z12):
        m = map_from_function(z12.roster, lambda x: (9 * x) % 12)
        assert homomorphism_check(m, z12, z12) is None
        assert ordp(image(m, z12, z12).roster, z12)

    def test_requires_homomorphism(self, z4):
        m = map_from_function(z4.roster, lambda x: (x + 1) % 4)
        with pytest.raises(DomainError):
            image(m, z4, z4)

    def test_order_product(self, z12):
        # |g| = |image| * |kernel| on several honest homomorphisms
        for k in (2, 3, 4, 6):
            m = map_from_function(z12.roster, lambda x: (k * x) % 12)
            assert homomorphism_check(m, z12, z12) is None
            assert (
                image(m, z12, z12).order * kernel(m, z12, z12).order == 12
            )


class TestClassify:
    def test_identity_all_true(self, z4):
        v = classify(identity_map(z4.roster), z4, z4)
        assert v.epimorphism and v.monomorphism and v.isomorphism

    def test_doubling_all_false(self, z4):
        v = classify(doubling(z4), z4, z4)
        assert not v.epimorphism and not v.monomorphism and not v.isomorphism

    def test_inclusion_mono_not_epi(self, z4):
        h = subgroup(z4, (0, 2))
        m = map_from_function(h.roster, lambda x: x)
        v = classify(m, h, z4)
        assert v.monomorphism and not v.epimorphism

    @staticmethod
    def assert_matches_definition(m, g, h):
        """classify agrees with image = h and kernel = {e} on a verified map."""
        assert homomorphism_check(m, g, h) is None
        v = classify(m, g, h)
        assert v.epimorphism == (image(m, g, h).roster == h.roster)
        assert v.monomorphism == (kernel(m, g, h).roster == (g.identity,))
        return v

    @pytest.mark.parametrize("n", range(1, 25))
    def test_multiplication_maps(self, n):
        # x -> kx on Z_n is bijective exactly when gcd(k, n) = 1
        g = cyclic_group(n)
        for k in range(n):
            m = map_from_function(g.roster, lambda x: (k * x) % n)
            v = self.assert_matches_definition(m, g, g)
            assert v.epimorphism == v.monomorphism == (math.gcd(k, n) == 1)

    @pytest.mark.parametrize("ns", [(2, 2, 2), (4, 2), (12,), (2, 6), (3, 9), (2, 2, 3, 5)])
    def test_product_list_maps(self, ns):
        g = direct_product([cyclic_group(n) for n in ns])
        factors = list(cyclic_subgroup_list(g))
        dp = direct_product(factors)
        v = self.assert_matches_definition(product_list_map(factors, g), dp, g)
        assert v.isomorphism
        # the projection onto the first factor is onto but not one-to-one
        # unless there is only one factor
        first = map_from_function(dp.roster, lambda x: x[0])
        v = self.assert_matches_definition(first, dp, factors[0])
        assert v.epimorphism and v.monomorphism == (len(factors) == 1)


class TestInverse:
    def test_inverse_of_identity(self, z4):
        m = identity_map(z4.roster)
        assert inv_isomorphism(m, z4, z4) == m

    def test_inverse_of_times_three(self, z4):
        m = map_from_function(z4.roster, lambda x: (3 * x) % 4)
        inv = inv_isomorphism(m, z4, z4)
        assert all(inv.apply(y) == (3 * y) % 4 for y in z4.roster)

    def test_inverse_compositions_are_identities(self, z6):
        m = map_from_function(z6.roster, lambda x: (5 * x) % 6)
        inv = inv_isomorphism(m, z6, z6)
        assert compose_maps(inv, m) == identity_map(z6.roster)
        assert compose_maps(m, inv) == identity_map(z6.roster)
        assert classify(inv, z6, z6).isomorphism

    def test_requires_isomorphism(self, z4):
        with pytest.raises(DomainError):
            inv_isomorphism(doubling(z4), z4, z4)


def test_hom_preserves_inverse_and_powers(z12):
    m = map_from_function(z12.roster, lambda x: (4 * x) % 12)
    assert homomorphism_check(m, z12, z12) is None
    for x in z12.roster:
        assert m.apply(z12.inv(x)) == z12.inv(m.apply(x))
        for k in range(1, 13):
            assert m.apply(z12.power(x, k)) == z12.power(m.apply(x), k)


def test_compose_of_isomorphisms_is_isomorphism(z6):
    m1 = map_from_function(z6.roster, lambda x: (5 * x) % 6)
    m2 = brute_force_isomorphism(z6, z6)
    c = compose_maps(m2, m1)
    assert homomorphism_check(c, z6, z6) is None
    assert classify(c, z6, z6).isomorphism
