"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The corpora are built once per session:

  * builder corpus: Z_n for n <= 64, S_n for n <= 4, and every direct
    product of cyclic groups (two or more factors) with order <= 64;
  * the abelian part of the corpus for the factorization criteria.
"""
import time

import pytest

from grouptables.abelian import abelian_factorization
from grouptables.core import (
    abelianp,
    check_group,
    cyclic,
    cyclic_group,
    symmetric_group,
)
from grouptables.gmaps import classify, homomorphism_check, image, kernel, map_from_function
from grouptables.numtheory import least_prime_divisor, primep
from grouptables.pgroup import cyclic_p_group_list_p
from grouptables.products import direct_product, product_orders
from grouptables.uniqueness import (
    orders,
    permutationp,
    verify_unique_factorization,
)

from lemmas import (
    cyclic_p_subgroup_list,
    elt_of_ord,
    group_intersection,
    group_power,
    group_power_list,
    internal_direct_product_p,
    lift,
    lift_cosets,
    normalp,
    product_group,
    products,
    quotient,
)
from oracles import (
    all_subgroups,
    brute_force_isomorphism,
    factor_multisets,
    prime_power_multisets,
)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def dp(*ns):
    return direct_product([cyclic_group(n) for n in ns])


def dp_multisets(max_order, min_len=2):
    out = []
    for n in range(2, max_order + 1):
        for ms in factor_multisets(n):
            if len(ms) >= min_len:
                out.append(ms)
    return out


@pytest.fixture(scope="module")
def builder_corpus():
    groups = [(f"zn {n}", cyclic_group(n)) for n in range(1, 65)]
    groups += [(f"s {n}", symmetric_group(n)) for n in range(1, 5)]
    groups += [(f"dp {ms}", dp(*ms)) for ms in dp_multisets(64)]
    return groups


@pytest.fixture(scope="module")
def abelian_corpus(builder_corpus):
    return [(name, g) for name, g in builder_corpus if abelianp(g) and g.order > 1]


def assert_valid(g, context):
    violation = check_group(g.roster, g.table)
    assert violation is None, f"{context}: {violation}"


def test_criterion_1_axiom_suite(builder_corpus):
    start = time.monotonic()
    for name, g in builder_corpus:
        assert_valid(g, name)
    # constructed quotients (abelian <= 32, plus normal cyclic subgroups of S_n)
    for name, g in builder_corpus:
        if g.order > 32:
            continue
        for x in g.roster[:4]:
            h = cyclic(x, g)
            if normalp(h, g):
                assert_valid(quotient(g, h), f"quotient of {name}")
    # product-groups over all subgroup pairs of two representative groups
    for g in (cyclic_group(12), dp(2, 2, 3)):
        subs = all_subgroups(g)
        for h in subs:
            for k in subs:
                assert_valid(product_group(h, k, g), "product-group")
    # images and kernels of power homomorphisms
    for n in range(2, 33):
        g = cyclic_group(n)
        for k in (2, 3):
            m = map_from_function(g.roster, lambda x, k=k: (k * x) % n)
            assert homomorphism_check(m, g, g) is None
            assert_valid(image(m, g, g), f"image of x->{k}x on Z{n}")
            assert_valid(kernel(m, g, g), f"kernel of x->{k}x on Z{n}")
    # group-powers over the abelian corpus up to order 48
    for name, g in builder_corpus:
        if abelianp(g) and 1 < g.order <= 48:
            for k in (2, 3):
                assert_valid(group_power(k, g), f"group-power {k} of {name}")
    # lifted subgroups through quotients
    for g in (dp(2, 4), dp(2, 2, 2), dp(4, 4), dp(3, 9)):
        n = cyclic(elt_of_ord(least_prime_divisor(g.order), g), g)
        q = quotient(g, n)
        for c in q.roster[:4]:
            h = cyclic(c, q)
            assert_valid(lift(h, n, g), "lifted subgroup")
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"axiom suite took {elapsed:.1f}s"
    report(1, f"axiom suite over {len(builder_corpus)} builder groups "
              f"plus constructed instances ({elapsed:.1f}s)")


def test_criterion_2_len_products(builder_corpus):
    checked = 0
    for name, g in builder_corpus:
        if g.order > 24:
            continue
        subs = all_subgroups(g)
        for h in subs:
            for k in subs:
                i = group_intersection(h, k, g)
                prod = products(h, k, g)
                assert len(prod) == h.order * k.order // i.order, name
                flat = [x for c in lift_cosets(h, k, g) for x in c]
                assert len(set(flat)) == len(flat), name
                assert set(flat) == set(prod), name
                checked += 1
    report(2, f"len-products and lift-cosets agreement on {checked} subgroup pairs")


def test_criterion_3_p_group_factorization():
    checked = 0
    for p in (2, 3, 5, 7):
        powers = [p**k for k in range(1, 7) if p**k <= 64]
        sizes = [n for n in range(2, 65) if all_prime_power(n, p)]
        for n in sizes:
            for ms in factor_multisets(n):
                if not all(q in powers for q in ms):
                    continue
                g = dp(*ms)
                fact = cyclic_p_subgroup_list(p, g)
                assert fact, ms
                assert cyclic_p_group_list_p(fact), ms
                assert internal_direct_product_p(list(fact), g), ms
                assert product_orders(fact) == g.order, ms
                checked += 1
    report(3, f"p-group factorization conjuncts on {checked} abelian p-groups")


def all_prime_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def test_criterion_4_full_factorization(abelian_corpus):
    for name, g in abelian_corpus:
        fact = abelian_factorization(g)
        dpf = direct_product(list(fact.factors))
        # complete verification: operation preservation over all |g|^2 pairs,
        # plus bijectivity
        assert homomorphism_check(fact.iso, dpf, g) is None, name
        assert classify(fact.iso, dpf, g).isomorphism, name
    # spot value via the CLI pipeline
    import io

    from grouptables.cli import cmd_factor

    out = io.StringIO()
    assert cmd_factor(["zn", "12"], out) == 0
    text = out.getvalue()
    assert "order=4 p=2" in text and "order=3 p=3" in text
    assert "iso verified: true" in text
    report(4, f"verified factorization isomorphisms for {len(abelian_corpus)} "
              "abelian groups; factor zn 12 -> {4, 3}")


def test_criterion_5_uniqueness_vs_brute_force():
    pairs = 0
    isomorphic = 0
    for n in range(4, 49):
        multisets = prime_power_multisets(n)
        for a in range(len(multisets)):
            for b in range(a, len(multisets)):
                l = [cyclic_group(k) for k in multisets[a]]
                m = [cyclic_group(k) for k in reversed(multisets[b])]
                found = brute_force_isomorphism(
                    direct_product(l), direct_product(m)
                )
                perm = permutationp(
                    [g.order for g in l], [g.order for g in m]
                )
                assert (found is not None) == perm, (multisets[a], multisets[b])
                if found is not None:
                    assert verify_unique_factorization(l, m, found)
                    isomorphic += 1
                pairs += 1
    # negative control: Z4 vs Z2 x Z2
    g, h = dp(4), dp(2, 2)
    assert brute_force_isomorphism(g, h) is None
    assert not permutationp((4,), (2, 2))
    report(5, f"brute-force search agrees with order-multiset equality on "
              f"{pairs} pairs ({isomorphic} isomorphic); Z4 vs Z2xZ2 control")


def test_criterion_6_classification_count():
    seen = set()
    for ms in factor_multisets(16):
        if not all(all_prime_power(k, 2) for k in ms):
            continue
        fact = abelian_factorization(dp(*ms))
        seen.add(tuple(sorted(orders(fact.factors), reverse=True)))
    # independent oracle: partitions of 4 as 2-power multisets
    expected = {
        (16,),
        (8, 2),
        (4, 4),
        (4, 2, 2),
        (2, 2, 2, 2),
    }
    assert seen == expected
    report(6, "order-16 2-groups yield exactly the 5 partition multisets")


def test_criterion_7_group_power_dp_equality():
    checked = 0
    for n in range(2, 49):
        for ms in factor_multisets(n):
            l = [cyclic_group(k) for k in ms]
            for k in (2, 3):
                power_of_product = group_power(k, direct_product(l))
                product_of_powers = direct_product(list(group_power_list(k, l)))
                assert power_of_product == product_of_powers, (ms, k)
                checked += 1
    report(7, f"group-power/direct-product exact equality on {checked} cases")


def test_criterion_8_cauchy_consequence(builder_corpus):
    checked = 0
    for name, g in builder_corpus:
        for p in range(2, g.order + 1):
            if g.order % p == 0 and primep(p):
                x = elt_of_ord(p, g)
                assert x is not None, (name, p)
                assert g.element_order(x) == p, (name, p)
                checked += 1
    report(8, f"element of order p found for {checked} (group, prime) pairs")
