"""The argument checks at the public entries, one row each: the exception
type and message, or the verdict, for a call that fails its check."""
import pytest

from grouptables.core import (
    FiniteGroup,
    cyclic,
    cyclic_group,
    subgroup,
    symmetric_group,
)
from grouptables.errors import DomainError
from grouptables.fileformat import format_element, parse_element, parse_group
from grouptables.gmaps import GroupMap
from grouptables.numtheory import check_nat
from grouptables.pgroup import p_groupp
from grouptables.products import direct_product
from grouptables.uniqueness import verify_unique_factorization

from lemmas import (
    cyclic_p_subgroup_list,
    cyclic_subgroup_list,
    elt_of_ord,
    first_prime,
    group_power,
    internal_direct_product_p,
    lcosets,
    lift,
    normalp,
    products,
    rel_prime_split,
    split_witness,
    subgroup_ord_dividing,
)
from oracles import generated_subgroup

Z2, Z4, Z6, Z12 = (cyclic_group(n) for n in (2, 4, 6, 12))
S3, S4 = symmetric_group(3), symmetric_group(4)
Z2XZ4 = direct_product([Z2, Z4])
# the dihedral group of order 8, a non-abelian 2-group
D4 = generated_subgroup(S4, [(1, 2, 3, 0), (2, 1, 0, 3)])
TRANSPOSITION = cyclic((1, 0, 2), S3)  # not normal in S3
SPLIT = "split preconditions unmet: "

CASES = {
    # core
    "subgroup-duplicates": (lambda: subgroup(Z4, (0, 2, 2)),
                            DomainError, "subgroup roster has duplicates"),
    "subgroup-no-identity": (lambda: subgroup(Z4, (2, 0)),
                             DomainError, "subgroup roster must start with the parent identity"),
    "subgroup-empty": (lambda: subgroup(Z4, ()),
                       DomainError, "subgroup roster must start with the parent identity"),
    "elt_of_ord-0": (lambda: elt_of_ord(0, Z4), DomainError, "n must be >= 1"),
    "lcosets-non-subgroup": (lambda: lcosets(Z2, S3),
                             DomainError, "h is not a subgroup of g"),
    "normalp-non-subgroup": (lambda: normalp(Z2, S3),
                             DomainError, "h is not a subgroup of g"),
    "lift-non-cosets": (lambda: lift(Z4, cyclic(2, Z4), Z4),
                        DomainError, "lift expects coset elements"),
    "lift-overlap": (lambda: lift(FiniteGroup(((0, 2), (2, 0)), ((0, 1), (1, 0))),
                                  cyclic(2, Z4), Z4),
                     DomainError, "lift cosets overlap; h is not made of n-cosets"),
    # products
    "direct_product-empty": (lambda: direct_product([]),
                             DomainError, "direct product of an empty list"),
    "products-non-subgroups": (lambda: products(Z2, TRANSPOSITION, S3),
                               DomainError, "products requires subgroups of g"),
    "internal_direct_product_p-non-normal": (
        lambda: internal_direct_product_p([TRANSPOSITION], S3), None, False),
    # abelian
    "subgroup_ord_dividing-0": (lambda: subgroup_ord_dividing(0, Z4),
                                DomainError, "m must be >= 1"),
    "rel_prime_split-order": (lambda: rel_prime_split(Z12, 3, 5),
                              DomainError, "order of g must equal m * n"),
    "cyclic_subgroup_list-s3": (lambda: cyclic_subgroup_list(S3),
                                DomainError, "cyclic-subgroup-list needs an abelian group"),
    # pgroup
    "p_groupp-non-prime": (lambda: p_groupp(Z4, 4), DomainError, "p must be prime, got 4"),
    "split-not-p-group": (lambda: split_witness(1, 2, Z6),
                          DomainError, SPLIT + "not a p-group for p"),
    "split-not-abelian": (lambda: split_witness(D4.roster[1], 2, D4),
                          DomainError, SPLIT + "not abelian"),
    "split-not-element": (lambda: split_witness(99, 2, Z2XZ4),
                          DomainError, SPLIT + "a is not an element"),
    "split-not-maximal": (lambda: split_witness((1, 0), 2, Z2XZ4),
                          DomainError, SPLIT + "a does not have maximal order"),
    "cyclic_p_subgroup_list-non-abelian": (lambda: cyclic_p_subgroup_list(2, D4),
                                           DomainError, "not abelian"),
    # uniqueness
    "group_power-0": (lambda: group_power(0, Z4), DomainError, "n must be >= 1"),
    "first_prime-trivial": (lambda: first_prime([cyclic_group(1), Z2]),
                            DomainError, "first-prime needs a leading non-trivial group"),
    "unique-empty": (lambda: verify_unique_factorization([], [Z2], None),
                     DomainError, "uniqueness needs non-empty lists"),
    "unique-not-iso": (lambda: verify_unique_factorization(
        [Z2], [Z2], GroupMap((((0,), (0,)), ((1,), (0,))))),
        DomainError, "map is not an isomorphism"),
    # numtheory and fileformat
    "check_nat-float": (lambda: check_nat(1.0), DomainError, "n must be an integer, got 1.0"),
    "parse_element-none": (lambda: parse_element(" "),
                           DomainError, "expected one element label, got 0"),
    "parse_element-two": (lambda: parse_element("0 (1)"),
                          DomainError, "expected one element label, got 2"),
    "parse_group-empty": (lambda: parse_group(" \n\t\n"), DomainError, "empty group file"),
    "parse_group-labels": (lambda: parse_group("group 2\n0\n0 1\n1 0\n"),
                           DomainError, "expected 2 labels, got 1"),
    "format_element-blank": (lambda: format_element("a b"),
                             DomainError, "unprintable symbol label: 'a b'"),
}


@pytest.mark.parametrize("call, error, expected", CASES.values(), ids=CASES.keys())
def test_entry_check(call, error, expected):
    if error is None:
        assert call() == expected
        return
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == expected
