"""`factor` against sympy: the cyclic p-group orders printed for a file of
an abelian group equal the group's type, and equal the abelian invariants
sympy computes for the regular representation of the construction, a
direct product of cyclic groups over the prime powers or the invariant
factors of the type.

The sympy side shares no code with the kernel: its permutations are the
unit vectors of Z_q1 x ... x Z_qk acting on the mixed-radix indices of the
elements, written down from the moduli alone.
"""
import contextlib
import io
import math
import random

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from grouptables import cli
from grouptables.core import cyclic_group
from grouptables.fileformat import print_group
from grouptables.products import direct_product

from conftest import relabelled
from oracles import abelian_types, invariant_factors

SAMPLE = random.Random(20).sample(abelian_types(256), 30)


def unit_vector_permutations(moduli):
    """The regular action of each unit vector of Z_q1 x ... x Z_qk on the
    indices sum c_i w_i, w_i the product of the moduli after the i-th."""
    order = w = math.prod(moduli)
    perms = []
    for q in moduli:
        w //= q
        # adding 1 to coordinate c = (x // w) % q wraps from q - 1 to 0
        perms.append(Permutation([x + w if (x // w) % q < q - 1 else x - (q - 1) * w
                                  for x in range(order)]))
    return perms


def printed_orders(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["factor", str(path)]) == 0
    lines = out.getvalue().splitlines()
    assert lines[-1] == "iso verified: true"
    return sorted(int(line.split()[0].removeprefix("order=")) for line in lines[:-1])


@pytest.mark.parametrize("kind", SAMPLE, ids=lambda kind: "x".join(map(str, kind)))
def test_factor_orders_match_sympy_invariants(kind, tmp_path):
    rng = random.Random(str(kind))
    # dp zn q1 zn q2 ... over the prime powers or the invariant factors, shuffled
    moduli = list(rng.choice([kind, invariant_factors(kind)]))
    rng.shuffle(moduli)
    g = relabelled(direct_product([cyclic_group(q) for q in moduli]), rng)
    path = tmp_path / "g.grp"
    path.write_text(print_group(g))
    orders = printed_orders(path)
    assert orders == sorted(kind)
    invariants = PermutationGroup(unit_vector_permutations(moduli)).abelian_invariants()
    assert orders == sorted(invariants)
