"""`factor` against sympy: the cyclic p-group orders printed for a file of
an abelian group equal the group's type, and equal the abelian invariants
sympy computes for the regular representation of the construction, a
direct product of cyclic groups over the prime powers or the invariant
factors of the type.

The printed generators are checked in sympy too: each printed
coordinate tuple c becomes the permutation u_1^c_1 ... u_k^c_k of the unit
vectors, which must have the printed order, and together they must generate
a group of order |G|.

The sympy side shares no code with the kernel: its permutations are the
unit vectors of Z_q1 x ... x Z_qk acting on the mixed-radix indices of the
elements, written down from the moduli alone.
"""
import contextlib
import io
import math
import random
import re
import tempfile
from functools import cache, reduce
from operator import mul
from pathlib import Path

import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from grouptables import cli
from grouptables.core import cyclic_group
from grouptables.fileformat import print_group
from grouptables.products import direct_product

from conftest import relabelled
from oracles import abelian_types, invariant_factors

SAMPLE = random.Random(20).sample(abelian_types(256), 30)
FACTOR_LINE = re.compile(r"order=(\d+) p=\d+ generator=(.+)")


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


@cache
def factored(kind):
    """(moduli, [(order, generator coordinates)]) of `factor` run on a file
    of the construction, relabelled; cached, as both tests read it."""
    rng = random.Random(str(kind))
    # dp zn q1 zn q2 ... over the prime powers or the invariant factors, shuffled
    moduli = list(rng.choice([kind, invariant_factors(kind)]))
    rng.shuffle(moduli)
    g = relabelled(direct_product([cyclic_group(q) for q in moduli]), rng)
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "g.grp")
        path.write_text(print_group(g))
        with contextlib.redirect_stdout(out):
            assert cli.main(["factor", str(path)]) == 0
    *lines, last = out.getvalue().splitlines()
    assert last == "iso verified: true"
    return moduli, [(int(m[1]), tuple(map(int, m[2].strip("()").split())))
                    for m in map(FACTOR_LINE.fullmatch, lines)]


IDS = ["x".join(map(str, kind)) for kind in SAMPLE]


@pytest.mark.parametrize("kind", SAMPLE, ids=IDS)
def test_factor_orders_match_sympy_invariants(kind):
    moduli, printed = factored(kind)
    orders = sorted(order for order, _ in printed)
    assert orders == sorted(kind)
    invariants = PermutationGroup(unit_vector_permutations(moduli)).abelian_invariants()
    assert orders == sorted(invariants)


@pytest.mark.parametrize("kind", SAMPLE, ids=IDS)
def test_printed_generators_match_sympy(kind):
    moduli, printed = factored(kind)
    units = unit_vector_permutations(moduli)
    generators = [reduce(mul, (u**c for u, c in zip(units, coords))) for _, coords in printed]
    assert [gen.order() for gen in generators] == [order for order, _ in printed]
    assert PermutationGroup(generators).order() == math.prod(moduli)
