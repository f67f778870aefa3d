"""What the CLI prints for every abelian type of order <= 128, pinned.

Each type is given in primary form, `dp zn q1 zn q2 ...` with q1 <= q2 <= ...
prime powers (`zn q` for one factor), and run through `factor`, `info` and
`cayley`; `info` and `cayley` also run on `s 3`, `s 4` and `s 5`.  One
sha256 per verb covers every request's argv, exit code, stdout and stderr,
in this order, so a deliberate change of output shows as a changed line of
DIGESTS.  The claims in `factor`'s output are checked against the type as
the digests are computed, and its lines are checked as a certificate of the
group `cayley` prints by tests/certcheck.py, which imports nothing from the
library, for every type of order <= 128 and a seeded sample of 12 of the
269 of order 129 to 256.
"""
import contextlib
import hashlib
import io
import math
import random
import re
from functools import cache

import pytest

from grouptables.cli import main

from certcheck import check_certificate
from oracles import abelian_types, invariant_factors

DIGESTS = {
    "factor": "ceec826e9c7252095f16fe601d2d6953d308284fb580d88bc266daa455591391",
    "info": "21bbf29018ced1e65e7d19c62c98077cabdb1792b10da8d97c456a9ef650695b",
    "cayley": "aa9f3c8b5633a9d869b4d83a6cb8b092038376366d06d9005fde6b568a31b89a",
}
TYPES = abelian_types(128)
LARGE_SAMPLE = random.Random(24).sample([t for t in abelian_types(256) if math.prod(t) > 128], 12)
SYMMETRIC = [["s", "3"], ["s", "4"], ["s", "5"]]
FACTOR_LINE = re.compile(r"order=(\d+) p=(\d+) generator=(.+)")


def expression(factors):
    if len(factors) == 1:
        return ["zn", str(factors[0])]
    return ["dp"] + [tok for q in factors for tok in ("zn", str(q))]


@cache
def run(*argv):
    """(exit code, stdout, stderr) of one in-process CLI request, cached: both
    tests read `factor`'s output for the primary forms."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def factors_printed(factors):
    """[(order, generator coordinates)] of `factor`'s output for the direct
    product of Z_q over factors, after checking its exit code and last line."""
    rc, out, err = run("factor", *expression(factors))
    assert (rc, err) == (0, ""), factors
    *lines, last = out.splitlines()
    assert last == "iso verified: true"
    return [(int(m[1]), tuple(map(int, m[3].strip("()").split())))
            for m in map(FACTOR_LINE.fullmatch, lines)]


def test_digests_and_factor_orders():
    digests = {}
    for verb in DIGESTS:
        digest = hashlib.sha256()
        requests = [expression(t) for t in TYPES] + ([] if verb == "factor" else SYMMETRIC)
        for argv in requests:
            rc, out, err = run(verb, *argv)
            digest.update(f"{' '.join([verb, *argv])}\n{rc}\n{out}{err}".encode())
        digests[verb] = digest.hexdigest()
    for t in TYPES:
        assert tuple(sorted(order for order, _ in factors_printed(t))) == t
    assert digests == DIGESTS


@pytest.mark.parametrize("form", ["primary", "invariant"])
def test_printed_generators_have_the_printed_orders(form):
    for t in (t for t in TYPES if math.prod(t) <= 64):
        moduli = t if form == "primary" else invariant_factors(t)
        for order, coords in factors_printed(moduli):
            # the order of (c1, ..., ck) in Z_n1 x ... x Z_nk
            assert math.lcm(*(n // math.gcd(c, n) for c, n in zip(coords, moduli))) == order, moduli


def certificate_fault(factors):
    """check_certificate's verdict on `factor`'s output for `cayley`'s group."""
    argv = expression(factors)
    return check_certificate(run("cayley", *argv)[1], run("factor", *argv)[1])


def test_factor_output_is_a_certificate():
    for t in TYPES:
        assert certificate_fault(t) is None, t


def test_factor_output_above_order_128_is_a_certificate():
    for t in LARGE_SAMPLE:
        assert certificate_fault(t) is None, t
