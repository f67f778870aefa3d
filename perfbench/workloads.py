"""Seeded inputs for the benchmark's workloads, and independent checks of
what the grouptables CLI prints for them.

Standard library only: nothing here imports grouptables, so the checks do
not rely on the code they check.  Each workload draws its requests in
rounds, and every round takes one input from each stratum (a band of group
orders).  Any prefix of a deck therefore holds the same mix of sizes
whatever the seed, which keeps the run-to-run spread of the timings low
while the seed still picks the groups, their presentation and the damage.
"""
from __future__ import annotations

import ast
import math
import os
import re
from itertools import permutations

MAX_ORDER = 256
# rounds per deck; each round takes one input from every stratum
FACTOR_ROUNDS = 60
UNIQUE_ROUNDS = 60
VALIDATE_ROUNDS = 30

# Order bands for factor-mix and unique-perm.  A request's cost grows
# steeply with the order, so equal shares per band keep at least 100
# requests in a run while the two top bands still take most of the time.
# The bands around the median request are 16 orders wide, so that the
# median latency is read where the deck is dense and varies little from
# seed to seed.
ORDER_BANDS = ((2, 15), (16, 31), (32, 63), (64, 79), (80, 95), (96, 111), (112, 127),
               (128, 191), (192, 256))
GOLDEN = (5**0.5 - 1) / 2


# ---------------------------------------------------------------------------
# integer arithmetic


def factorize(n):
    """[(p, k), ...] with n = prod p^k, primes ascending."""
    out = []
    p = 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def least_prime(n):
    return factorize(n)[0][0]


def _partitions(k, largest):
    if k == 0:
        yield ()
        return
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def abelian_types(max_order=MAX_ORDER):
    """Every abelian group of order 2..max_order up to isomorphism, as the
    ascending tuple of its prime-power cyclic factors (515 for 256)."""
    out = []
    for n in range(2, max_order + 1):
        types = [()]
        for p, k in factorize(n):
            types = [t + tuple(p**e for e in part) for t in types for part in _partitions(k, k)]
        out.extend(tuple(sorted(t)) for t in types)
    return out


def invariant_factors(primary):
    """Invariant factors d1 | d2 | ... of the abelian group with the given
    prime-power factors, ascending."""
    by_prime = {}
    for q in primary:
        by_prime.setdefault(least_prime(q), []).append(q)
    cols = [sorted(qs, reverse=True) for qs in by_prime.values()]
    rank = max(len(c) for c in cols)
    return sorted(math.prod(c[i] for c in cols if i < len(c)) for i in range(rank))


def expression(factors):
    """CLI tokens (`zn n` or `dp zn a zn b ...`) for the direct product of
    cyclic groups."""
    if len(factors) == 1:
        return ["zn", str(factors[0])]
    return ["dp"] + [tok for q in factors for tok in ("zn", str(q))]


# ---------------------------------------------------------------------------
# decks


def cost_proxy(t):
    """Expected cost of a request on the abelian type t: the work grows with
    the n^2 table entries and with each cyclic factor."""
    return math.prod(t) ** 2 * 1.2 ** len(t)


def order_bands(types):
    """ORDER_BANDS strata of abelian types, each sorted by cost_proxy."""
    return [sorted((t for t in types if lo <= math.prod(t) <= hi), key=cost_proxy)
            for lo, hi in ORDER_BANDS]


def equal_bins(groups, k):
    """k strata holding equal shares of the (order, ...) groups, ascending
    by order."""
    groups = sorted(groups, key=lambda g: g[0])
    return [groups[len(groups) * i // k : len(groups) * (i + 1) // k] for i in range(k)]


def rounds(rng, strata, count):
    """count rounds of (round, stratum, item); each round takes one item
    from every stratum, in a shuffled stratum order.  The draws within a stratum
    follow a golden-ratio sequence from a seeded start, so any prefix of
    them spreads evenly over the stratum, which the caller sorts by
    expected cost."""
    starts = [rng.random() for _ in strata]
    out = []
    for r in range(count):
        order = list(range(len(strata)))
        rng.shuffle(order)
        for s in order:
            x = (starts[s] + r * GOLDEN) % 1.0
            out.append((r, s, strata[s][int(x * len(strata[s]))]))
    return out


class Quota:
    """Damages exactly one request in every `every`, shifting a due damage to
    the next request that can take it."""

    def __init__(self, every):
        self.every = every
        self.seen = 0
        self.owed = 0

    def take(self, eligible):
        self.seen += 1
        if self.seen % self.every == 0:
            self.owed += 1
        if self.owed and eligible:
            self.owed -= 1
            return True
        return False


# ---------------------------------------------------------------------------
# explicit tables, built here independently of the library


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_table(k):
    """S_k on lexicographic one-line permutations, (x*y)(i) = x[y[i]]."""
    roster = list(permutations(range(k)))
    pos = {x: i for i, x in enumerate(roster)}
    return [[pos[tuple(x[y[i]] for i in range(k))] for y in roster] for x in roster]


def product_table(a, b):
    """Table of the direct product; index of (x, y) is x * |b| + y."""
    nb = len(b)
    return [[x + y for x in [v * nb for v in ra] for y in rb] for ra in a for rb in b]


def group_table(parts):
    t = [[0]]
    for part in parts:
        t = product_table(t, part)
    return t


# ---------------------------------------------------------------------------
# factor-mix


FACTOR_LINE = re.compile(r"order=(\d+) p=(\d+) generator=\S.*")


def factor_mix(rng, workdir):
    """`factor` on `zn`/`dp` expressions of abelian groups, in primary or
    invariant-factor form."""
    strata = order_bands(abelian_types())
    form = rng.randrange(2)
    reqs = []
    for r, _, primary in rounds(rng, strata, FACTOR_ROUNDS):
        if (r + form) % 2:
            factors = list(primary)
            rng.shuffle(factors)
        else:
            factors = invariant_factors(primary)
        argv = ["factor"] + expression(factors)
        reqs.append({
            "argv": argv,
            "order": math.prod(primary),
            "rejected": False,
            "key": " ".join(argv),
            "primary": list(primary),
        })
    return reqs


def check_factor(req, rc, out, err):
    if rc != 0 or err:
        return f"exit {rc}, stderr {err!r}"
    lines = out.splitlines()
    if not lines or lines[-1] != "iso verified: true":
        return "missing 'iso verified: true'"
    got = []
    for line in lines[:-1]:
        m = FACTOR_LINE.fullmatch(line)
        if m is None:
            return f"unexpected line {line!r}"
        q, p = int(m[1]), int(m[2])
        if q < 2 or least_prime(q) != p:
            return f"order {q} reported with p={p}"
        got.append(q)
    if sorted(got) != req["primary"]:
        return f"factor orders {sorted(got)}, expected {req['primary']}"
    return None


# ---------------------------------------------------------------------------
# unique-perm


def _tuples(orders):
    out = [()]
    for n in orders:
        out = [t + (x,) for t in out for x in range(n)]
    return out


def _element_order(x, orders):
    return math.lcm(*(n // math.gcd(c, n) for c, n in zip(x, orders)))


def _fmt(x):
    return "(" + " ".join(str(c) for c in x) + ")"


def _map_image(req, x):
    """Image of x under the request's map, swap included."""
    a, b = req["swap"] or (None, None)
    if x == a:
        x = b
    elif x == b:
        x = a
    return tuple(x[s] for s in req["sigma"])


def unique_perm(rng, workdir):
    """`unique L -- M mapfile` with M a permutation of L and the map the
    matching coordinate permutation.  One map in 10 swaps the images of two
    elements of different orders, so it is not a homomorphism.

    The damaged maps form a stratum of their own, every type that has
    non-identity elements of two orders sorted by cost_proxy, so that in
    any prefix of the deck their costs spread evenly too; a damaged map
    costs about half as much as a clean one, and damage that fell on
    whatever type a band drew would move the median latency by seed."""
    bands = order_bands(abelian_types())
    # in an elementary abelian group all non-identity orders agree
    damageable = [t for band in bands for t in band
                  if len(set(t)) > 1 or least_prime(t[0]) != t[0]]
    strata = bands + [sorted(damageable, key=cost_proxy)]
    reqs = []
    for k, (_, stratum, primary) in enumerate(rounds(rng, strata, UNIQUE_ROUNDS)):
        l = list(primary)
        rng.shuffle(l)
        sigma = list(range(len(l)))
        rng.shuffle(sigma)
        m = [l[s] for s in sigma]
        elems = _tuples(l)
        order_of = {x: _element_order(x, l) for x in elems}
        swap = None
        # a bijection that changes an element's order is no isomorphism
        if stratum == len(bands):
            a = rng.choice(elems[1:])
            b = rng.choice([x for x in elems[1:] if order_of[x] != order_of[a]])
            swap = (a, b)
        name = f"u{k:04d}.map"
        req = {"l": l, "m": m, "sigma": sigma, "swap": swap}
        with open(os.path.join(workdir, name), "w") as f:
            f.writelines(f"{_fmt(x)} -> {_fmt(_map_image(req, x))}\n" for x in elems)
        argv = ["unique"] + expression(l) + ["--"] + expression(m) + [name]
        req.update({
            "argv": argv,
            "order": math.prod(l),
            "rejected": swap is not None,
            "key": repr((l, m, sigma, swap)),
        })
        reqs.append(req)
    return reqs


HOM_ERROR = re.compile(r"error: map is not a homomorphism: operation failure at (.*)")


def check_unique(req, rc, out, err):
    head = [
        f"orders L: [{', '.join(map(str, req['l']))}]",
        f"orders M: [{', '.join(map(str, req['m']))}]",
    ]
    lines = out.splitlines()
    if req["swap"] is None:
        if rc != 0 or err or lines != head + ["permutation: true"]:
            return f"exit {rc}, stdout {out!r}, stderr {err!r}"
        return None
    m = HOM_ERROR.fullmatch(err.strip())
    if rc != 1 or lines != head or m is None:
        return f"corrupted map: exit {rc}, stdout {out!r}, stderr {err!r}"
    x, y = ast.literal_eval(m[1])
    l, mo = req["l"], req["m"]
    for z in (x, y):
        if len(z) != len(l) or not all(0 <= c < n for c, n in zip(z, l)):
            return f"witness element {z!r} is outside the group"
    xy = tuple((a + b) % n for a, b, n in zip(x, y, l))
    fx, fy = _map_image(req, x), _map_image(req, y)
    if _map_image(req, xy) == tuple((a + b) % n for a, b, n in zip(fx, fy, mo)):
        return f"witness {(x, y)!r} satisfies m(x*y) = m(x)*m(y)"
    return None


# ---------------------------------------------------------------------------
# validate-files


def _non_abelian():
    """(order, table parts) for s 3..5 and dp s 3|s 4 zn k."""
    s = {k: symmetric_table(k) for k in (3, 4, 5)}
    out = [(len(s[k]), [s[k]]) for k in (3, 4, 5)]
    for k in (3, 4):
        n = len(s[k])
        out += [(n * m, [s[k], cyclic_table(m)]) for m in range(2, MAX_ORDER // n + 1)]
    return out


def validate_files(rng, workdir):
    """`validate FILE` on relabelled group files; 3 in 4 abelian, 1 in 4
    non-abelian, and 1 in 4 with one non-identity entry changed."""
    abelian = [(math.prod(t), [cyclic_table(q) for q in t]) for t in abelian_types()]
    strata = equal_bins(abelian, 9) + equal_bins(_non_abelian(), 3)
    quota = Quota(4)
    reqs = []
    for k, (_, _, (n, parts)) in enumerate(rounds(rng, strata, VALIDATE_ROUNDS)):
        t = group_table(parts)
        perm = [0] + rng.sample(range(1, n), n - 1)  # old index -> new index
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        new = [[perm[t[i][j]] for j in inv] for i in inv]
        labels = rng.sample(range(10 * n), n)
        corrupted = quota.take(n > 2)
        if corrupted:
            # one changed entry repeats a value in its row, so the table is no
            # Latin square and hence no group table
            i, j = rng.randrange(1, n), rng.randrange(1, n)
            new[i][j] = rng.choice([v for v in range(n) if v != new[i][j]])
        name = f"v{k:04d}.grp"
        with open(os.path.join(workdir, name), "w") as f:
            f.write(f"group {n}\n{' '.join(map(str, labels))}\n")
            f.writelines(" ".join(map(str, row)) + "\n" for row in new)
        reqs.append({
            "argv": ["validate", name],
            "order": n,
            "rejected": corrupted,
            "key": name,
            "labels": labels,
            "table": new if corrupted else None,
        })
    return reqs


AXIOM_FAILURE = re.compile(r"axiom failure: (associativity|inverse): witness (.*)")


def check_validate(req, rc, out, err):
    n = req["order"]
    if req["table"] is None:
        if rc != 0 or err or out != f"valid group of order {n}\n":
            return f"clean table: exit {rc}, stdout {out!r}, stderr {err!r}"
        return None
    m = AXIOM_FAILURE.fullmatch(out.strip())
    if rc != 1 or err or m is None:
        return f"corrupted table: exit {rc}, stdout {out!r}, stderr {err!r}"
    index = {label: i for i, label in enumerate(req["labels"])}
    try:
        w = [index[x] for x in ast.literal_eval(m[2])]
    except (KeyError, TypeError, ValueError, SyntaxError):
        return f"witness {m[2]} names no elements of the table"
    t = req["table"]
    if len(w) != (3 if m[1] == "associativity" else 1):
        return f"witness {m[2]} has the wrong arity"
    if m[1] == "associativity":
        a, b, c = w
        if t[t[a][b]][c] == t[a][t[b][c]]:
            return f"witness {m[2]} is associative"
    else:
        (a,) = w
        if any(t[a][j] == 0 and t[j][a] == 0 for j in range(n)):
            return f"witness {m[2]} has a two-sided inverse"
    return None


WORKLOADS = {
    "factor-mix": (factor_mix, check_factor),
    "unique-perm": (unique_perm, check_unique),
    "validate-files": (validate_files, check_validate),
}
