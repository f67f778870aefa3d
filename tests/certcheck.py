"""A checker of `factor`'s printed certificate that imports nothing from the
library, so that it does not rely on the code it checks.

`factor` prints one line `order=q p=p generator=g` per cyclic factor, then
`iso verified: true`.  Those lines are a complete certificate: for
generators g_1 ... g_k of orders q_1 ... q_k, the map c -> g_1^c_1 * ... *
g_k^c_k from Z_q1 x ... x Z_qk to the group is the claimed isomorphism.  If
it is a bijection onto the n elements and a homomorphism, the table is a
group isomorphic to the product, so no n^3 axiom check is needed: the
checker reads the group text that `cayley` prints (`group n`, the roster
line, n rows of indices) with its own label split, and makes n^2 table
lookups.  Standard library only.

`unique L -- M FILE` takes a map file of `x -> y` lines, x and y tuples of
coordinates, as its certificate.  check_map_certificate accepts it when the
lines are a bijection from Z_l1 x ... x Z_lk onto Z_m1 x ... x Z_mj and a
homomorphism, read against the two sum tables: again n^2 lookups.
"""
import re
from math import prod

FACTOR_LINE = re.compile(r"order=(\d+) p=(\d+) generator=(.+)")


def _normal(label):
    """A label with its blank runs made single blanks."""
    return " ".join(label.split())


def split_labels(line):
    """The top-level labels of a roster line; a label is a token or a
    parenthesised group, split at blanks outside parentheses."""
    labels, depth, start = [], 0, None
    for k, ch in enumerate(line + " "):
        if ch.isspace() and depth == 0:
            if start is not None:
                labels.append(_normal(line[start:k]))
                start = None
            continue
        if start is None:
            start = k
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            raise ValueError("unbalanced parenthesis in the roster")
    if depth:
        raise ValueError("unbalanced parenthesis in the roster")
    return labels


def read_group(text):
    """(labels, table) of a group text: the table a list of n rows of n
    indices below n."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "group" or not head[1].isdecimal():
        raise ValueError("no `group n` header")
    n = int(head[1])
    labels = split_labels(lines[1]) if len(lines) > 1 else []
    if len(labels) != n or len(set(labels)) != n:
        raise ValueError("the roster is not n distinct labels")
    table = [[int(v) for v in ln.split()] for ln in lines[2:]]
    if len(table) != n or any(len(row) != n or not all(0 <= v < n for v in row) for row in table):
        raise ValueError("the table is not n rows of n indices below n")
    return labels, table


def read_factors(text):
    """[(q, p, generator label)] of `factor`'s output."""
    *lines, last = text.splitlines() or [""]
    if last != "iso verified: true":
        raise ValueError("the output does not end in `iso verified: true`")
    factors = []
    for ln in lines:
        m = FACTOR_LINE.fullmatch(ln)
        if m is None:
            raise ValueError(f"not a factor line: {ln!r}")
        factors.append((int(m[1]), int(m[2]), _normal(m[3])))
    return factors


def is_prime(p):
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def is_power_of(q, p):
    while q > 1 and q % p == 0:
        q //= p
    return q == 1


def sum_table(orders):
    """Row u, column v: the index of u + v in Z_q1 x ... x Z_qk, with
    indices in mixed radix, the last coordinate running fastest."""
    table = [[0]]
    for q in reversed(orders):
        m = len(table)
        table = [[(a + b) % q * m + s for b in range(q) for s in old]
                 for a in range(q) for old in table]
    return table


def check_certificate(group_text, factor_text):
    """None if `factor`'s output is a certificate for the group text, else
    the first reason it is not."""
    try:
        labels, t = read_group(group_text)
        factors = read_factors(factor_text)
    except ValueError as e:
        return str(e)
    n = len(labels)
    identity = next((e for e in range(n) if t[e] == list(range(n))), None)
    if identity is None:
        return "no identity row"
    index = {label: k for k, label in enumerate(labels)}
    images = [identity]  # g_1^c_1 * ... * g_k^c_k, in mixed-radix order of c
    for q, p, label in factors:
        if not is_prime(p):
            return f"p = {p} is not prime"
        if q < 2 or not is_power_of(q, p):
            return f"order {q} is not a power of p = {p}"
        if label not in index:
            return f"generator {label} is not in the roster"
        g, powers = index[label], [identity]
        for _ in range(n):
            powers.append(t[powers[-1]][g])
            if powers[-1] == identity:
                break
        if powers[-1] != identity or len(powers) - 1 != q:
            return f"generator {label} does not have order {q}"
        images = [t[x][y] for x in images for y in powers[:-1]]
    if prod(q for q, _, _ in factors) != n:
        return "the orders do not multiply to n"
    if sorted(images) != list(range(n)):
        return "the generators' products are not a bijection onto the roster"
    for u, row in enumerate(sum_table([q for q, _, _ in factors])):
        products = t[images[u]]
        if [products[y] for y in images] != [images[w] for w in row]:
            return "the generators' products are not a homomorphism"
    return None


def read_tuple(label):
    """The coordinates of a `(c1 c2 ...)` label."""
    label = label.strip()
    parts = label[1:-1].split()
    if label[:1] != "(" or label[-1:] != ")" or not all(map(str.isdecimal, parts)):
        raise ValueError(f"not a tuple of numerals: {label!r}")
    return tuple(map(int, parts))


def tuple_index(x, orders):
    """The mixed-radix index of x in Z_q1 x ... x Z_qk, the last coordinate
    running fastest as in sum_table, or None if x is not an element."""
    if len(x) != len(orders) or not all(0 <= c < q for c, q in zip(x, orders)):
        return None
    k = 0
    for c, q in zip(x, orders):
        k = k * q + c
    return k


def check_map_certificate(l, m, map_text):
    """None if the `x -> y` lines of map_text are an isomorphism from
    Z_l1 x ... x Z_lk onto Z_m1 x ... x Z_mj, else the first reason they
    are not."""
    images = [None] * prod(l)
    for ln in filter(str.strip, map_text.splitlines()):
        left, arrow, right = ln.partition("->")
        try:
            u, v = tuple_index(read_tuple(left), l), tuple_index(read_tuple(right), m)
        except ValueError as e:
            return f"bad map line {ln!r}: {e}" if arrow else f"not a map line: {ln!r}"
        if u is None or v is None:
            return f"{ln!r} is not a pair of elements"
        if images[u] is not None:
            return f"{left.strip()} is mapped twice"
        images[u] = v
    if None in images:
        return "the map does not cover the domain"
    if sorted(images) != list(range(prod(m))):
        return "the map is not a bijection"
    codomain_sums = sum_table(m)
    for u, row in enumerate(sum_table(l)):
        sums = codomain_sums[images[u]]
        if [images[w] for w in row] != [sums[v] for v in images]:
            return "the map is not a homomorphism"
    return None
