"""Spans and counts around grouptables' public functions, installed from
outside the library.

Every public function of the traced modules is wrapped where it is defined
and under every name another grouptables module bound it to with
`from .x import f`, so calls between modules and recursive calls are seen.
Functions reached only through other references, such as the `cli.VERBS`
table, are not wrapped; their time counts as their caller's self time.
`FiniteGroup.op` is too hot for a span and gets a call count only.
"""
import inspect
import sys
import time
from collections import Counter
from functools import wraps

MODULES = ("core", "gmaps", "products", "pgroup", "abelian", "uniqueness",
           "fileformat", "numtheory", "cli")

SELF_TIMES = (
    "core.check_group", "core.subgroup", "core.quotient", "core.abelianp",
    "pgroup.complement_subgroup", "pgroup.cyclic_p_subgroup_list", "pgroup.max_ord",
    "abelian.cyclic_subgroup_list", "abelian.rel_prime_split", "abelian.abelian_factorization",
    "products.direct_product", "products.product_list_map", "products.internal_direct_product_p",
    "gmaps.homomorphism_check", "gmaps.classify", "gmaps.inv_isomorphism",
    "uniqueness.verify_unique_factorization", "uniqueness.reduce_cyclic_iso",
    "uniqueness.group_power",
    "fileformat.parse_group", "fileformat.parse_map",
    "cli.main",
)
CALLS = (
    "core.check_group", "core.subgroup", "core.quotient",
    "pgroup.complement_subgroup",
    "products.direct_product", "products.internal_direct_product_p",
    "gmaps.homomorphism_check", "gmaps.classify",
    "uniqueness.verify_unique_factorization", "uniqueness.group_power",
)


class Tracer:
    """Spans in parallel lists: name, start, end, parent span and request."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents, self.requests = [], [], [], [], []
        self.stack = []
        self.request_id = -1
        self.op_calls = 0
        self.hom_calls = 0
        self.hom_distinct = 0
        self.hom_seen = set()

    def span(self, name, fn):
        names, starts, ends, parents, requests, stack = (
            self.names, self.starts, self.ends, self.parents, self.requests, self.stack)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = time.perf_counter()
                stack.pop()

        return wrapper

    def count_hom_checks(self, fn):
        """Counts calls and distinct (map, G, H) triples within a request.
        It runs inside the homomorphism_check span, so the cost of hashing
        the triple is charged to that span, not to the caller."""

        @wraps(fn)
        def wrapper(m, g, h):
            self.hom_calls += 1
            if (m, g, h) not in self.hom_seen:
                self.hom_seen.add((m, g, h))
                self.hom_distinct += 1
            return fn(m, g, h)

        return wrapper

    def count_ops(self, op):
        @wraps(op)
        def wrapper(g, x, y):
            self.op_calls += 1
            return op(g, x, y)

        return wrapper

    def request(self, main):
        """main, with every call opening a new request."""

        def run(argv):
            self.request_id += 1
            self.hom_seen.clear()
            return main(argv)

        return run

    def install(self):
        # `import grouptables.products` would give the function `products`
        # that the package re-exports, so modules come from sys.modules
        package = [m for n, m in list(sys.modules.items())
                   if n == "grouptables" or n.startswith("grouptables.")]
        for short in MODULES:
            mod = sys.modules["grouptables." + short]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                inner = fn
                if f"{short}.{name}" == "gmaps.homomorphism_check":
                    inner = self.count_hom_checks(fn)
                wrapped = self.span(f"{short}.{name}", inner)
                for other in package:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, attr, wrapped)
        core = sys.modules["grouptables.core"]
        core.FiniteGroup.op = self.count_ops(core.FiniteGroup.op)

    def self_times(self):
        """(self seconds, calls) per span name; a span's self time is its
        duration less the durations of its child spans."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        self_s, calls = Counter(), Counter(self.names)
        for name, t in zip(self.names, own):
            self_s[name] += t
        return self_s, calls

    def layer_metrics(self):
        self_s, calls = self.self_times()
        out = {f"{n}.self_s": self_s[n] for n in SELF_TIMES}
        out.update({f"{n}.calls": calls[n] for n in CALLS})
        out["core.FiniteGroup.op.calls"] = self.op_calls
        # with no calls, no call was wasted
        out["gmaps.homomorphism_check.useful_ratio"] = (
            self.hom_distinct / self.hom_calls if self.hom_calls else 1.0)
        out["numtheory.self_s"] = sum(t for n, t in self_s.items() if n.startswith("numtheory."))
        return out
