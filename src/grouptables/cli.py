"""Batch command-line front end.

Verbs: validate, info, cayley, factor, iso, unique, selftest.  Groups are
given either as files (the canonical group format) or as builder
expressions: `zn <n>`, `s <n>`, or `dp <builder>...` (dp consumes the rest
of its token list).  Exit codes: 0 success/true, 1 checked failure/false,
2 usage error.

Argument handling is hand-rolled: the `unique` verb needs a literal `--`
separator between its two builder lists, which argparse consumes.
"""
from __future__ import annotations

import os
import sys
from collections import Counter

from .abelian import abelian_factorization
from .core import MAX_DEPTH, MAX_FILE_CHARS, abelianp, check_group, cyclic_group, symmetric_group
from .errors import DomainError, ResourceError, UsageError
from .fileformat import (
    format_element,
    load_group,
    parse_group,
    parse_map,
    parse_numerals,
    print_group,
)
from .gmaps import classify, homomorphism_check, identity_map
from .numtheory import least_prime_divisor
from .pgroup import max_ord
from .products import direct_product, group_tuples
from .uniqueness import hits_diff, orders, verify_unique_factorization

USAGE = """\
usage: grouptables <verb> [args]

verbs:
  validate <file>                      check the group axioms of a group file
  info <file | builder...>             order, abelianness, max-ord, order histogram
  cayley <builder...>                  print the group file for a builder
  factor <file | builder...>           cyclic p-group factorization report
  iso <fileG> <fileH> <mapfile>        homomorphism / isomorphism verdicts
  unique <builderL...> -- <builderM...> [mapfile]
                                       uniqueness check for two factor lists
  selftest                             run the built-in invariant suites

builders: zn <n> | s <n> | dp <builder>...
"""


def _parse_one_builder(tokens, k, depth):
    """The group built by tokens[k:], inside depth enclosing dp builders."""
    if k >= len(tokens):
        raise UsageError("missing builder")
    t = tokens[k]
    if t == "zn":
        if k + 1 >= len(tokens) or not tokens[k + 1].isdecimal():
            raise UsageError("zn needs a numeric order")
        return cyclic_group(parse_numerals([tokens[k + 1]])[0]), k + 2
    if t == "s":
        if k + 1 >= len(tokens) or not tokens[k + 1].isdecimal():
            raise UsageError("s needs a numeric degree")
        return symmetric_group(parse_numerals([tokens[k + 1]])[0]), k + 2
    if t == "dp":
        if depth >= MAX_DEPTH:
            raise ResourceError(f"dp nesting exceeds the {MAX_DEPTH} guard")
        return direct_product(_parse_dp_factors(tokens, k + 1, depth + 1)), len(tokens)
    raise UsageError(f"unknown builder {t!r}")


def _parse_dp_factors(tokens, k, depth):
    """The builders from tokens[k] to the end of the list: dp's factors."""
    subs = []
    while k < len(tokens):
        g, k = _parse_one_builder(tokens, k, depth)
        subs.append(g)
    if not subs:
        raise UsageError("dp needs at least one factor")
    return subs


def build_group(tokens):
    g, k = _parse_one_builder(list(tokens), 0, 0)
    if k != len(tokens):
        raise UsageError(f"trailing builder tokens: {tokens[k:]}")
    return g


def build_factor_list(tokens):
    """The factor list denoted by a builder expression: dp gives its
    factors, anything else is a singleton list."""
    tokens = list(tokens)
    if tokens and tokens[0] == "dp":
        return _parse_dp_factors(tokens, 1, 1)
    return [build_group(tokens)]


def _read(path):
    """The text of a group or map file; both formats are UTF-8.  At most
    one character past the guard is read."""
    with open(path, encoding="utf-8") as f:
        text = f.read(MAX_FILE_CHARS + 1)
    if len(text) > MAX_FILE_CHARS:
        raise ResourceError(f"{path} exceeds the {MAX_FILE_CHARS}-character file guard")
    return text


def _group_from_args(args):
    if len(args) == 1 and os.path.exists(args[0]):
        return load_group(_read(args[0]))
    return build_group(args)


def cmd_validate(args, out):
    if len(args) != 1:
        return 2
    roster, table = parse_group(_read(args[0]))
    violation = check_group(roster, table)
    if violation is None:
        print(f"valid group of order {len(roster)}", file=out)
        return 0
    print(str(violation), file=out)
    return 1


def cmd_info(args, out):
    if not args:
        return 2
    g = _group_from_args(args)
    hist = Counter(g.element_order(x) for x in g.roster)
    print(f"order: {g.order}", file=out)
    print(f"abelian: {str(abelianp(g)).lower()}", file=out)
    print(f"max-ord: {max_ord(g)}", file=out)
    print(
        "orders: " + " ".join(f"{d}:{hist[d]}" for d in sorted(hist)), file=out
    )
    return 0


def cmd_cayley(args, out):
    if not args:
        return 2
    g = build_group(args)
    out.write(print_group(g))
    return 0


def cmd_factor(args, out):
    if not args:
        return 2
    fact = abelian_factorization(_group_from_args(args))
    for h in fact.factors:
        p = least_prime_divisor(h.order)
        gen = format_element(h.roster[1])
        print(f"order={h.order} p={p} generator={gen}", file=out)
    print("iso verified: true", file=out)
    return 0


def cmd_iso(args, out):
    if len(args) != 3:
        return 2
    g = load_group(_read(args[0]))
    h = load_group(_read(args[1]))
    m = parse_map(_read(args[2]))
    witness = homomorphism_check(m, g, h)
    if witness is not None:
        print(f"homomorphism: false ({witness})", file=out)
        return 1
    verdict = classify(m, g, h)
    print("homomorphism: true", file=out)
    print(f"epimorphism: {str(verdict.epimorphism).lower()}", file=out)
    print(f"monomorphism: {str(verdict.monomorphism).lower()}", file=out)
    print(f"isomorphism: {str(verdict.isomorphism).lower()}", file=out)
    return 0


def cmd_unique(args, out):
    if "--" not in args:
        return 2
    split = args.index("--")
    left, right = args[:split], args[split + 1 :]
    if not left or not right:
        return 2
    l = build_factor_list(left)
    # The last token is the map file iff the list is complete without it.
    # No complete builder list stays complete with one more token, so at
    # most one of the two parses succeeds.
    try:
        m, mapfile = build_factor_list(right[:-1]), right[-1]
    except UsageError:
        m, mapfile = build_factor_list(right), None
    if mapfile is not None:
        iso = parse_map(_read(mapfile))
    elif orders(l) == orders(m):
        iso = identity_map(group_tuples(l))
    else:
        raise UsageError("a map file is required when the lists differ")
    print(f"orders L: [{', '.join(str(n) for n in orders(l))}]", file=out)
    print(f"orders M: [{', '.join(str(n) for n in orders(m))}]", file=out)
    verdict = verify_unique_factorization(l, m, iso)
    print(f"permutation: {str(verdict).lower()}", file=out)
    if not verdict:
        print(f"witness: {hits_diff(orders(l), orders(m))}", file=out)
        return 1
    return 0


def cmd_selftest(args, out):
    if args:
        return 2
    from .selftest import run_selftest

    return run_selftest(out)


VERBS = {
    "validate": cmd_validate,
    "info": cmd_info,
    "cayley": cmd_cayley,
    "factor": cmd_factor,
    "iso": cmd_iso,
    "unique": cmd_unique,
    "selftest": cmd_selftest,
}


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in VERBS:
        sys.stderr.write(USAGE)
        return 2
    try:
        status = VERBS[argv[0]](argv[1:], sys.stdout)
    except OSError as exc:  # a missing or unreadable file, or a directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 2
    except (DomainError, ResourceError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if status == 2:
        sys.stderr.write(USAGE)
    return status


if __name__ == "__main__":
    sys.exit(main())
