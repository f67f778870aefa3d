"""Canonical text formats for groups and maps.

Group file: line 1 is `group <n>`; line 2 holds the n element labels
(identity first); the next n lines are the table rows of zero-based roster
indices.  Structured elements print as parenthesized tuples, e.g. `(0 1)`,
so label tokenization is paren-aware.  parse(print(g)) round-trips exactly.

A plain table (ASCII digits and blanks, n numerals per row, every entry
below n) is read at once into an n x n integer array of indices, which
check_group types by its dtype; any other table is read row by row into
tuples, and that loop alone reports bad rows and numerals too long to
convert.

Map file: one `x -> y` line per pair, with the same label syntax, split at
a bare `->` between two labels or else the first `->`; at most MAX_ORDER pairs.
"""
from __future__ import annotations

import re
from itertools import islice

import numpy as np

from .core import MAX_DEPTH, MAX_ORDER, validate_group
from .errors import DomainError, ResourceError
from .gmaps import GroupMap


def format_element(x):
    if isinstance(x, tuple):
        return "(" + " ".join(format_element(c) for c in x) + ")"
    if isinstance(x, int):
        return str(x)
    s = str(x)
    if not s or any(ch in s for ch in "() \t\n"):
        raise DomainError(f"unprintable symbol label: {x!r}")
    return s


def parse_numerals(tokens):
    """int() of each token, all checked with str.isdecimal (exactly the
    digits int() accepts); one longer than int() converts is a ResourceError."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ResourceError("a numeral exceeds the integer conversion limit") from None


# \s matches exactly the characters str.isspace accepts
_TOKENS = re.compile(r"[()]|[^\s()]+")


def _top_level_elements(text):
    """The elements of a whitespace-separated, paren-aware label string, one
    at a time, read in one pass with a stack of the open tuples: the first
    error in token order is raised."""
    open_tuples = []
    for m in _TOKENS.finditer(text):  # lazily: the depth guard runs before the rest is read
        t = m[0]
        if t == "(":
            if len(open_tuples) >= MAX_DEPTH:
                raise ResourceError(f"element nesting exceeds the {MAX_DEPTH} guard")
            open_tuples.append([])
            continue
        if t == ")":
            if not open_tuples:
                raise DomainError("unexpected ')' in element text")
            x = tuple(open_tuples.pop())
        elif t.removeprefix("-").isdecimal():
            x = parse_numerals([t])[0]
        else:
            x = t
        if open_tuples:
            open_tuples[-1].append(x)
        else:
            yield x
    if open_tuples:
        raise DomainError("unbalanced parenthesis in element text")


def parse_elements(text):
    """All elements in a whitespace-separated, paren-aware label string."""
    return list(_top_level_elements(text))


def parse_element(text):
    out = parse_elements(text)
    if len(out) != 1:
        raise DomainError(f"expected one element label, got {len(out)}")
    return out[0]


def print_group(g):
    lines = [f"group {g.order}"]
    lines.append(" ".join(format_element(x) for x in g.roster))
    for row in g.table.tolist():
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


_MAX_DIGITS = 18  # int64 holds every 18-digit numeral; int() converts them all


def _index_array(rows, n):
    """The n rows as an n x n int64 array, or None unless every row is n
    ASCII numerals of at most 18 digits between blanks, each below n."""
    body = "\n".join(rows)
    if not body.isascii():
        return None
    b = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
    digit = b - ord("0") < 10  # uint8: bytes below "0" wrap past 10
    newline = b == ord("\n")
    if not (digit | newline | (b == ord(" ")) | (b == ord("\t"))).all():
        return None
    padded = np.concatenate(([False], digit, [False]))
    starts, ends = np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2).T
    if len(starts) != n * n or (ends - starts).max() > _MAX_DIGITS:
        return None
    # n numerals per row: the k-th row break has k * n numerals before it
    if not np.array_equal(np.searchsorted(starts, np.flatnonzero(newline)),
                          np.arange(n, n * n, n)):
        return None
    t = np.fromstring(body, dtype=np.int64, sep=" ")
    if (t >= n).any():
        return None
    return t.reshape(n, n)


# the line breaks of str.splitlines other than "\n"
_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _take(items, keep):
    """(the first `keep` of an iterator's items, the number of them all)."""
    head = list(islice(items, keep))
    return head, len(head) + sum(1 for _ in items)


_NON_BLANK = re.compile(r"^[^\S\n]*\S[^\n]*", re.M)


def _non_blank_lines(text, keep):
    """(the first `keep` non-blank lines of text, the number of them all).

    Lines are those of str.splitlines and blank is str.strip's test, but
    with every break made "\\n" only the non-blank lines are matched, one at
    a time, so an over-long file is counted without a list of all its lines.
    """
    for ch in _BREAKS:
        text = text.replace(ch, "\n")
    return _take((m[0] for m in _NON_BLANK.finditer(text)), keep)


def parse_group(text):
    """Parse a group file into (roster, table) without validating axioms.

    The table is an n x n int64 array when the rows are plain (see
    _index_array), and a tuple of row tuples of ints otherwise.
    """
    lines, count = _non_blank_lines(text, MAX_ORDER + 2)
    if not lines:
        raise DomainError("empty group file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "group" or not head[1].isdecimal():
        raise DomainError(f"bad header line: {lines[0]!r}")
    n = parse_numerals([head[1]])[0]
    if n > MAX_ORDER:
        raise ResourceError(f"group file order {n} exceeds the {MAX_ORDER} guard")
    if count != n + 2:
        raise DomainError(f"expected {n + 2} lines, got {count}")
    roster, count = _take(_top_level_elements(lines[1]), n)  # the rest only counted
    if count != n:
        raise DomainError(f"expected {n} labels, got {count}")
    table = _index_array(lines[2:], n)
    if table is None:
        table = []
        for ln in lines[2:]:
            row = ln.split()
            if len(row) != n or not all(map(str.isdecimal, row)):
                raise DomainError(f"bad table row: {ln!r}")
            table.append(parse_numerals(row))
        table = tuple(table)
    return tuple(roster), table


def load_group(text):
    """Parse and validate a group file."""
    roster, table = parse_group(text)
    return validate_group(roster, table)


def print_map(m):
    return "".join(
        f"{format_element(k)} -> {format_element(v)}\n" for k, v in m.pairs
    )


def parse_map(text):
    """The GroupMap of a map file.  A map's domain is a roster, so more than
    MAX_ORDER non-blank lines are rejected before any label is parsed."""
    lines, count = _non_blank_lines(text, MAX_ORDER + 1)
    if count > MAX_ORDER:
        raise ResourceError(
            f"map file has {count} non-blank lines, more than the {MAX_ORDER} guard")
    pairs = []
    for ln in lines:
        if "->" not in ln:
            raise DomainError(f"bad map line: {ln!r}")
        try:  # a label may hold "->", so a bare "->" between two elements comes first
            x, arrow, y = parse_elements(ln)
        except ValueError:
            arrow = None
        if arrow != "->":
            x, y = map(parse_element, ln.split("->", 1))
        pairs.append((x, y))
    return GroupMap(tuple(pairs))
