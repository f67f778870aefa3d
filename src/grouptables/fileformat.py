"""Canonical text formats for groups and maps.

Group file: line 1 is `group <n>`; line 2 holds the n element labels
(identity first); the next n lines are the table rows of zero-based roster
indices.  Structured elements print as parenthesized tuples, e.g. `(0 1)`,
so label tokenization is paren-aware.  A label prints only if it reads
back as itself: ints (numpy integers too, bools not), tuples of printable
labels, and strings that are one token, without blanks or parens, and no
numeral (an optional "-", then decimal digits); any other label is a
DomainError.  So parse(print(g)) round-trips exactly.

A plain file is read into an n x n int16 array of indices, which
check_group types by its dtype: its roster line on its own, split and
converted with int() when all numerals, else read by the label loop on its
span of the text up to an (n + 1)-th label at most, then its table lines in
one pass over their bytes.  The pass declines a file that is not ASCII, is
longer than 32 (n + 1)^2 characters, has a roster line that does not read
as n labels or holds a numeral longer than int() converts, holds a byte
other than digits, blanks and line breaks among its table lines, or has a
row that is not n numerals of at most len(str(n - 1)) digits, each below
n.  Such a file is read line by line from the spans of its non-blank
lines, its roster by the same label loop, which reads every label past the
n-th only to count it, the table row by row into tuples, and that reading
alone reports errors; a file with zero-padded numerals is read so to the
same roster and table.

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


# \s matches exactly the characters str.isspace accepts
_TOKENS = re.compile(r"[()]|[^\s()]+")


def format_element(x):
    if isinstance(x, tuple):
        return "(" + " ".join(format_element(c) for c in x) + ")"
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(x)
    # one token other than a paren, and no numeral by the label loop's rule
    if (isinstance(x, str) and x not in "()" and _TOKENS.fullmatch(x)
            and not x.removeprefix("-").isdecimal()):
        return x
    raise DomainError(f"unprintable symbol label: {x!r}")


def parse_numerals(tokens):
    """int() of each token, all checked with str.isdecimal (exactly the
    digits int() accepts); one longer than int() converts is a ResourceError."""
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise ResourceError("a numeral exceeds the integer conversion limit") from None


def _top_level_elements(text, start, end):
    """The elements of a whitespace-separated, paren-aware label string
    text[start:end], one at a time, read in one pass with a stack of the
    open tuples: the first error in token order is raised."""
    open_tuples = []
    # lazily: the depth guard runs before the rest is read
    for m in _TOKENS.finditer(text, start, end):
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
    return list(_top_level_elements(text, 0, len(text)))


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


# the header of a plain file, the blanks up to its roster line, and that
# line up to the first break an ASCII text can hold
_PLAIN_HEAD = re.compile(
    r"[ \t\r\n]*group[ \t]+([0-9]{1,18})[ \t]*[\r\n][ \t\r\n]*([^\n\r\v\f\x1c-\x1e]*)")
# characters per numeral in a plain file: room for long labels and blanks,
# while the pass's byte arrays stay within a small multiple of n^2
_PLAIN_CHARS = 32
# the line breaks of str.splitlines other than "\n"
_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def _numeral_values(digits, ends, count, n):
    """The int16 values of the numerals of `digits` (bytes less "0", after
    len(str(n - 1)) blanks) whose last digits lie at the positions `ends`
    past the blanks and which hold `count` digits in all, or None if one
    has more than len(str(n - 1)) digits or is not below n.

    The k-th digit from the end of every numeral is read at once, from the
    view k bytes further back, as 0 once a numeral has run out of digits;
    digits left over after the last place belong to a longer numeral.
    """
    width = len(str(n - 1))
    values = np.zeros(len(ends), dtype=np.int16)
    alive = np.ones(len(ends), dtype=bool)
    for place in range(width):
        digit = digits[width - place:][ends]
        alive &= digit < 10
        digit *= alive
        values += np.multiply(digit, 10 ** place, dtype=np.int16)  # no uint8 wrap
        count -= np.count_nonzero(alive)
    return values if not count and values.max() < n else None


def _plain_group(text):
    """(roster, table) of a plain group file read in one byte pass, or None
    where the file is not plain.

    A plain file is ASCII and at most _PLAIN_CHARS (n + 1)^2 characters
    long; its roster line holds n labels, numerals that int() converts if
    all are numerals, and its n table lines only digits, blanks (" ", "\t")
    and breaks ("\r", "\n"), n numerals below n of at most len(str(n - 1))
    digits on each.  A roster that is not all numerals is read by the label
    loop, which stops at an (n + 1)-th label, so only the line reader reads
    an over-long one.  With tabs made spaces and "\r" made "\n", the
    table's bytes are counted as digits, breaks and spaces and its digit
    runs found once; row r, the numerals r n to r n + n - 1, must start and
    end on one line, past that of row r - 1.
    """
    head = _PLAIN_HEAD.match(text) if text.isascii() else None
    if head is None:
        return None
    n = int(head[1])
    if not 0 < n <= MAX_ORDER or len(text) > _PLAIN_CHARS * (n + 1) ** 2:
        return None
    numerals = head[2].split()
    try:  # int() past its digit limit raises ValueError, as does a bad label
        if all(map(str.isdecimal, numerals)):
            labels = list(map(int, numerals[:n + 1]))
        else:
            labels = list(islice(_top_level_elements(text, *head.span(2)), n + 1))
    except ValueError:
        return None
    if len(labels) != n:
        return None
    # the table lines between blanks, so a digit is read width places back
    # from any numeral's end and a numeral never ends the bytes
    width = len(str(n - 1))
    data = b" " * width + text[head.end():].encode("ascii") + b" "
    data = data.replace(b"\t", b" ").replace(b"\r", b"\n")  # no copy without them
    raw = np.frombuffer(data, dtype=np.uint8)
    digits = raw - ord("0")  # uint8: the other bytes wrap past 9
    raw = raw[width:]
    is_digit = digits[width:] < 10
    breaks = np.flatnonzero(raw == ord("\n"))
    count = np.count_nonzero(is_digit)
    if count + len(breaks) + np.count_nonzero(raw == ord(" ")) != len(raw):
        return None  # a byte that is no digit, break or blank
    del data, raw  # the pass peaks while it finds the run ends and sums the values
    ends = np.flatnonzero(is_digit[:-1] > is_digit[1:])
    del is_digit
    if len(ends) != n * n:
        return None
    first, last = np.searchsorted(breaks, ends[::n]), np.searchsorted(breaks, ends[n - 1::n])
    if (first != last).any() or (first[1:] <= last[:-1]).any():
        return None
    values = _numeral_values(digits, ends, count, n)
    return None if values is None else (tuple(labels), values.reshape(n, n))


def _labels(text, start, end, keep):
    """(the first `keep` top-level elements of text[start:end], the number
    of them all): the rest are read by the same loop only to be counted, so
    the first error in token order is raised wherever it lies."""
    elements = _top_level_elements(text, start, end)
    head = list(islice(elements, keep))
    return head, len(head) + sum(1 for _ in elements)


_NON_BLANK = re.compile(r"^[^\S\n]*\S[^\n]*", re.M)


def _non_blank_matches(text, keep):
    """(the matches of the first `keep` non-blank lines of text, the number
    of them all).

    Lines are those of str.splitlines and blank is str.strip's test, but
    with every break made "\\n" only the non-blank lines are matched, one at
    a time, so an over-long file is counted without a list of all its lines.
    A line is read from its match's span, so none is copied.
    """
    for ch in _BREAKS:
        text = text.replace(ch, "\n")
    lines = _NON_BLANK.finditer(text)
    found = list(islice(lines, keep))
    return found, len(found) + sum(1 for _ in lines)


def parse_group(text):
    """Parse a group file into (roster, table) without validating axioms.

    The table is an n x n int16 array when the file is plain (see
    _plain_group), and a tuple of row tuples of ints otherwise.  Only this
    line-by-line reading of a file that is not plain reports errors.
    """
    plain = _plain_group(text)
    if plain is not None:
        return plain
    lines, count = _non_blank_matches(text, MAX_ORDER + 2)
    if not lines:
        raise DomainError("empty group file")
    head = lines[0][0].split()
    if len(head) != 2 or head[0] != "group" or not head[1].isdecimal():
        raise DomainError(f"bad header line: {lines[0][0]!r}")
    n = parse_numerals([head[1]])[0]
    if n > MAX_ORDER:
        raise ResourceError(f"group file order {n} exceeds the {MAX_ORDER} guard")
    if count != n + 2:
        raise DomainError(f"expected {n + 2} lines, got {count}")
    roster, count = _labels(lines[1].string, *lines[1].span(), n)
    if count != n:
        raise DomainError(f"expected {n} labels, got {count}")
    table = []
    for m in lines[2:]:
        row = m[0].split()
        if len(row) != n or not all(map(str.isdecimal, row)):
            raise DomainError(f"bad table row: {m[0]!r}")
        table.append(parse_numerals(row))
    return tuple(roster), tuple(table)


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
    lines, count = _non_blank_matches(text, MAX_ORDER + 1)
    if count > MAX_ORDER:
        raise ResourceError(
            f"map file has {count} non-blank lines, more than the {MAX_ORDER} guard")
    pairs = []
    for m in lines:
        ln = m[0]
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
