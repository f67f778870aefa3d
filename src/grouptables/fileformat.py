"""Canonical text formats for groups and maps.

Group file: line 1 is `group <n>`; line 2 holds the n element labels
(identity first); the next n lines are the table rows of zero-based roster
indices.  Structured elements print as parenthesized tuples, e.g. `(0 1)`,
so label tokenization is paren-aware.  parse(print(g)) round-trips exactly.

A plain file is read in one pass over its bytes into an n x n int16 array
of indices, which check_group types by its dtype.  After the header it
holds only ASCII digits, blanks and line breaks, but for a roster line of
other labels, which is tokenized on its span of the text; its digit runs
are found once and give the rows, the 18-digit cap and the values.  The
pass declines a file that is not ASCII, is longer than 32 (n + 1)^2
characters, holds any other byte among its numeral lines, has a roster
line that does not read as n labels, or has a row that is not n numerals
of at most 18 digits, each below n.  Such a file is read line by line from
the spans of its non-blank lines, the table row by row into tuples, and
that reading alone reports errors.

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
_BLANK = re.compile(r"\s")


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


_MAX_DIGITS = 18  # int64 holds every 18-digit numeral; int() converts them all

# the header of a plain file and the blanks up to its roster line
_PLAIN_HEAD = re.compile(r"[ \t\r\n]*group[ \t]+([0-9]{1,18})[ \t]*[\r\n][ \t\r\n]*")
# characters per numeral in a plain file: room for long numerals and blanks,
# while the pass's byte arrays stay within a small multiple of n^2
_PLAIN_CHARS = 32
_NUMERAL_LINE = re.compile(r"[0-9 \t]*")
_LINE_END = re.compile(r"[\r\n\v\f\x1c-\x1e]|\Z")
# each byte's class in a plain file's numeral lines: 0 for a byte that makes
# the file not plain, 1 for " " and "\t", 2 for "\r" and "\n", 3 for a digit
_BYTE_CLASS = bytes(3 if 48 <= c <= 57 else 2 if c in (10, 13) else 1 if c in (9, 32) else 0
                    for c in range(256))


def _numeral_values(b, ends):
    """The values of the numerals of the byte array b whose last digits lie
    at the positions `ends`, written over `ends`, or None if one has more
    than _MAX_DIGITS digits.

    The k-th digit from the end of every numeral is read at once, as 0 once
    a numeral has run out of digits, until all have run out; then the
    digits are summed most significant first, in place.
    """
    places, alive = [], np.ones(len(ends), dtype=bool)
    while True:
        digits = np.take(b, ends, mode="wrap")  # a numeral that ran out may step past byte 0
        digits -= ord("0")  # uint8: bytes below "0" wrap past 9
        alive &= digits < 10
        if not alive.any():
            break
        if len(places) == _MAX_DIGITS:
            return None
        digits *= alive
        places.append(digits)
        ends -= 1
    values = ends
    values[:] = places.pop()
    for digits in reversed(places):
        values *= 10
        values += digits
    return values


def _plain_group(text):
    """(roster, table) of a plain group file read in one byte pass, or None
    where the file is not plain.

    A plain file is ASCII and at most _PLAIN_CHARS (n + 1)^2 characters
    long.  After its `group n` header it holds only digits, blanks (" ",
    "\t") and line breaks ("\r", "\n"), but for its roster line, which may
    hold any labels and is then tokenized on its span of the text.  Each of
    its n table lines holds n numerals of at most 18 digits, every one below
    n.  The digit runs are found once; they give the lines, the digit cap and
    the values, those of the roster too when it is all numerals.
    """
    head = _PLAIN_HEAD.match(text) if text.isascii() else None
    if head is None:
        return None
    n = int(head[1])
    if not 0 < n <= MAX_ORDER or len(text) > _PLAIN_CHARS * (n + 1) ** 2:
        return None
    start = head.end()
    roster_end = _LINE_END.search(text, start).start()
    labels = None
    if not _NUMERAL_LINE.fullmatch(text, start, roster_end):
        try:
            labels, count = _labels(text, start, roster_end, n)
        except (DomainError, ResourceError):
            return None
        if count != n:
            return None
        start = roster_end
    data = text.encode("ascii")
    classes = np.frombuffer(data.translate(_BYTE_CLASS), dtype=np.uint8)[start:]
    if not classes.all():
        return None
    breaks = np.flatnonzero(classes == 2)
    digit = classes == 3
    del classes
    ends = np.flatnonzero(digit[:-1] > digit[1:])
    if digit[-1:].any():  # a numeral ends the file
        ends = np.append(ends, len(digit) - 1)
    del digit
    numerals = n * n if labels is not None else n * (n + 1)
    # n numerals on each non-blank line: count those before each break
    per_line = np.diff(np.searchsorted(ends, breaks), prepend=0, append=len(ends))
    if len(ends) != numerals or ((per_line != 0) & (per_line != n)).any():
        return None
    ends += start
    values = _numeral_values(np.frombuffer(data, dtype=np.uint8), ends)
    if values is None:
        return None
    table = values[numerals - n * n:].reshape(n, n)
    if table.max() >= n:
        return None
    if labels is None:
        labels = values[:n].tolist()
    return tuple(labels), table.astype(np.int16)


# the line breaks of str.splitlines other than "\n"
_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


# each byte's class in a roster piece: 0 for an ASCII blank, 1 for "(", 2
# for ")", 3 for a byte of a word; a piece that is not ASCII has its blanks
# made " " first, so its other bytes above 127 are bytes of words
_LABEL_CLASS = bytes(1 if c == 40 else 2 if c == 41 else 0 if c < 128 and chr(c).isspace() else 3
                     for c in range(256))


def _labels(text, start, end, keep):
    """(the first `keep` top-level elements of text[start:end], the number
    of them all).

    Past `keep`, all are counted again in pieces cut at blanks, without
    building a tuple or calling int(): each byte of a piece is classed at
    once, and the depth after each parenthesis is a running sum from the
    depth the piece starts at.  The elements are the words that start at
    depth 0 and the parentheses that close to it.  A piece that takes the
    depth below 0 or past MAX_DEPTH, holds a word over 18 bytes (a numeral
    int() could refuse), or ends the text with a tuple open is read again
    by _top_level_elements, with its open tuples before it, which raises
    the first error in token order.
    """
    elements = _top_level_elements(text, start, end)
    head = list(islice(elements, keep))
    if next(elements, None) is None:
        return head, len(head)
    count = depth = 0
    while start < end:
        cut = _BLANK.search(text, min(start + 2**12, end), end)
        stop = cut.start() if cut else end
        piece = text[start:stop]
        if not piece.isascii():
            piece = _BLANK.sub(" ", piece)
        classes = np.frombuffer(piece.encode().translate(_LABEL_CLASS), dtype=np.uint8)
        steps = (classes == 1).astype(np.int8) - (classes == 2)
        after = np.cumsum(steps, dtype=np.int32)
        after += depth
        edges = np.flatnonzero(np.diff(classes == 3, prepend=False, append=False))
        starts, ends = edges[::2], edges[1::2]  # of the words
        if (after.min() < 0 or after.max() > MAX_DEPTH or (ends - starts).max(initial=0) > _MAX_DIGITS
                or (stop == end and after[-1])):
            # closed after the piece unless it ends the text, so only an
            # error the piece holds is raised
            replay = "(" * depth + piece + (")" * int(after[-1]) if stop < end else "")
            for _ in _top_level_elements(replay, 0, len(replay)):
                pass
        count += int(np.count_nonzero(after[starts] == 0)
                     + np.count_nonzero((steps < 0) & (after == 0)))
        depth = int(after[-1])
        start = stop
    return head, count


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


def _non_blank_lines(text, keep):
    """(the first `keep` non-blank lines of text, the number of them all)."""
    found, count = _non_blank_matches(text, keep)
    return [m[0] for m in found], count


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
