"""Canonical text formats for groups and maps.

Group file: line 1 is `group <n>`; line 2 holds the n element labels
(identity first); the next n lines are the table rows of zero-based roster
indices.  Structured elements print as parenthesized tuples, e.g. `(0 1)`,
so label tokenization is paren-aware.  parse(print(g)) round-trips exactly.

A plain file is read into an n x n int16 array of indices, which
check_group types by its dtype: its roster line on its own, split and
converted with int() when all numerals, else tokenized on its span of the
text, then its table lines in one pass over their bytes.  The pass declines
a file that is not ASCII, is longer than 32 (n + 1)^2 characters, has a
roster line that does not read as n labels or holds a numeral of over 18
digits, holds a byte other than digits, blanks and line breaks among its
table lines, or has a row that is not n numerals of at most 18 digits,
each below n.  Such a file is read line by line from the spans of its
non-blank lines, the table row by row into tuples, and that reading alone
reports errors.

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


_MAX_DIGITS = 18  # the longest numeral a plain file holds; it ends the digit loop

# the header of a plain file and the blanks up to its roster line
_PLAIN_HEAD = re.compile(r"[ \t\r\n]*group[ \t]+([0-9]{1,18})[ \t]*[\r\n][ \t\r\n]*")
# characters per numeral in a plain file: room for long numerals and blanks,
# while the pass's byte arrays stay within a small multiple of n^2
_PLAIN_CHARS = 32
# an all-numeral roster line, up to its line break
_NUMERAL_ROSTER = re.compile(r"[0-9 \t]*+(?=[\r\n\v\f\x1c-\x1e]|\Z)")
_LINE_END = re.compile(r"[\r\n\v\f\x1c-\x1e]|\Z")


def _numeral_values(digits, ends, count, n):
    """The int16 values of the numerals of `digits` (bytes less "0", after
    _MAX_DIGITS blanks) whose last digits lie at the positions `ends` past
    the blanks and which hold `count` digits in all, or None if one has
    more than _MAX_DIGITS digits or is not below n.

    The k-th digit from the end of every numeral is read at once, from the
    view k bytes further back, as 0 once a numeral has run out of digits,
    until all `count` have been read.  The first len(str(n - 1)) places are
    summed into the values; at any later place a numeral still running must
    have a leading zero, as any other digit makes it at least n.
    """
    width = len(str(n - 1))
    values = np.zeros(len(ends), dtype=np.int16)
    alive = np.ones(len(ends), dtype=bool)
    for place in range(_MAX_DIGITS):
        digit = digits[_MAX_DIGITS - place:][ends]
        alive &= digit < 10
        digit *= alive
        if place < width:
            values += np.multiply(digit, 10 ** place, dtype=np.int16)  # no uint8 wrap
        elif digit.any():
            return None
        count -= np.count_nonzero(alive)
        if not count:
            return values if values.max() < n else None
    return None


def _plain_group(text):
    """(roster, table) of a plain group file read in one byte pass, or None
    where the file is not plain.

    A plain file is ASCII and at most _PLAIN_CHARS (n + 1)^2 characters
    long; its roster line holds n labels, numerals of at most 18 digits if
    all are numerals, and its n table lines only digits, blanks (" ", "\t")
    and breaks ("\r", "\n"), n numerals below n on each.  With tabs made
    spaces and "\r" made "\n", the table's bytes are counted as digits,
    breaks and spaces and its digit runs found once; row r, the numerals r n
    to r n + n - 1, must start and end on one line, past that of row r - 1.
    """
    head = _PLAIN_HEAD.match(text) if text.isascii() else None
    if head is None:
        return None
    n = int(head[1])
    if not 0 < n <= MAX_ORDER or len(text) > _PLAIN_CHARS * (n + 1) ** 2:
        return None
    start = head.end()
    roster = _NUMERAL_ROSTER.match(text, start)
    if roster:
        roster_end = roster.end()
        numerals = roster[0].split()
        if len(numerals) != n or max(map(len, numerals)) > _MAX_DIGITS:
            return None
        labels = list(map(int, numerals))
    else:
        roster_end = _LINE_END.search(text, start).start()
        try:
            labels, count = _labels(text, start, roster_end, n)
        except (DomainError, ResourceError):
            return None
        if count != n:
            return None
    # the table lines between blanks, so a digit is read _MAX_DIGITS places
    # back from any numeral's end and a numeral never ends the bytes
    data = b" " * _MAX_DIGITS + text[roster_end:].encode("ascii") + b" "
    data = data.replace(b"\t", b" ").replace(b"\r", b"\n")  # no copy without them
    raw = np.frombuffer(data, dtype=np.uint8)
    digits = raw - ord("0")  # uint8: the other bytes wrap past 9
    raw = raw[_MAX_DIGITS:]
    is_digit = digits[_MAX_DIGITS:] < 10
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
