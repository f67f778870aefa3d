"""The split of a map line into its two labels, and the lazy label tokens.

A symbol label may hold "->", so print_map can write `a->b -> a->b` (the
round trip is in test_fileformat.TestMapFiles); a line that reads as two
labels around a bare "->" is that pair, and any other line is split at its
first "->", as hand-written `0->1` lines are.  Labels are tokenized as they
are parsed, so a label nested past the guard fails before the rest of its
line is read.
"""
import re
import tracemalloc

import pytest

from grouptables.core import MAX_DEPTH, MAX_FILE_CHARS
from grouptables.errors import DomainError, ResourceError
from grouptables.fileformat import parse_map
from grouptables.gmaps import GroupMap


@pytest.mark.parametrize("text, pairs", [
    ("0->1\n1->0\n", ((0, 1), (1, 0))),
    ("0 ->1\n(1)->(0)\n", ((0, 1), ((1,), (0,)))),
    ("-> -> ->\n  a->b\t->\tb\n", (("->", "->"), ("a->b", "b"))),
])
def test_split_at_a_bare_arrow_or_else_the_first(text, pairs):
    assert parse_map(text) == GroupMap(pairs)


@pytest.mark.parametrize("text, message", [
    ("0 0 -> (\n", "expected one element label, got 2"),
    ("a -> b -> c\n", "expected one element label, got 3"),
    ("0 -> \n", "expected one element label, got 0"),
    ("( -> )\n", "unbalanced parenthesis in element text"),
    ("0 -> 1)\n", "unexpected ')' in element text"),
])
def test_bad_lines_keep_their_first_error(text, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        parse_map(text)


def test_deep_label_fails_before_its_line_is_tokenized():
    # one 16 MiB line `0 -> (0 (0 ...`: a list of its 11 M tokens took
    # about 90 MB before the nesting guard ran
    text = "0 -> " + "(0 " * ((MAX_FILE_CHARS - 5) // 3)
    message = f"^element nesting exceeds the {MAX_DEPTH} guard$"
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match=message):
            parse_map(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20
