"""The line split of parse_group and parse_map: the lines of
str.splitlines with the blank ones dropped, matched one at a time once
every break is made "\\n", so that a group file far longer than its
header allows, or a map file of more than MAX_ORDER pairs, is rejected
without a list of all its lines."""
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from grouptables.core import MAX_FILE_CHARS, MAX_ORDER
from grouptables.errors import DomainError, ResourceError
from grouptables.fileformat import _BREAKS, _non_blank_matches, parse_group, parse_map


def test_breaks_are_the_splitlines_boundaries():
    breaks = [chr(c) for c in range(0x110000) if len(f"a{chr(c)}b".splitlines()) == 2]
    assert sorted("\n" + _BREAKS) == breaks


LINE_CHARS = "ab \t\u3000\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from(LINE_CHARS)), st.integers(0, 4))
def test_lines_match_splitlines(text, keep):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    found, count = _non_blank_matches(text, keep)
    assert ([m[0] for m in found], count) == (lines[:keep], len(lines))


def test_over_long_file_rejected_in_bounded_memory():
    # headed `group 3`, so 5 lines are due; splitting all 2.8 M rows into
    # one list peaked at about 200 MB here
    rows = (MAX_FILE_CHARS - len("group 3\n")) // len("0 1 2\n")
    text = "group 3\n" + "0 1 2\n" * rows
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=rf"^expected 5 lines, got {rows + 1}$"):
            parse_group(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_one_long_blank_line_counted_in_linear_time():
    # a line regex that backtracked across the whole line would take hours
    start = time.perf_counter()
    assert _non_blank_matches(" \t" * (MAX_FILE_CHARS // 2), 1) == ([], 0)
    assert time.perf_counter() - start < 2


def test_roster_line_is_read_from_its_span():
    # headed `group 2`, with a quarter of a million labels: keeping them
    # all before the count check took about 10 MB more than the copy of the
    # roster line, and a full 16 MiB roster line of 2.2 M labels 80 MB more.
    # The roster line is tokenized where it lies in the text: a copy of this
    # 1.8 MB line, as each kept line once was, would take more than the bound
    labels = 2**18
    roster = " ".join(map(str, range(labels)))
    text = f"group 2\n{roster}\n0 1\n1 0\n"
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=rf"^expected 2 labels, got {labels}$"):
            parse_group(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(roster) // 4


def test_map_line_guard_comes_before_labels():
    # every line is a bad label, but only the count is read
    with pytest.raises(ResourceError, match=rf"^map file has {MAX_ORDER + 1} non-blank "
                                            rf"lines, more than the {MAX_ORDER} guard$"):
        parse_map("((\n \t\n" * (MAX_ORDER + 1))


def test_over_long_map_rejected_in_bounded_memory():
    # 2.4 M pairs: parsing them all before the duplicate-key check would
    # take hundreds of MB
    pairs = MAX_FILE_CHARS // len("0 -> 0\n")
    text = "0 -> 0\n" * pairs
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match=rf"^map file has {pairs} non-blank lines"):
            parse_map(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
