"""parse_group against the row-by-row reference oracles.parse_group_rows,
the label tokenizer against oracles.tokenize_chars, and the label parser
against the recursive reference oracles.parse_elements_recursive.

A plain table is read into an index array and anything else row by row, so
both parsers must give the same roster and table values, or raise the same
exception with the same message, and `validate` must give the same exit
code, stdout and stderr either way.
"""
import contextlib
import io
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grouptables import cli
from grouptables.core import MAX_DEPTH, cyclic, cyclic_group, symmetric_group
from grouptables.errors import DomainError, ResourceError
from grouptables.fileformat import (
    _TOKENS,
    _labels,
    _plain_group,
    _top_level_elements,
    parse_elements,
    parse_group,
    print_group,
)
from grouptables.products import direct_product

from conftest import relabelled
from lemmas import quotient
from oracles import (
    fromstring_index_array,
    parse_elements_recursive,
    parse_group_rows,
    tokenize_chars,
)

Z4 = cyclic_group(4)
BASES = {
    "z1": cyclic_group(1),
    "z2": cyclic_group(2),
    "z6": cyclic_group(6),
    "z12": cyclic_group(12),
    "s3": symmetric_group(3),
    "z2xz2": direct_product([cyclic_group(2), cyclic_group(2)]),
    "z4/<2>": quotient(Z4, cyclic(2, Z4)),
}


def outcome(parse, text):
    try:
        roster, table = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return roster, [[int(v) for v in row] for row in table]


def validate(path, parse=parse_group):
    out, err = io.StringIO(), io.StringIO()
    with (mock.patch.object(cli, "parse_group", parse),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        code = cli.main(["validate", str(path)])
    return code, out.getvalue(), err.getvalue()


def assert_same(text, path):
    assert outcome(parse_group, text) == outcome(parse_group_rows, text)
    path.write_bytes(text.encode("utf-8"))
    assert validate(path) == validate(path, parse_group_rows)


def cells(g):
    return [[str(v) for v in row] for row in g.table.tolist()]


def render(g, rows, sep=" ", lead="", trail="", eol="\n"):
    head = print_group(g).splitlines()[:2]
    return eol.join(head + [lead + sep.join(row) + trail for row in rows]) + eol


def with_cells(g, changes):
    rows = cells(g)
    for (i, j), token in changes.items():
        rows[i][j] = token
    return render(g, rows)


def hand_cases():
    z6, z12, s3 = BASES["z6"], BASES["z12"], BASES["s3"]
    big = "9" * 5000
    short, long, both, last = cells(z12), cells(z12), cells(z12), cells(z12)
    split, joined = cells(z12), cells(z12)
    del short[5][3], both[5][3]
    split[5:6] = [split[5][:4], split[5][4:]]
    joined[5:7] = [joined[5] + joined[6]]
    long[7].append("0")
    both[7].append("0")
    last[-1].append("0")
    cases = {f"print-{name}": print_group(g) for name, g in BASES.items()}
    cases.update({
        "tabs": render(z12, cells(z12), sep="\t"),
        "double-blanks": render(z12, cells(z12), sep="  "),
        "trailing-blanks": render(s3, cells(s3), trail=" \t "),
        "leading-blanks": render(s3, cells(s3), lead="  "),
        "nbsp-blanks": render(z6, cells(z6), sep="\u00a0"),
        "unit-separator-blanks": render(z6, cells(z6), sep="\x1f"),
        "crlf-and-blank-lines": render(z12, cells(z12), eol="\r\n\n"),
        "leading-zeros": with_cells(z12, {(1, 1): "002", (3, 4): "0" * 16 + "7"}),
        "leading-zeros-18-digits": with_cells(z12, {(2, 2): "0" * 17 + "4"}),
        "leading-zeros-19-digits": with_cells(z12, {(2, 2): "0" * 18 + "4"}),
        "leading-zeros-5001-digits": with_cells(z12, {(2, 2): "0" * 5000 + "4"}),
        "arabic-indic-digit-in-place": with_cells(z6, {(1, 2): "٣"}),
        "arabic-indic-digit-wrong": with_cells(z6, {(1, 1): "٣"}),
        "superscript-two": with_cells(z6, {(2, 3): "²"}),
        "minus-one": with_cells(z6, {(2, 3): "-1"}),
        "plus-one": with_cells(z6, {(2, 3): "+1"}),
        "hash": with_cells(z6, {(2, 3): "#"}),
        "exponent": with_cells(z6, {(2, 3): "1e3"}),
        "entry-equal-to-n": with_cells(s3, {(2, 4): "6"}),
        "entry-one-below-n": with_cells(s3, {(2, 4): "5"}),
        # 300 wraps to 44 in uint8, so it must be summed in int16
        "entry-300-order-256": with_cells(cyclic_group(256), {(3, 5): "300"}),
        "entry-10^30": with_cells(s3, {(2, 4): str(10 ** 30)}),
        "entry-2^64+1": with_cells(s3, {(2, 4): str(2 ** 64 + 1)}),
        "5000-digits-before-bad-row": with_cells(z6, {(2, 3): big, (4, 1): "#"}),
        "5000-digits-after-bad-row": with_cells(z6, {(2, 3): "#", (4, 1): big}),
        "short-row": render(z12, short),
        "long-row": render(z12, long),
        "short-and-long-rows": render(z12, both),
        "long-last-row": render(z12, last),
        "row-over-two-lines": render(z12, split),
        "two-rows-on-one-line": render(z12, joined),
        "order-1-damaged": with_cells(BASES["z1"], {(0, 0): "1"}),
    })
    cases.update(head_and_roster_cases())
    return cases


def with_head(g, head=None, roster=None, gap="\n", extra=(), eol="\n"):
    """g printed with its header or roster line replaced, `gap` after the
    header and `extra` rows after the table."""
    printed_head, printed_roster, *rows = print_group(g).splitlines()
    head = printed_head if head is None else head
    roster = printed_roster if roster is None else roster
    return head + gap + eol.join([roster, *rows, *extra]) + eol


def head_and_roster_cases():
    z6, z2xz2 = BASES["z6"], BASES["z2xz2"]
    return {
        "roster-leading-zeros": with_head(z6, roster="0 01 002 0003 4 05"),
        "roster-leading-zeros-duplicate": with_head(z6, roster="0 1 2 3 4 01"),
        "roster-18-digits": with_head(z6, roster="0 1 2 3 4 " + "0" * 17 + "5"),
        "roster-18-nines": with_head(z6, roster="0 1 2 3 4 " + "9" * 18),
        "roster-19-digits": with_head(z6, roster="0 1 2 3 4 " + "0" * 18 + "5"),
        "roster-19-nines": with_head(z6, roster="0 1 2 3 4 " + "9" * 19),
        "roster-5000-digits": with_head(z6, roster="0 1 2 3 4 " + "9" * 5000),
        "roster-5000-digits-leading-zeros": with_head(z6, roster="0 1 2 3 4 " + "0" * 4999 + "5"),
        "tuple-labels-plain-table": render(z2xz2, cells(z2xz2), sep="\t", eol="\r\n"),
        "symbol-labels-plain-table": with_head(z6, roster="e a b c d f"),
        "blank-lines-before-roster": with_head(z6, gap="\n\n \t\n"),
        "bare-cr-before-roster": with_head(z6, gap="\r\r"),
        "bare-cr-everywhere": with_head(z6, gap="\r", eol="\r"),
        "group-0256": with_head(cyclic_group(256), head="group 0256"),
        "group-06": with_head(z6, head="group 06"),
        "header-blanks": with_head(z6, head=" group\t 6 \t"),
        "header-form-feed": with_head(z6, head="group 6\x0c"),
        "one-line-too-many": with_head(z6, extra=["0 1 2 3 4 5"]),
        "one-blank-line-more": with_head(z6, extra=[" \t"]),
        "one-label-too-many": with_head(z6, roster="0 1 2 3 4 5 6"),
        "one-label-too-few": with_head(z6, roster="0 1 2 3 4"),
        "roster-unbalanced": with_head(z6, roster="0 1 2 3 4 (5"),
        "roster-vertical-tab": with_head(z6, roster="0 1 2\x0b3 4 5"),
        "roster-unit-separator": with_head(z6, roster="0 1 2\x1f3 4 5"),
        "roster-non-ascii": with_head(z6, roster="0 1 2 3 4 \u03b5"),
    }


HAND_CASES = hand_cases()


@pytest.mark.parametrize("text", HAND_CASES.values(), ids=HAND_CASES.keys())
def test_hand_cases_match_rows(text, tmp_path):
    assert_same(text, tmp_path / "g.grp")


PLAIN_CASES = {
    "bare-cr-before-roster", "bare-cr-everywhere", "blank-lines-before-roster",
    "crlf-and-blank-lines", "double-blanks", "entry-one-below-n", "group-0256", "group-06",
    "header-blanks", "leading-blanks", "leading-zeros", "leading-zeros-18-digits",
    "one-blank-line-more", "print-s3", "print-z1", "print-z12", "print-z2", "print-z2xz2",
    "print-z4/<2>", "print-z6", "roster-18-digits", "roster-18-nines", "roster-leading-zeros",
    "roster-leading-zeros-duplicate", "roster-unit-separator", "symbol-labels-plain-table",
    "tabs", "trailing-blanks", "tuple-labels-plain-table",
}


def test_plain_path_accepts_the_same_hand_cases():
    # the outcome tests pass whichever reader a file takes, so the set of
    # files the byte pass reads is pinned here: 29 of the hand cases
    assert {k for k, t in HAND_CASES.items() if _plain_group(t) is not None} == PLAIN_CASES


def test_order_256_four_digit_roster_is_plain():
    # the roster's numerals are wider than the table's, which has 3 digits
    rng = random.Random(1256)
    g = relabelled(direct_product([cyclic_group(4), cyclic_group(64)]), rng)
    text = with_head(g, roster=" ".join(map(str, rng.sample(range(1000, 10000), 256))))
    assert _plain_group(text) is not None
    assert outcome(_plain_group, text) == outcome(parse_group_rows, text)


def test_over_long_roster_is_tokenized_once():
    # the plain pass stops at the (n + 1)-th label and only the line reader
    # counts them all.  Headed `group 2`, a roster of 10,000 labels is past
    # the pass's length bound, so the roster is read under `group 256`
    text = with_head(cyclic_group(256), roster=" ".join(["(0 1)"] * 10_000))
    draws = []

    def counted(text, start, end):
        draws.append(0)
        for x in _top_level_elements(text, start, end):
            draws[-1] += 1
            yield x

    with mock.patch("grouptables.fileformat._top_level_elements", counted):
        assert _plain_group(text) is None
        assert draws == [257]
        with pytest.raises(DomainError, match="^expected 256 labels, got 10000$"):
            parse_group(text)
    assert draws == [257, 257, 10_000]


def test_printed_groups_match_rows(small_abelian_corpus, tmp_path):
    groups = [g for _, g in small_abelian_corpus]
    groups += [symmetric_group(k) for k in (3, 4, 5)] + [BASES["z4/<2>"]]
    for g in groups:
        assert_same(print_group(g), tmp_path / "g.grp")


BLANKS = [" ", "  ", "\t", " \t ", "\u00a0", "\u3000", "\x1f", "\x0c"]


def odd_tokens(n):
    return ["0", "00", "٣", "²", "-1", "+1", "#", "1e3", "(1)", "", "1 1",
            str(n), str(n + 1), str(10 ** 30), "0" * 18 + "1", "0" * 17 + "1",
            "9" * 5000, "0" * 5000 + "1"]


def odd_labels(n):
    return ["00", "0" * 17 + "1", "0" * 18 + "1", "9" * 18, "9" * 19, "9" * 5000,
            str(n), "(1)", "(1", "x", "-1", "٣", ""]


@st.composite
def damaged_texts(draw, heads=True):
    """A printed base group with up to three cells replaced, by other
    indices or by odd tokens, and its rows reformatted; with `heads`, its
    header, roster line and the blank lines between them varied too, and
    at times one row more."""
    g = BASES[draw(st.sampled_from(sorted(BASES)))]
    n = g.order
    rows = cells(g)
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] = draw(st.integers(0, 2 * n).map(str) | st.sampled_from(odd_tokens(n)))
    sep = draw(st.sampled_from(BLANKS))
    lines = [draw(st.sampled_from(["", " ", "\t"])) + sep.join(row)
             + draw(st.sampled_from(["", " ", "\t "])) for row in rows]
    k = draw(st.integers(0, n - 1))
    lines[k] = draw(st.sampled_from(BLANKS)).join(rows[k])
    eol = draw(st.sampled_from(["\n", "\r\n", "\n\n", "\r"]))
    head, roster = print_group(g).splitlines()[:2]
    if not heads:
        return eol.join([head, roster] + lines) + eol
    head = draw(st.sampled_from([head, f"group 0{n}", f" group\t{n} ", f"group {n + 1}"]))
    if all(map(str.isdecimal, labels := roster.split())):
        for _ in range(draw(st.integers(0, 2))):
            labels[draw(st.integers(0, n - 1))] = draw(st.sampled_from(odd_labels(n)))
        roster = draw(st.sampled_from([" ", "\t", "  "])).join(labels)
    if draw(st.booleans()):
        lines.append(sep.join(rows[0]))
    gap = draw(st.sampled_from(["", "\n", "\r", " \t\n", "\r\n\r\n"]))
    return head + eol + gap + eol.join([roster] + lines) + eol


@settings(max_examples=300, deadline=None)
@given(damaged_texts())
def test_damaged_texts_match_rows(tmp_path_factory, text):
    assert_same(text, tmp_path_factory.getbasetemp() / "damaged.grp")


@settings(max_examples=300, deadline=None)
@given(damaged_texts(heads=False))
def test_plain_tables_match_fromstring(text):
    # the byte pass against the former joined-rows parse, which np.fromstring
    # finished: the same tables, and the same files left to the line reader
    n = int(text.split()[1])
    want = fromstring_index_array([ln for ln in text.splitlines() if ln.strip()][2:], n)
    got = _plain_group(text)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[1].tolist() == want.tolist()
        assert got[0] == outcome(parse_group_rows, text)[0]


def test_order_256_parse_peak():
    # the joined-rows parse peaked at 3.0 MB; the byte pass holds the table
    # lines' bytes, their digit values and the digit-run ends, and sums the
    # values in int16
    rng = random.Random(256)
    g = relabelled(direct_product([cyclic_group(4), cyclic_group(64)]), rng)
    numeral_roster = " ".join(map(str, rng.sample(range(2560), 256)))
    texts = [print_group(g), with_head(g, roster=numeral_roster),
             print_group(direct_product([cyclic_group(2)] * 8))]
    for text in texts:
        tracemalloc.start()
        try:
            roster, table = parse_group(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(table, np.ndarray) and table.shape == (256, 256)
        assert peak < 2 * 2**20


def test_regex_blank_is_str_isspace():
    chars = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", chars) == [ch for ch in chars if ch.isspace()]


LABEL_CHARS = "() \t\n\r\x0b\x0c\x1c\x1f\x85\u00a0\u2003\u2028\u3000²-1٣x,"


@settings(max_examples=300, deadline=None)
@given(st.text(st.sampled_from(LABEL_CHARS) | st.characters()))
def test_tokenize_matches_character_loop(text):
    assert [m[0] for m in _TOKENS.finditer(text)] == tokenize_chars(text)


LABEL_TOKENS = ["(", ")", "0", "7", "-1", "-", "--1", "²", "-²", "٣", "x", "1_0",
                "9" * 5000, "-" + "9" * 5000, "0" * 5000 + "1"]


@st.composite
def label_texts(draw):
    """Label tokens, parens unbalanced at times, inside 0 or 31-34 open
    parentheses that are closed, one short or one over at times."""
    tokens = draw(st.lists(st.sampled_from(LABEL_TOKENS), max_size=12))
    seps = draw(st.lists(st.sampled_from(["", " ", "\t", "\u3000"]),
                         min_size=len(tokens), max_size=len(tokens)))
    text = "".join(sep + t for sep, t in zip(seps, tokens))
    depth = draw(st.sampled_from([0, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, MAX_DEPTH + 2]))
    closing = max(0, depth + draw(st.integers(-1, 1)))
    return "(" * depth + text + ")" * closing


def parsed(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(label_texts() | st.text(st.sampled_from(LABEL_CHARS)))
def test_label_loop_matches_recursive_descent(text):
    assert parsed(parse_elements, text) == parsed(parse_elements_recursive, text)


@pytest.mark.parametrize("depth", range(MAX_DEPTH - 1, MAX_DEPTH + 3))
def test_label_nesting_at_the_guard_matches_recursive_descent(depth):
    for text in ("(" * depth + "0" + ")" * depth, "(" * depth + "0",
                 "(" * depth + "9" * 5000 + ")" * depth, "0 ) " + "(" * depth):
        assert parsed(parse_elements, text) == parsed(parse_elements_recursive, text)


def all_labels(text, start, end, keep):
    """The first `keep` elements and the number of all, with all read."""
    elements = list(_top_level_elements(text, start, end))
    return elements[:keep], len(elements)


@settings(max_examples=200, deadline=None)
@given(st.lists(label_texts(), max_size=4), st.lists(st.integers(0, 1200), min_size=4),
       st.integers(0, 3))
def test_label_count_matches_label_loop(texts, gaps, keep):
    # runs of numerals between the label texts put them among the kept
    # labels or past them, where they are only counted, and the text lies
    # inside a longer one
    line = " ".join(t + " " + " ".join(map(str, range(gap))) for t, gap in zip(texts, gaps))
    text, start, end = f"x\n{line}\ny", 2, 2 + len(line)
    assert (parsed(lambda s: _labels(s, start, end, keep), text)
            == parsed(lambda s: all_labels(s, start, end, keep), text))


PAST_LAST_LABEL = {
    "unexpected-close": (")", DomainError, "unexpected ')' in element text"),
    "nesting-guard": ("(" * (MAX_DEPTH + 1), ResourceError,
                      f"element nesting exceeds the {MAX_DEPTH} guard"),
    "long-numeral": ("9" * 5000, ResourceError, "a numeral exceeds the integer conversion limit"),
}


@pytest.mark.parametrize("more", [0, 2000])
@pytest.mark.parametrize("roster, label", [
    ("0 1 2 3 4 5", "{0}"),
    ("e a b c d (f g)", "{0}"),
    ("(0 0) (0 1) ((0 2)) (1 0) (1 1) (1 2)", "({0} ({0} 0))"),
], ids=["numerals", "symbols", "tuples"])
@pytest.mark.parametrize("error", PAST_LAST_LABEL)
def test_roster_errors_past_the_last_label(error, roster, label, more, tmp_path):
    # the labels past the n-th are only counted, yet raise the first error
    # in token order, here behind 0 or 2,000 more labels and before the
    # others; a nested label counts once, when its outer tuple closes
    token, kind, message = PAST_LAST_LABEL[error]
    filler = " ".join(label.format(k) for k in range(6, 6 + more))
    for later in [""] + [other for key, (other, _, _) in PAST_LAST_LABEL.items() if key != error]:
        text = with_head(BASES["z6"], roster=f"{roster} {filler} {token} {later}")
        assert outcome(parse_group, text) == (kind, message)
        assert_same(text, tmp_path / "g.grp")
