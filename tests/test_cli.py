import dataclasses
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from grouptables import cli
from grouptables.cli import NUMERAL_BUILDERS, USAGE, main
from grouptables.core import MAX_DEPTH, MAX_FILE_CHARS
from grouptables.errors import ResourceError, UsageError
from grouptables.fileformat import parse_numerals
from grouptables.products import direct_product


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "grouptables.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_no_args_usage():
    code, _, err = run_cli()
    assert code == 2 and "usage" in err


def test_unknown_verb():
    code, _, _ = run_cli("frobnicate")
    assert code == 2


@pytest.mark.parametrize("args", [
    ["iso", "g.grp", "g.grp"],
    ["validate"],
    ["validate", "g.grp", "g.grp"],
    ["factor"],
    ["info"],
    ["cayley"],
    ["selftest", "x"],
    ["unique", "zn", "2", "zn", "2"],
    ["unique", "--", "zn", "2"],
    ["unique", "zn", "2", "--"],
], ids=["iso-two-files", "validate-none", "validate-two", "factor-none", "info-none",
        "cayley-none", "selftest-argument", "unique-no-separator", "unique-empty-left",
        "unique-empty-right"])
def test_wrong_argument_count_is_usage_error(args, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.grp").write_text("group 2\n0 1\n0 1\n1 0\n")
    assert main(args) == 2
    assert capsys.readouterr() == ("", USAGE)


def test_cayley_then_validate(tmp_path):
    for builder in (["zn", "1"], ["zn", "6"], ["s", "3"], ["dp", "zn", "2", "zn", "4"]):
        code, out, _ = run_cli("cayley", *builder)
        assert code == 0
        f = tmp_path / "g.grp"
        f.write_text(out)
        code, out, _ = run_cli("validate", str(f))
        assert code == 0 and out.startswith("valid group")


def test_validate_bad_table(tmp_path):
    f = tmp_path / "bad.grp"
    f.write_text("group 2\n0 1\n0 1\n1 1\n")
    code, out, _ = run_cli("validate", str(f))
    assert code == 1 and "axiom failure" in out


def test_info_builder():
    code, out, _ = run_cli("info", "zn", "6")
    assert code == 0
    assert "order: 6" in out
    assert "abelian: true" in out
    assert "max-ord: 6" in out


def test_factor_z12():
    code, out, _ = run_cli("factor", "zn", "12")
    assert code == 0
    assert "order=4 p=2" in out
    assert "order=3 p=3" in out
    assert "iso verified: true" in out


def test_factor_non_abelian():
    code, out, _ = run_cli("factor", "s", "3")
    assert code == 1


def test_factor_file(tmp_path):
    code, out, _ = run_cli("cayley", "zn", "8")
    f = tmp_path / "z8.grp"
    f.write_text(out)
    code, out, _ = run_cli("factor", str(f))
    assert code == 0 and "order=8 p=2" in out


def test_iso_verdicts(tmp_path):
    _, out, _ = run_cli("cayley", "zn", "4")
    g = tmp_path / "g.grp"
    g.write_text(out)
    m = tmp_path / "m.map"
    m.write_text("".join(f"{x} -> {(3 * x) % 4}\n" for x in range(4)))
    code, out, _ = run_cli("iso", str(g), str(g), str(m))
    assert code == 0
    assert "homomorphism: true" in out
    assert "isomorphism: true" in out


def test_iso_not_hom(tmp_path):
    _, out, _ = run_cli("cayley", "zn", "4")
    g = tmp_path / "g.grp"
    g.write_text(out)
    m = tmp_path / "m.map"
    m.write_text("".join(f"{x} -> {(x + 1) % 4}\n" for x in range(4)))
    code, out, _ = run_cli("iso", str(g), str(g), str(m))
    assert code == 1 and "homomorphism: false" in out


def test_unique_identical_lists():
    code, out, _ = run_cli("unique", "dp", "zn", "4", "zn", "3", "--", "dp", "zn", "4", "zn", "3")
    assert code == 0 and "permutation: true" in out


def test_unique_swap_with_mapfile(tmp_path):
    from grouptables.core import cyclic_group
    from grouptables.fileformat import print_map
    from grouptables.gmaps import map_from_function
    from grouptables.products import group_tuples

    l = [cyclic_group(2), cyclic_group(4)]
    swap = map_from_function(group_tuples(l), lambda x: (x[1], x[0]))
    f = tmp_path / "swap.map"
    f.write_text(print_map(swap))
    code, out, _ = run_cli(
        "unique", "dp", "zn", "2", "zn", "4", "--", "dp", "zn", "4", "zn", "2", str(f)
    )
    assert code == 0
    assert "orders L: [2, 4]" in out
    assert "orders M: [4, 2]" in out
    assert "permutation: true" in out


def test_unique_rejects_a_pair_outside_the_domain(tmp_path):
    f = tmp_path / "swap.map"
    f.write_text("".join(f"({a} {b}) -> ({b} {a})\n" for a in range(2) for b in range(4))
                 + "(2 4) -> (0 0)\n")
    code, _, err = run_cli(
        "unique", "dp", "zn", "2", "zn", "4", "--", "dp", "zn", "4", "zn", "2", str(f)
    )
    assert code == 1
    assert err == "error: map is not a homomorphism: domain failure at ((2, 4),)\n"


def test_unique_false_verdict_prints_its_witness(capsys, tmp_path, monkeypatch):
    # no isomorphism of cyclic p-group products gives a false verdict, so
    # the check is stubbed to reach the branch that prints the witness
    monkeypatch.setattr(cli, "verify_unique_factorization", lambda l, m, iso: False)
    f = tmp_path / "m.map"
    f.write_text("".join(f"({a} {b} {c}) -> ({a + 2 * b} {c})\n"
                         for a in range(2) for b in range(2) for c in range(2)))
    argv = ["unique", "dp", "zn", "2", "zn", "2", "zn", "2", "--", "dp", "zn", "4", "zn", "2"]
    assert main([*argv, str(f)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "orders L: [2, 2, 2]", "orders M: [4, 2]", "permutation: false", "witness: 2"]


def test_unique_missing_map_is_usage_error():
    code, _, _ = run_cli("unique", "zn", "4", "--", "dp", "zn", "2", "zn", "2")
    assert code == 2


NOT_ABELIAN = "error: abelian-factorization needs an abelian group\n"


@pytest.mark.parametrize("args, code, err", [
    (["factor", "s", "3"], 1, NOT_ABELIAN),
    (["factor", "s3.grp"], 1, NOT_ABELIAN),
    (["unique", "dp", "zn", "2", "zn", "4", "--", "dp", "zn", "4", "zn", "2"], 2,
     "error: a map file is required when the lists differ\n" + USAGE),
], ids=["factor-builder", "factor-file", "unique-no-map"])
def test_errors_go_to_stderr_only(args, code, err, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["cayley", "s", "3"]) == 0
    (tmp_path / "s3.grp").write_text(capsys.readouterr().out)
    assert main(args) == code
    assert capsys.readouterr() == ("", err)


def test_selftest():
    code, out, _ = run_cli("selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("ok ") >= 5


def test_selftest_fails_on_a_dropped_factor(monkeypatch, capsys):
    from grouptables import selftest

    factor = selftest.abelian_factorization

    def dropped(g):
        fact = factor(g)
        return dataclasses.replace(fact, factors=fact.factors[1:])

    monkeypatch.setattr(selftest, "abelian_factorization", dropped)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "FAIL abelian factorization" in out


@pytest.mark.parametrize(
    "args",
    [
        ["factor", "zn", "x"],
        ["factor", "s"],
        ["factor", "frob", "3"],
        ["info", "dp"],
        ["cayley", "zn", "2", "3"],
        ["unique", "zn", "2", "--", "zn"],
    ],
    ids=["non-numeric", "missing-degree", "unknown-builder", "empty-dp", "trailing", "short-list"],
)
def test_builder_syntax_is_usage_error(args, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "usage" in err


@pytest.mark.parametrize("args", [["factor", "zn", "0"], ["factor", "zn", "257"], ["info", "s", "6"]])
def test_builder_domain_is_checked_failure(args, capsys):
    assert main(args) == 1
    assert "usage" not in capsys.readouterr().err


def test_unique_ignores_same_named_file(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "2").write_text("0 -> 0\n")
    assert main(["unique", "zn", "2", "--", "zn", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "permutation: true"


def test_unique_numeric_map_file_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # unique maps act on the product's 1-tuples
    (tmp_path / "4").write_text("".join(f"({x}) -> ({(3 * x) % 4})\n" for x in range(4)))
    assert main(["unique", "zn", "4", "--", "zn", "4", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "permutation: true"


def test_lone_argument_is_a_file_unless_a_builder_name(capsys, tmp_path, monkeypatch):
    # files named like builders change nothing: a lone builder name stays an
    # incomplete builder, and any other lone argument is read as a file
    monkeypatch.chdir(tmp_path)
    assert main(["cayley", "zn", "4"]) == 0
    text = capsys.readouterr().out
    for name in ("zn", "s", "dp"):
        (tmp_path / name).write_text(text)
    for args in (["info", "zn"], ["factor", "s"], ["info", "dp"]):
        assert main(args) == 2, args
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.endswith(USAGE), args
    assert main(["info", "./zn"]) == 0
    assert capsys.readouterr().out.startswith("order: 4\n")
    assert main(["factor", "missing.grp"]) == 2
    assert capsys.readouterr() == (
        "", "error: [Errno 2] No such file or directory: 'missing.grp'\n")


def test_oversized_group_file(capsys, tmp_path):
    f = tmp_path / "big.grp"
    f.write_text("group 257\n")
    assert main(["validate", str(f)]) == 1
    assert capsys.readouterr().err == "error: group file order 257 exceeds the 256 guard\n"


@pytest.mark.parametrize("verb", ["validate", "factor", "iso"])
def test_file_size_guard(verb, capsys, tmp_path, monkeypatch):
    g, m = tmp_path / "g.grp", tmp_path / "m.map"
    g.write_text("group 2\n0 1\n0 1\n1 0\n")
    m.write_text("0 -> 0\n1 -> 1\n" + "\n" * 8)  # longer than the group file
    args, big = ([verb, str(g), str(g), str(m)], m) if verb == "iso" else ([verb, str(g)], g)
    size = len(big.read_text())
    monkeypatch.setattr(cli, "MAX_FILE_CHARS", size)
    assert main(args) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "MAX_FILE_CHARS", size - 1)
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: {big} exceeds the {size - 1}-character file guard\n"


def test_small_file_read_in_small_memory(tmp_path):
    # one read of the whole guard reserved 16 MiB for this 1.5 KB map
    f = tmp_path / "m.map"
    f.write_text("".join(f"{i} -> {i}\n" for i in range(160)))
    tracemalloc.start()
    try:
        assert cli._read(f) == f.read_text()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_file_size_guard_far_above_cayley_files(capsys):
    assert main(["cayley", "dp"] + ["zn", "2"] * 8) == 0
    assert 50 * len(capsys.readouterr().out) < MAX_FILE_CHARS


@pytest.mark.parametrize("verb, nargs", [("validate", 1), ("factor", 1), ("iso", 3)])
def test_directory_argument_is_error_line(verb, nargs, capsys, tmp_path):
    assert main([verb] + [str(tmp_path)] * nargs) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("verb", ["validate", "factor"])
def test_undecodable_group_file(verb, capsys, tmp_path):
    f = tmp_path / "g.grp"
    f.write_bytes(b"group 1\n\xff\n0\n")
    assert main([verb, str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "usage" not in err


@pytest.mark.parametrize(
    "args", [["factor", "zn", "²"], ["info", "s", "²"], ["cayley", "dp", "zn", "2", "zn", "-2"]]
)
def test_non_decimal_numeral_is_usage_error(args, capsys):
    # str.isdigit accepts '²', which int() rejects
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "usage" in err


@pytest.mark.parametrize(
    "text",
    ["group ²\n0\n0\n", "group 2\n0 1\n0 1\n1 ²\n"],
    ids=["header", "row"],
)
def test_non_decimal_numeral_in_group_file(text, capsys, tmp_path):
    f = tmp_path / "g.grp"
    f.write_text(text)
    assert main(["validate", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "usage" not in err


def test_numeral_beyond_int_conversion_is_checked_failure(capsys, tmp_path):
    huge = "1" * 5000
    f = tmp_path / "g.grp"
    for args, text in ((["factor", "zn", huge], None), (["validate", str(f)], f"group {huge}\n"),
                       (["validate", str(f)], f"group 1\n0\n{huge}\n"),
                       (["validate", str(f)], f"group 1\n{huge}\n0\n")):
        if text is not None:
            f.write_text(text)
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_symbol_labels_that_look_numeric(capsys, tmp_path):
    g = tmp_path / "g.grp"
    g.write_text("group 2\n0 ²\n0 1\n1 0\n")
    m = tmp_path / "m.map"
    m.write_text("0 -> 0\n² -> ²\n")
    assert main(["iso", str(g), str(g), str(m)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "isomorphism: true"


@pytest.mark.parametrize("depth, code", [(32, 0), (33, 1), (600, 1)])
def test_builder_nesting_guard(depth, code, capsys):
    assert main(["cayley"] + ["dp"] * depth + ["zn", "2"]) == code
    if code:
        assert capsys.readouterr().err == "error: dp nesting exceeds the 32 guard\n"


def test_map_label_nesting_guard(capsys, tmp_path):
    g = tmp_path / "g.grp"
    g.write_text("group 1\n0\n0\n")
    m = tmp_path / "m.map"
    m.write_text("(" * 3000 + "0" + ")" * 3000 + " -> 0\n")
    assert main(["iso", str(g), str(g), str(m)]) == 1
    assert capsys.readouterr().err == "error: element nesting exceeds the 32 guard\n"


@pytest.mark.parametrize("extra, guard", [(255, 0), (256, 1)])
def test_map_line_guard(extra, guard, capsys, tmp_path):
    # pairs outside the domain count too: a map file holds at most 256 pairs;
    # under the guard they are read, and the check rejects the first of them
    g = tmp_path / "g.grp"
    g.write_text("group 1\n0\n0\n")
    m = tmp_path / "m.map"
    m.write_text("".join(f"{k} -> 0\n" for k in range(extra + 1)))
    assert main(["iso", str(g), str(g), str(m)]) == 1
    out, err = capsys.readouterr()
    if guard:
        assert (out, err) == ("", "error: map file has 257 non-blank lines, "
                                  "more than the 256 guard\n")
    else:
        assert (out, err) == ("homomorphism: false (domain failure at (1,))\n", "")


def _is_builder_list(tokens):
    try:
        cli.build_factor_list(tokens)
    except UsageError:
        return False
    return True


@given(
    st.lists(st.sampled_from(["zn", "s", "dp", "1", "2"]), max_size=8),
    st.sampled_from(["zn", "s", "dp", "1", "2", "m.map"]),
)
def test_complete_builder_list_takes_no_extra_token(tokens, extra):
    # unique relies on this to tell a trailing map file from a builder token
    assert not (_is_builder_list(tokens) and _is_builder_list(tokens + [extra]))


# The builder parser's former recursive descent, kept verbatim as the
# reference for the one loop in cli.build_factor_list.

def _parse_one_builder(tokens, k, depth):
    """The group built by tokens[k:], inside depth enclosing dp builders."""
    if k >= len(tokens):
        raise UsageError("missing builder")
    t = tokens[k]
    if t in NUMERAL_BUILDERS:
        build, what = NUMERAL_BUILDERS[t]
        if k + 1 >= len(tokens) or not tokens[k + 1].isdecimal():
            raise UsageError(f"{t} needs a numeric {what}")
        return build(parse_numerals([tokens[k + 1]])[0]), k + 2
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


BUILDER_TOKENS = ["zn", "s", "dp", "0", "1", "2", "3", "4", "6", "257", "1" * 5000,
                  "٣", "-1", "x"]


def _outcome(build, tokens):
    """The groups built, as (roster, table bytes), or the exception raised."""
    try:
        built = build(tokens)
    except Exception as exc:
        return type(exc), str(exc)
    return [(g.roster, g.table.tobytes()) for g in (built if isinstance(built, list) else [built])]


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    # single tokens and builder names with a token after them, so that
    # most lists hold builders: at most 12 tokens
    st.lists(st.one_of(st.sampled_from(BUILDER_TOKENS).map(lambda t: [t]),
                       st.tuples(st.sampled_from(["zn", "s"]),
                                 st.sampled_from(BUILDER_TOKENS)).map(list)),
             max_size=6).map(lambda parts: sum(parts, [])),
    # chains around the depth guard
    st.builds(lambda depth, rest: ["dp"] * depth + ["zn", "2"] + rest,
              st.integers(28, 40), st.lists(st.sampled_from(BUILDER_TOKENS), max_size=2)),
))
@example(["dp"] * MAX_DEPTH + ["zn", "2"])
@example(["dp"] * (MAX_DEPTH + 1) + ["zn", "0"])
@example(["zn", "2", "dp", "zn", "3"])
def test_builder_loop_matches_the_recursive_parser(tokens):
    assert _outcome(cli.build_factor_list, tokens) == _outcome(build_factor_list, tokens)
    assert _outcome(cli.build_group, tokens) == _outcome(build_group, tokens)
