import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from grouptables import cli
from grouptables.cli import USAGE, build_factor_list, main
from grouptables.core import MAX_FILE_CHARS
from grouptables.errors import UsageError


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


def _is_builder_list(tokens):
    try:
        build_factor_list(tokens)
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
