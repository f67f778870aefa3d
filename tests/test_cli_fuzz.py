"""cli.main's contract on arbitrary file content and arguments: for group
and map files mutated at random, byte by byte, `validate`, `info`,
`factor`, `iso` and `unique ... FILE` exit with 0, 1 or 2, raise nothing,
and write to stderr nothing, one `error:` line or the usage text; for
argument lists mutated token by token, every verb but a bare `selftest`
does the same, with the usage text allowed after the `error:` line."""
import contextlib
import io

from hypothesis import given, settings, strategies as st

from grouptables import cli
from grouptables.cli import USAGE, VERBS
from grouptables.core import cyclic_group, symmetric_group
from grouptables.fileformat import print_group, print_map
from grouptables.gmaps import identity_map, map_from_function
from grouptables.products import direct_product

Z4 = cyclic_group(4)
Z2XZ2 = direct_product([cyclic_group(2), cyclic_group(2)])
S3 = symmetric_group(3)
# (group file, map file on it): numeral, tuple and permutation labels
BASES = [
    (print_group(Z4), "".join(f"({x}) -> ({3 * x % 4})\n" for x in range(4))),
    (print_group(Z2XZ2), print_map(map_from_function(Z2XZ2.roster, lambda x: x[::-1]))),
    (print_group(S3), print_map(identity_map(S3.roster))),
]
PIECES = [b"0", b"1", b"3", b"9" * 30, b" ", b"\t", b"\n", b"\r", b"(", b")", b"->", b"-",
          b"group ", b"group 300", b"x", b"\x00", b"\xff", "\u2028".encode(), "\u00e9".encode()]


@st.composite
def mutated(draw, text):
    data = bytearray(text.encode())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        size = draw(st.integers(0, 8))
        how = draw(st.sampled_from(["delete", "replace", "repeat"]))
        if how == "delete":
            del data[at:at + size]
        elif how == "replace":  # an insertion when size is 0
            data[at:at + size] = draw(st.sampled_from(PIECES))
        else:
            data[at:at] = data[at:at + size] * draw(st.integers(1, 3))
    return bytes(data)


@st.composite
def mutated_files(draw):
    group, mapping = draw(st.sampled_from(BASES))
    return group, draw(mutated(group)), draw(mutated(mapping))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    return status, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(mutated_files())
def test_verbs_keep_the_contract_on_mutated_files(tmp_path_factory, files):
    group, mutated_group, mutated_map = files
    folder = tmp_path_factory.mktemp("fuzz")
    g, h, m = folder / "g.grp", folder / "h.grp", folder / "m.map"
    g.write_bytes(mutated_group)
    h.write_text(group)
    m.write_bytes(mutated_map)
    for argv in (["validate", g], ["info", g], ["factor", g], ["iso", g, h, m], ["iso", h, h, m],
                 ["unique", "zn", "4", "--", "zn", "4", m]):
        status, err = run([str(a) for a in argv])
        assert status in (0, 1, 2)
        assert err in ("", USAGE) or (err.startswith("error: ") and err.count("\n") == 1
                                      and err.endswith("\n")), (argv, err)


# well-formed builder expressions of small groups, and odd argument tokens
BUILDERS = [["zn", "1"], ["zn", "4"], ["zn", "6"], ["s", "3"], ["dp", "zn", "2", "zn", "4"],
            ["dp", "zn", "3", "dp", "zn", "2", "zn", "2"]]
ODD = ["x", "٣", "-1", "257", "1" * 5000, "--", "dp"]


# each verb's argument shapes: (builder expressions joined by --, paths)
SHAPES = {"validate": [(0, 1)], "info": [(0, 1), (1, 0)], "cayley": [(1, 0)],
          "factor": [(0, 1), (1, 0)], "iso": [(0, 3)], "unique": [(2, 0), (2, 1)],
          "selftest": [(0, 0)]}


@st.composite
def mutated_argv(draw, paths):
    verb = draw(st.sampled_from(sorted(VERBS)))
    builders, files = draw(st.sampled_from(SHAPES[verb]))
    argv = [verb]
    for k in range(builders):
        argv += ["--"] * (k > 0) + draw(st.sampled_from(BUILDERS))
    argv += [draw(st.sampled_from(paths)) for _ in range(files)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        how = draw(st.sampled_from(["delete", "insert", "replace"]))
        if how == "insert":
            argv.insert(at, draw(st.sampled_from(ODD)))
        elif at < len(argv):
            argv[at:at + 1] = [draw(st.sampled_from(ODD))] * (how == "replace")
    return argv


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_verbs_keep_the_contract_on_mutated_arguments(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("args")
    group, mapping = BASES[0]
    (folder / "g.grp").write_text(group)
    (folder / "m.map").write_text(mapping)
    paths = [str(folder / name) for name in ("g.grp", "m.map", "missing.grp")] + [str(folder)]
    argv = data.draw(mutated_argv(paths))
    if argv == ["selftest"]:
        return  # checks every verb on 54 groups; test_cli runs it
    status, err = run(argv)
    assert status in (0, 1, 2)
    head = err.partition("\n")[0]
    assert err in ("", USAGE) or (head.startswith("error: ")
                                  and err in (f"{head}\n", f"{head}\n{USAGE}")), (argv, err)
