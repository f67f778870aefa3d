"""Relabelling a group file leaves what `factor` and `info` say unchanged.

A metamorphic check: the file of `dp zn q1 zn q2 ...` and a `relabelled`
copy of it (roster shuffled, identity kept first, table carried along)
present the same group.  For every abelian type of order <= 64 and a seeded
sample of 12 types of order 65 to 256, `factor` of the relabelled file
prints the type's orders, and `info` prints the same lines for both files.
"""
import contextlib
import io
import math
import random

from grouptables.cli import main
from grouptables.core import cyclic_group
from grouptables.fileformat import print_group
from grouptables.products import direct_product

from conftest import relabelled
from oracles import abelian_types

TYPES = abelian_types(64) + random.Random(22).sample(
    [t for t in abelian_types(256) if math.prod(t) > 64], 12)


def run(*argv):
    """(exit code, stdout, stderr) of one in-process CLI request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main([str(a) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def test_relabelled_files_factor_and_report_alike(tmp_path):
    original, copy = tmp_path / "g.grp", tmp_path / "relabelled.grp"
    for t in TYPES:
        g = direct_product([cyclic_group(q) for q in t])
        original.write_text(print_group(g))
        copy.write_text(print_group(relabelled(g, random.Random(repr(t)))))
        rc, out, err = run("factor", copy)
        *lines, last = out.splitlines()
        assert (rc, last, err) == (0, "iso verified: true", ""), t
        assert sorted(int(ln.split()[0].removeprefix("order=")) for ln in lines) == list(t), t
        assert run("info", original) == run("info", copy), t
