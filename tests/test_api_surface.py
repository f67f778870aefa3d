"""The library ships only what its users call.

An AST pass follows names from the CLI's entry point `cli.main` (and through
its VERBS table every verb), from `selftest.run_selftest` and from the
scripts in SCRIPTS, through every module of src/grouptables/.  Every
public top-level function and class must be reached, or be kept on purpose
in KEEP with a reason; helpers that only tests use belong under tests/
(lemmas.py, oracles.py).  Every private top-level function and assignment
must be reached too, from those roots or from a KEEP name.

A reached class does not carry its members with it.  Every method and
property of a library class that is not a dunder must be read as an
attribute (`.name`) by reached code, by a KEEP name or by a member read
so, or be kept on purpose in MEMBER_KEEP with a reason; a class's dunders
count as read wherever the class is reached.  Attributes are matched by
name alone, so a member whose name any reached code reads counts as read.

The same call graph, with the scripts' own functions added, shows every
recursion among top-level functions.  The one left is the label printer
`format_element`, listed in CYCLES with its reason, so a recursion that a
loop replaced cannot come back unseen.
"""
import ast
import importlib
import inspect
from pathlib import Path

import grouptables

ROOT = Path(__file__).resolve().parent.parent

KEEP = {
    "fileformat.print_map": "the map-file writer, the inverse of parse_map",
}
MEMBER_KEEP = {
    "core.FiniteGroup.inv": "x^-1, called by tests/oracles.py's verbatim quotient_split",
}
ROOTS = ("cli.main", "selftest.run_selftest")
SCRIPTS = ("scripts/classify_2groups.py", "scripts/deck_digests.py",
           "scripts/factorization_report.py")
# the only recursion left, with its reason
CYCLES = {
    frozenset({"fileformat.format_element"}):
        "prints a nested tuple label, one call per level of nesting",
}


def _imports(tree):
    """Local name -> qualified name for every `from` import of the library,
    wherever it sits; `.x` and `grouptables.x` both resolve to `x.name`."""
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            source = node.module
        elif (node.module or "").startswith("grouptables."):
            source = node.module.removeprefix("grouptables.")
        else:
            continue
        bound.update((a.asname or a.name, f"{source}.{a.name}") for a in node.names)
    return bound


def _names(tree):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def _top_level(tree):
    """(the names bound, the node) for each top-level function, class and
    assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield [node.name], node
        elif isinstance(node, ast.Assign):
            yield sorted(set().union(*map(_names, node.targets))), node


def call_graph(root, scripts=()):
    """(edges, public, functions) for the package under root and the
    scripts given: each top-level name's qualified name -> the library
    names its node uses, the public top-level functions and classes, and
    all top-level functions.  A script's names are qualified by its stem."""
    edges, public, functions = {}, set(), set()
    library = sorted((root / "src" / "grouptables").glob("*.py"))
    for path in library + [root / script for script in scripts]:
        module = path.stem
        if module == "__init__":
            continue
        tree = ast.parse(path.read_text())
        bound = _imports(tree)
        bound.update((name, f"{module}.{name}") for names, _ in _top_level(tree) for name in names)
        for names, node in _top_level(tree):
            refs = {bound[n] for n in _names(node) if n in bound}
            for name in names:
                edges[f"{module}.{name}"] = refs
                if isinstance(node, ast.FunctionDef):
                    functions.add(f"{module}.{name}")
                if not name.startswith("_") and not isinstance(node, ast.Assign):
                    public.add(f"{module}.{name}")
    return edges, public, functions


def _reached(edges, todo, cut=frozenset()):
    seen, todo = set(), list(todo)
    while todo:
        name = todo.pop()
        if name not in seen and name not in cut:
            seen.add(name)
            todo += edges.get(name, ())
    return seen


def reachability(root, cut=frozenset()):
    """(the public top-level functions and classes of the package under
    root, the qualified names reached from ROOTS and SCRIPTS without
    entering a name in cut)."""
    edges, public, _ = call_graph(root)
    # each script counts as one caller of every library name it uses
    todo = list(ROOTS)
    for script in SCRIPTS:
        tree = ast.parse((root / script).read_text())
        bound = _imports(tree)
        todo += [bound[n] for n in _names(tree) if n in bound]
    return public, _reached(edges, todo, cut)


def _attributes(nodes):
    return {n.attr for node in nodes for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def member_reachability(root, keep=()):
    """(each non-dunder method and property of a library class by its
    qualified name module.Class.name, those read from ROOTS, SCRIPTS, KEEP
    and the members in keep).

    The code read is every reached or KEEP top-level name, with a class's
    members left out but its dunders kept, and every script; a member is
    read once its name is read as an attribute there or in a member read
    before it.
    """
    edges, _, _ = call_graph(root)
    _, reached = reachability(root)
    reached |= _reached(edges, KEEP)
    members, code = {}, [ast.parse((root / script).read_text()) for script in SCRIPTS]
    for path in sorted((root / "src" / "grouptables").glob("*.py")):
        for names, node in _top_level(ast.parse(path.read_text())):
            live = any(f"{path.stem}.{name}" in reached for name in names)
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    name = getattr(stmt, "name", "")
                    dunder = name.startswith("__") and name.endswith("__")
                    if isinstance(stmt, ast.FunctionDef) and not dunder:
                        members[f"{path.stem}.{node.name}.{name}"] = stmt
                    elif live:
                        code.append(stmt)
                if live:
                    code += node.decorator_list + node.bases
            elif live:
                code.append(node)
    read, found = _attributes(code), set()
    while new := {q for q in members.keys() - found
                  if q.rsplit(".", 1)[1] in read or q in keep}:
        found |= new
        read |= _attributes(members[q] for q in new)
    return set(members), found


def cycles(root):
    """Each set of names that reach one another through the call graph of
    the library and SCRIPTS (a self-call is a set of one), for the sets
    holding a function."""
    edges, _, functions = call_graph(root, SCRIPTS)
    after = {name: _reached(edges, refs) for name, refs in edges.items()}
    return {frozenset(m for m in after[name] if name in after.get(m, ()))
            for name in functions if name in after[name]}


def test_every_public_function_and_class_is_reached_or_kept():
    public, reached = reachability(ROOT)
    assert sorted(public - reached - set(KEEP)) == []


def test_every_private_function_is_reached():
    # a private helper or constant left behind when its reader moved or
    # merged is dead code that no public name shows; KEEP names keep their
    # helpers.  A constant is reached through the names its readers use
    edges, _, _ = call_graph(ROOT)
    _, reached = reachability(ROOT)
    private = {name for name in edges if name.rsplit(".", 1)[1].startswith("_")}
    assert sorted(private - reached - _reached(edges, KEEP)) == []


def test_selftest_is_never_the_only_caller():
    # selftest checks what the verbs and scripts run, so every name it
    # reaches is reached without it
    public, reached = reachability(ROOT, cut={"selftest.run_selftest"})
    assert sorted(public - reached - set(KEEP) - {"selftest.run_selftest"}) == []


def test_every_class_member_is_read_or_kept():
    members, read = member_reachability(ROOT, MEMBER_KEEP)
    assert sorted(members - read) == []


def test_member_keep_lists_only_unread_members():
    members, read = member_reachability(ROOT)
    assert set(MEMBER_KEEP) <= members
    assert set(MEMBER_KEEP) & read == set()


def test_keep_lists_only_unreached_names():
    public, reached = reachability(ROOT)
    assert set(KEEP) <= public
    assert set(KEEP) & reached == set()


def test_only_the_listed_recursions_remain():
    assert cycles(ROOT) == set(CYCLES)


def test_the_benchmark_tracer_finds_what_it_patches():
    # perfbench/tracer.py's Tracer.install looks each module of its MODULES
    # up in sys.modules and patches core.FiniteGroup.op, so a library change
    # that removes one breaks every traced benchmark run; the file is read,
    # not imported
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    [modules] = [ast.literal_eval(node.value) for names, node in _top_level(tree)
                 if names == ["MODULES"]]
    assert modules
    for name in modules:
        importlib.import_module(f"grouptables.{name}")
    assert inspect.isfunction(importlib.import_module("grouptables.core").FiniteGroup.op)


def test_products_is_a_module():
    import grouptables.products as products

    assert inspect.ismodule(products)
    assert inspect.isfunction(products.direct_product)


def test_all_exports_no_modules():
    exported = [getattr(grouptables, name) for name in grouptables.__all__]
    assert exported and not any(map(inspect.ismodule, exported))
