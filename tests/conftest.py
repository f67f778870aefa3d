import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from grouptables.core import FiniteGroup, cyclic_group, symmetric_group
from grouptables.products import direct_product

from oracles import all_subgroups, factor_multisets


@pytest.fixture(scope="session")
def z4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def z6():
    return cyclic_group(6)


@pytest.fixture(scope="session")
def z12():
    return cyclic_group(12)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def z2xz4():
    return direct_product([cyclic_group(2), cyclic_group(4)])


def dp_cyclic_corpus(max_order, min_order=2):
    """(multiset, group) for every direct product of cyclic groups (single
    factors included) with order in range."""
    out = []
    for n in range(min_order, max_order + 1):
        for ms in factor_multisets(n):
            out.append((ms, direct_product([cyclic_group(k) for k in ms])))
    return out


def relabelled(g, rng):
    """g on a shuffled roster, identity kept first, with the table carried
    along: the same group presented in another order."""
    perm = [0] + rng.sample(range(1, g.order), g.order - 1)  # new index -> old index
    old_to_new = np.argsort(perm)
    table = old_to_new[g.table[np.ix_(perm, perm)]]
    return FiniteGroup(tuple(g.roster[i] for i in perm), table)


@pytest.fixture(scope="session")
def small_abelian_corpus():
    """All products of cyclic groups with order <= 16, plus Z_n up to 16."""
    return dp_cyclic_corpus(16)


@pytest.fixture(scope="session")
def corpus_with_subgroups(small_abelian_corpus):
    """(group, every subgroup of it) for small_abelian_corpus, S3 and S4."""
    groups = [g for _, g in small_abelian_corpus] + [symmetric_group(3), symmetric_group(4)]
    return [(g, all_subgroups(g)) for g in groups]


@pytest.fixture
def hom_check_calls(monkeypatch):
    """A list that grows by one entry per homomorphism_check call, counted
    under every name the library binds the function to."""
    gmaps = importlib.import_module("grouptables.gmaps")
    check = gmaps.homomorphism_check
    calls = []

    def counted(m, g, h):
        calls.append((g.order, h.order))
        return check(m, g, h)

    for name in ("gmaps", "abelian", "uniqueness"):
        module = importlib.import_module("grouptables." + name)
        monkeypatch.setattr(module, "homomorphism_check", counted)
    return calls


def count_calls(monkeypatch, targets):
    """A Counter of calls to each (module, name) function in targets, with
    module a grouptables submodule or lemmas, counted under every name a
    grouptables module or lemmas binds the function to."""
    counts = Counter()
    targets = [(name, getattr(importlib.import_module(
                    module if module == "lemmas" else "grouptables." + module), name))
               for module, name in targets]
    modules = [m for n, m in list(sys.modules.items())
               if n.startswith("grouptables.") or n == "lemmas"]
    for name, fn in targets:

        def counted(*args, fn=fn, name=name):
            counts[name] += 1
            return fn(*args)

        for other in modules:
            for attr, value in list(vars(other).items()):
                if value is fn:
                    monkeypatch.setattr(other, attr, counted)
    return counts


@pytest.fixture
def factorization_calls(monkeypatch):
    """A Counter of calls to _cyclic_subgroup_list, the factorization loop,
    and to internal_direct_product_p, which lemmas holds."""
    return count_calls(monkeypatch, [("abelian", "_cyclic_subgroup_list"),
                                     ("lemmas", "internal_direct_product_p")])


@pytest.fixture
def list_check_calls(monkeypatch):
    """A Counter of calls to cyclic_p_group_list_p."""
    return count_calls(monkeypatch, [("pgroup", "cyclic_p_group_list_p")])


@pytest.fixture
def split_calls(monkeypatch):
    """A Counter of calls to abelianp, the costliest of the split's
    preconditions, and to subgroup, which builds every subgroup."""
    return count_calls(monkeypatch, [("core", "abelianp"), ("core", "subgroup")])


@pytest.fixture
def power_calls(monkeypatch):
    """A Counter of calls to subgroup, which builds every power subgroup."""
    return count_calls(monkeypatch, [("core", "subgroup")])
