"""Finite maps between groups and the homomorphism taxonomy.

A map is a finite sequence of (key, value) pairs with pairwise-distinct
keys.  Application is strict: looking up a key outside the domain is a
DomainError, which surfaces construction bugs that a silent total lookup
would hide.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import subgroup
from .errors import DomainError


@dataclass(frozen=True, eq=False)
class GroupMap:
    pairs: tuple

    def __post_init__(self):
        table = dict(self.pairs)
        if len(table) != len(self.pairs):
            raise DomainError("map keys must be pairwise distinct")
        object.__setattr__(self, "_table", table)

    @property
    def domain(self):
        return tuple(k for k, _ in self.pairs)

    def apply(self, x):
        try:
            return self._table[x]
        except (KeyError, TypeError):
            raise DomainError(f"{x!r} is outside the map's domain") from None

    def __eq__(self, other):
        # pointwise over the domain; compositions reorder pairs
        if not isinstance(other, GroupMap):
            return NotImplemented
        return self._table == other._table

    def __hash__(self):
        return hash(frozenset(self._table.items()))

    def __repr__(self):
        return f"GroupMap(domain size {len(self.pairs)})"


def map_from_function(domain, f):
    """The map with the given domain sending each x to f(x); a domain with
    duplicates fails GroupMap's distinct-key check."""
    return GroupMap(tuple((x, f(x)) for x in domain))


def identity_map(domain):
    return map_from_function(domain, lambda x: x)


@dataclass(frozen=True)
class HomWitness:
    """The first counterexample found when a map fails to be a homomorphism."""

    kind: str  # domain-coverage | domain | identity | codomain | operation
    witness: tuple

    def __str__(self):
        return f"{self.kind} failure at {self.witness!r}"


def homomorphism_check(m, g, h):
    """None if m is a homomorphism g -> h, else the first HomWitness.

    m's keys must be exactly g's elements.  Scans in g-roster order, so
    the reported counterexample is deterministic.
    """
    for x in g.roster:
        if x not in m._table:
            return HomWitness("domain-coverage", (x,))
    if len(m._table) != g.order:
        return HomWitness("domain", (next(x for x in m._table if x not in g),))
    if m.apply(g.identity) != h.identity:
        return HomWitness("identity", (g.identity,))
    for x in g.roster:
        if m.apply(x) not in h:
            return HomWitness("codomain", (x,))
    for x in g.roster:
        for y in g.roster:
            if m.apply(g.op(x, y)) != h.op(m.apply(x), m.apply(y)):
                return HomWitness("operation", (x, y))
    return None


def _require_hom(m, g, h):
    w = homomorphism_check(m, g, h)
    if w is not None:
        raise DomainError(f"not a homomorphism: {w}")


def image(m, g, h):
    """The image subgroup of h, with its roster ordered with respect to h."""
    _require_hom(m, g, h)
    return subgroup(h, sorted({m.apply(x) for x in g.roster}, key=h.index))


def kernel(m, g, h):
    """The kernel subgroup of g: elements sent to h's identity, in g order."""
    _require_hom(m, g, h)
    e = h.identity
    roster = tuple(x for x in g.roster if m.apply(x) == e)
    return subgroup(g, roster)


@dataclass(frozen=True)
class HomClass:
    epimorphism: bool
    monomorphism: bool

    @property
    def isomorphism(self):
        return self.epimorphism and self.monomorphism


def classify(m, g, h):
    """Epi/mono/iso verdicts for a verified homomorphism.

    Precondition: homomorphism_check(m, g, h) is None.  classify does not
    check it again; it reads the verdicts off the images alone.
    Surjectivity is every element of h being an image; injectivity is
    h's identity having exactly one preimage (a trivial kernel).
    """
    images = [m.apply(x) for x in g.roster]
    epi = set(images) == set(h.roster)
    mono = images.count(h.identity) == 1
    return HomClass(epimorphism=epi, monomorphism=mono)


def inv_isomorphism(m, g, h):
    """The inverse map of an isomorphism, on h's roster."""
    _require_hom(m, g, h)
    if not classify(m, g, h).isomorphism:
        raise DomainError("inv-isomorphism requires an isomorphism")
    preimage = {m.apply(x): x for x in g.roster}
    return map_from_function(h.roster, preimage.__getitem__)
