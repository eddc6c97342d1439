"""Finite topological spaces and the symbolic convergent-sequence space.

The explicit backend stores the full open-set family of a space on points
``0..n-1``.  The sequence backend models the one-limit-point space
N ∪ {∞} (every natural isolated, neighborhoods of ∞ cofinite) through the
finite/cofinite set algebra of :mod:`quasiring.sets`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Union

from .errors import (
    CarrierMismatch,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
)
from .sets import INF, SeqSet, sort_family


@dataclass(frozen=True)
class ExplicitSpace:
    point_count: int
    opens: frozenset

    @property
    def points(self) -> range:
        return range(self.point_count)

    @property
    def full(self) -> frozenset:
        return frozenset(self.points)

    def is_open(self, s: frozenset) -> bool:
        return frozenset(s) in self.opens

    def is_closed(self, s: frozenset) -> bool:
        return self.full - frozenset(s) in self.opens

    def is_clopen(self, s: frozenset) -> bool:
        return self.is_open(s) and self.is_closed(s)

    def sorted_opens(self) -> list[frozenset]:
        return sort_family(self.opens)


class SequenceSpace:
    """The convergent-sequence space: N with isolated points plus a limit ∞.

    Representable sets live in the finite/cofinite algebra.  A set is open iff
    it avoids ∞ or contains a cofinite neighborhood of it.
    """

    def is_open(self, s: SeqSet) -> bool:
        return (not s.infinity) or s.cofinal

    def is_closed(self, s: SeqSet) -> bool:
        return self.is_open(s.complement())

    def is_clopen(self, s: SeqSet) -> bool:
        return self.is_open(s) and self.is_closed(s)

    def __eq__(self, other):
        return isinstance(other, SequenceSpace)

    def __hash__(self):
        return hash(SequenceSpace)

    def __repr__(self):
        return "SequenceSpace()"


Space = Union[ExplicitSpace, SequenceSpace]


@dataclass(frozen=True)
class QuotientSpace:
    """Quotient of a space by its quasi-component partition."""

    parent: ExplicitSpace
    classes: tuple          # tuple of frozensets, deterministic order
    opens: frozenset        # open families of class-index sets

    def class_index(self, point: int) -> int:
        for i, c in enumerate(self.classes):
            if point in c:
                return i
        raise ValueError(f"point {point} not in any class")

    def projection(self, point: int) -> frozenset:
        return self.classes[self.class_index(point)]

    def as_space(self) -> ExplicitSpace:
        return ExplicitSpace(len(self.classes), self.opens)


@dataclass(frozen=True)
class TopologyComparison:
    verdict: str            # equal | first-strictly-coarser | first-strictly-finer | incomparable
    only_in_first: frozenset | None = None
    only_in_second: frozenset | None = None


class ClopenFamily:
    """Clopen sets of the sequence space, as a membership predicate.

    The family is exactly {finite subsets of N} ∪ {cofinite sets containing ∞}
    and is too large to materialize.
    """

    def __init__(self, space: SequenceSpace):
        self.space = space

    def contains(self, s: SeqSet) -> bool:
        return self.space.is_clopen(s)


def validate_topology(point_count: int, opens, auto_close: bool = False) -> ExplicitSpace:
    """Build an explicit space, verifying the open-family axioms.

    Rejects families that are not closed under pairwise union/intersection
    unless ``auto_close`` asks for closure-completion.  Pairwise closure
    suffices on a finite carrier.
    """
    if point_count < 1:
        raise ValueError("point_count must be >= 1")
    full = frozenset(range(point_count))
    fam = set()
    for s in opens:
        s = frozenset(s)
        if not s <= full:
            raise ValueError(f"open set {sorted(s)} not within 0..{point_count - 1}")
        fam.add(s)
    if frozenset() not in fam or full not in fam:
        if auto_close:
            fam.add(frozenset())
            fam.add(full)
        else:
            raise MissingEmptyOrFull(
                "open family must contain the empty set and the full set"
            )
    while True:
        new = set()
        for a, b in itertools.combinations(sorted(fam, key=sorted), 2):
            u, i = a | b, a & b
            if u not in fam:
                if not auto_close:
                    raise NotClosedUnderUnion(a, b)
                new.add(u)
            if i not in fam:
                if not auto_close:
                    raise NotClosedUnderIntersection(a, b)
                new.add(i)
        if not new:
            break
        fam |= new
    return ExplicitSpace(point_count, frozenset(fam))


def discrete_space(n: int) -> ExplicitSpace:
    full = range(n)
    opens = frozenset(frozenset(c)
                      for size in range(n + 1)
                      for c in itertools.combinations(full, size))
    return ExplicitSpace(n, opens)


def indiscrete_space(n: int) -> ExplicitSpace:
    return ExplicitSpace(n, frozenset({frozenset(), frozenset(range(n))}))


def sierpinski_space() -> ExplicitSpace:
    """Two points with exactly one of the singletons open."""
    return ExplicitSpace(2, frozenset({frozenset(), frozenset({0}), frozenset({0, 1})}))


def disjoint_union(a: ExplicitSpace, b: ExplicitSpace) -> ExplicitSpace:
    """Topological sum; b's points are shifted past a's."""
    shift = a.point_count
    opens = frozenset(u | frozenset(p + shift for p in v)
                      for u in a.opens for v in b.opens)
    return ExplicitSpace(a.point_count + b.point_count, opens)


def clopen_family(space: Space):
    """All clopen sets: a sorted list (explicit) or a ClopenFamily (sequence)."""
    if isinstance(space, SequenceSpace):
        return ClopenFamily(space)
    return sort_family(u for u in space.opens if space.is_closed(u))


def quasi_component(space: Space, x) -> frozenset | SeqSet:
    """Intersection of all clopen sets containing x."""
    if isinstance(space, SequenceSpace):
        # every {n} is clopen; for ∞ the cofinite clopens intersect to {∞}
        if x is INF:
            return SeqSet.of((), infinity=True)
        return SeqSet.of((x,))
    out = space.full
    for u in space.opens:
        if x in u and space.is_closed(u):
            out &= u
    return out


def quasi_component_partition(space: ExplicitSpace) -> tuple:
    seen = set()
    classes = []
    for p in space.points:
        if p not in seen:
            q = quasi_component(space, p)
            classes.append(q)
            seen |= q
    return tuple(sorted(classes, key=min))


def quotient_space(space: Space):
    """Quotient by quasi-components; totally separated by construction."""
    if isinstance(space, SequenceSpace):
        return space  # classes are singletons: the quotient is the space itself
    classes = quasi_component_partition(space)
    index = {}
    for i, c in enumerate(classes):
        for p in c:
            index[p] = i
    opens = set()
    for subset in itertools.chain.from_iterable(
            itertools.combinations(range(len(classes)), k)
            for k in range(len(classes) + 1)):
        pre = frozenset(p for p in space.points if index[p] in subset)
        if space.is_open(pre):
            opens.add(frozenset(subset))
    return QuotientSpace(space, classes, frozenset(opens))


def clopen_base_topology(space: Space) -> Space:
    """The topology generated by the clopen sets as an open basis."""
    if isinstance(space, SequenceSpace):
        return space  # opens are already unions of clopens
    basis = set(clopen_family(space))
    opens = set(basis)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(sorted(opens, key=sorted), 2):
            u = a | b
            if u not in opens:
                opens.add(u)
                changed = True
    return ExplicitSpace(space.point_count, frozenset(opens))


def is_totally_separated(space: Space) -> bool:
    if isinstance(space, SequenceSpace):
        return True
    return all(len(quasi_component(space, p)) == 1 for p in space.points)


def compare_topologies(a: Space, b: Space) -> TopologyComparison:
    if isinstance(a, SequenceSpace) or isinstance(b, SequenceSpace):
        if isinstance(a, SequenceSpace) and isinstance(b, SequenceSpace):
            return TopologyComparison("equal")
        raise CarrierMismatch("cannot compare explicit and sequence backends")
    if a.point_count != b.point_count:
        raise CarrierMismatch(
            f"carriers differ: {a.point_count} vs {b.point_count} points")
    only_a = sort_family(a.opens - b.opens)
    only_b = sort_family(b.opens - a.opens)
    if not only_a and not only_b:
        return TopologyComparison("equal")
    if not only_a:
        return TopologyComparison("first-strictly-coarser", None, only_b[0])
    if not only_b:
        return TopologyComparison("first-strictly-finer", only_a[0], None)
    return TopologyComparison("incomparable", only_a[0], only_b[0])
