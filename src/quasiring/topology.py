"""Finite topological spaces and the symbolic convergent-sequence space.

The explicit backend hands out the full open-set family of a space on points
``0..n-1`` as a frozenset of frozensets.  Behind that boundary a point set is
an int bitmask, bit p for point p, and every open family is built by one
routine, ``all_unions``: the unions of a few masks, the empty union included.
The topology generated by some sets is the unions of the minimal open
neighbourhoods U_x, the intersection of the generating sets that contain x
(Alexandroff, "Diskrete Räume", 1937); the clopen-base topology is the unions
of the quasi-components.  Each space caches its open and clopen masks.  No
family is enumerated past ``DEFAULT_ENUM_BUDGET`` sets.

The sequence backend models the one-limit-point space N ∪ {∞} (every
natural isolated, neighborhoods of ∞ cofinite) through the finite/cofinite
set algebra of :mod:`quasiring.sets`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Union

from .errors import (
    BudgetExceeded,
    CarrierMismatch,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
)
from .sets import INF, SeqSet, sort_family

#: the most open sets (or, for a FunctionRing, elements) any one family may
#: enumerate before the construction is refused
DEFAULT_ENUM_BUDGET = 2 ** 20


def mask_of(points: Iterable[int]) -> int:
    """The bitmask of a set of points."""
    mask = 0
    for p in points:
        mask |= 1 << p
    return mask


def points_of(mask: int) -> frozenset:
    """The set of points of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def all_unions(masks: Iterable[int]) -> set:
    """Every union of the given masks, the empty union 0 included.

    Past ``DEFAULT_ENUM_BUDGET`` unions the enumeration is refused.
    """
    masks = set(masks)
    family = {0}
    todo = [0]
    while todo:
        base = todo.pop()
        for m in masks:
            u = base | m
            if u not in family:
                family.add(u)
                if len(family) > DEFAULT_ENUM_BUDGET:
                    raise BudgetExceeded(
                        f"a family of more than {DEFAULT_ENUM_BUDGET} sets "
                        f"exceeds the enumeration budget {DEFAULT_ENUM_BUDGET}")
                todo.append(u)
    return family


def _meets(point_count: int, masks) -> list[int]:
    """Per point x, the intersection of the masks that contain x."""
    out = []
    for x in range(point_count):
        bit = 1 << x
        u = (1 << point_count) - 1
        for m in masks:
            if m & bit:
                u &= m
        out.append(u)
    return out


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

    @cached_property
    def open_masks(self) -> frozenset:
        return frozenset(mask_of(u) for u in self.opens)

    @cached_property
    def clopen_masks(self) -> frozenset:
        full = (1 << self.point_count) - 1
        opens = self.open_masks
        return frozenset(m for m in opens if full ^ m in opens)

    @cached_property
    def quasi_masks(self) -> tuple:
        """Per point, its quasi-component: the meet of the clopens holding it."""
        return tuple(_meets(self.point_count, self.clopen_masks))

    def is_open(self, s: frozenset) -> bool:
        return frozenset(s) in self.opens

    def is_closed(self, s: frozenset) -> bool:
        return self.full - frozenset(s) in self.opens

    def is_clopen(self, s: frozenset) -> bool:
        return self.is_open(s) and self.is_closed(s)

    def sorted_opens(self) -> list[frozenset]:
        return sort_family(self.opens)


def _explicit(point_count: int, masks) -> ExplicitSpace:
    """The space whose opens are the given masks, with its mask cache set."""
    space = ExplicitSpace(point_count, frozenset(map(points_of, masks)))
    # the masks are already known; seed the cached property with them
    space.__dict__["open_masks"] = frozenset(masks)
    return space


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

    With ``auto_close`` the space is the topology the given sets generate:
    the unions of the minimal neighbourhoods U_x.  Without it the family
    must already be that topology; otherwise the first pair (in sorted
    order) whose union or intersection is missing is reported.
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
    if auto_close:
        return _explicit(point_count, all_unions(
            _meets(point_count, [mask_of(s) for s in fam])))
    if frozenset() not in fam or full not in fam:
        raise MissingEmptyOrFull(
            "open family must contain the empty set and the full set")
    for a, b in itertools.combinations(sorted(fam, key=sorted), 2):
        if a | b not in fam:
            raise NotClosedUnderUnion(a, b)
        if a & b not in fam:
            raise NotClosedUnderIntersection(a, b)
    return ExplicitSpace(point_count, frozenset(fam))


def discrete_space(n: int) -> ExplicitSpace:
    if n > DEFAULT_ENUM_BUDGET.bit_length() - 1:
        raise BudgetExceeded(
            f"the discrete space on {n} points has 2^{n} open sets, over "
            f"the enumeration budget {DEFAULT_ENUM_BUDGET}")
    return _explicit(n, range(1 << n))


def indiscrete_space(n: int) -> ExplicitSpace:
    return ExplicitSpace(n, frozenset({frozenset(), frozenset(range(n))}))


def sierpinski_space() -> ExplicitSpace:
    """Two points with exactly one of the singletons open."""
    return ExplicitSpace(2, frozenset({frozenset(), frozenset({0}), frozenset({0, 1})}))


def disjoint_union(a: ExplicitSpace, b: ExplicitSpace) -> ExplicitSpace:
    """Topological sum; b's points are shifted past a's."""
    shift = a.point_count
    return _explicit(a.point_count + b.point_count,
                     {u | v << shift
                      for u in a.open_masks for v in b.open_masks})


def clopen_family(space: Space):
    """All clopen sets: a sorted list (explicit) or a ClopenFamily (sequence)."""
    if isinstance(space, SequenceSpace):
        return ClopenFamily(space)
    return sort_family(map(points_of, space.clopen_masks))


def quasi_component(space: Space, x) -> frozenset | SeqSet:
    """Intersection of all clopen sets containing x."""
    if isinstance(space, SequenceSpace):
        # every {n} is clopen; for ∞ the cofinite clopens intersect to {∞}
        if x is INF:
            return SeqSet.of((), infinity=True)
        return SeqSet.of((x,))
    return points_of(space.quasi_masks[x])


def _quasi_classes(space: ExplicitSpace) -> list[int]:
    """The quasi-component masks, in the order of their least points."""
    seen, classes = 0, []
    for p, q in enumerate(space.quasi_masks):
        if not seen >> p & 1:
            classes.append(q)
            seen |= q
    return classes


def quasi_component_partition(space: ExplicitSpace) -> tuple:
    return tuple(map(points_of, _quasi_classes(space)))


def quotient_space(space: Space):
    """Quotient by quasi-components; totally separated by construction."""
    if isinstance(space, SequenceSpace):
        return space  # classes are singletons: the quotient is the space itself
    masks = _quasi_classes(space)
    opens = set()
    for m in space.open_masks:
        hit = [i for i, c in enumerate(masks) if c & m]
        if m == sum(masks[i] for i in hit):  # m is saturated
            opens.add(frozenset(hit))
    return QuotientSpace(space, tuple(map(points_of, masks)), frozenset(opens))


def clopen_base_topology(space: Space) -> Space:
    """The topology generated by the clopen sets as an open basis."""
    if isinstance(space, SequenceSpace):
        return space  # opens are already unions of clopens
    return _explicit(space.point_count, all_unions(_quasi_classes(space)))


def is_totally_separated(space: Space) -> bool:
    if isinstance(space, SequenceSpace):
        return True
    return all(q == 1 << p for p, q in enumerate(space.quasi_masks))


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
