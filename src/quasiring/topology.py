"""Finite topological spaces and the symbolic convergent-sequence space.

An explicit space on points ``0..n-1`` is held as its n minimal open
neighbourhoods U_x, the least open set holding x, each an int bitmask (bit p
for point p).  A finite topology is exactly the unions of these sets
(Alexandroff, "Diskrete Räume", 1937), so every family is derived from them:
a set is open when it holds U_x for each of its points x; the quasi-component
of x is the least clopen set around it; the clopen sets and the clopen-base
topology are the unions of the quasi-components.  Each quasi-component is
clopen, so the quotient by them is the discrete space on the classes.  A
family of sets is enumerated only on demand, by ``all_unions``, and never
past ``DEFAULT_ENUM_BUDGET`` sets.

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
from .sets import INF, SeqSet, mask_key

#: the most open sets (or, for a FunctionRing, elements) any one family may
#: enumerate before the construction is refused; a space of n points holds
#: n neighbourhoods of n bits, and is refused past this many bits
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


def _family_refused(reached: int) -> BudgetExceeded:
    return BudgetExceeded(
        f"a family of more than {DEFAULT_ENUM_BUDGET} sets "
        f"exceeds the enumeration budget {DEFAULT_ENUM_BUDGET}",
        cap=DEFAULT_ENUM_BUDGET, reached=reached)


def all_unions(masks: Iterable[int]) -> set:
    """Every union of the given masks, the empty union 0 included.

    Past ``DEFAULT_ENUM_BUDGET`` unions the enumeration is refused.
    """
    family = {0}
    for m in set(masks):
        for u in list(family):
            family.add(u | m)
            if len(family) > DEFAULT_ENUM_BUDGET:
                raise _family_refused(len(family))
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


def _check_size(point_count: int):
    if point_count * point_count > DEFAULT_ENUM_BUDGET:
        raise BudgetExceeded(
            f"a space of {point_count} points holds {point_count}^2 "
            f"neighbourhood bits, over the enumeration budget "
            f"{DEFAULT_ENUM_BUDGET}",
            cap=DEFAULT_ENUM_BUDGET, reached=point_count * point_count)


@dataclass(frozen=True)
class ExplicitSpace:
    """A finite space; ``nbhds[x]`` is the mask of U_x."""

    point_count: int
    nbhds: tuple

    @property
    def points(self) -> range:
        return range(self.point_count)

    @property
    def full(self) -> frozenset:
        return frozenset(self.points)

    @property
    def opens(self) -> frozenset:
        """Every open set, enumerated: the unions of the U_x."""
        return frozenset(map(points_of, all_unions(self.nbhds)))

    @cached_property
    def quasi_masks(self) -> tuple:
        """Per point x, its quasi-component: the least clopen set holding x.

        Starting from U_x, every U_y that meets the set is added until
        nothing changes.  The result C is open, a union of U_y, and closed,
        since each y outside C has U_y disjoint from C.  A clopen set W
        holding x holds C: W holds U_z for each of its points z, and a U_y
        meeting W has y in W (else U_y lies in W's open complement), so no
        step leaves W.  C is therefore the intersection of the clopen sets
        holding x.
        """
        out = [0] * self.point_count
        for x in self.points:
            if not out[x]:
                comp, before = self.nbhds[x], 0
                while comp != before:
                    before = comp
                    for u in self.nbhds:
                        if u & comp:
                            comp |= u
                for p in points_of(comp):
                    out[p] = comp
        return tuple(out)

    def _is_open_mask(self, m: int) -> bool:
        """Whether m holds U_x for each of its points x, read bit by bit."""
        if m >> self.point_count:
            return False
        nbhds, outside, rest = self.nbhds, ~m, m
        while rest:
            low = rest & -rest
            if nbhds[low.bit_length() - 1] & outside:
                return False
            rest ^= low
        return True

    def is_open(self, s: frozenset) -> bool:
        return self._is_open_mask(mask_of(s))

    def is_closed(self, s: frozenset) -> bool:
        return self._is_open_mask(((1 << self.point_count) - 1) & ~mask_of(s))

    def is_clopen(self, s: frozenset) -> bool:
        return self.is_open(s) and self.is_closed(s)


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
class TopologyComparison:
    verdict: str            # equal | first-strictly-coarser | first-strictly-finer | incomparable
    only_in_first: frozenset | None = None
    only_in_second: frozenset | None = None


def validate_topology(point_count: int, opens, auto_close: bool = False) -> ExplicitSpace:
    """Build an explicit space, verifying the open-family axioms.

    With ``auto_close`` the space is the topology the given sets generate.
    Without it the family must already be that topology; otherwise the first
    pair (in sorted order) whose union or intersection is missing is
    reported.  Either way U_x is the intersection of the given sets that
    contain x.
    """
    if point_count < 1:
        raise ValueError("point_count must be >= 1")
    _check_size(point_count)
    full = frozenset(range(point_count))
    fam = set()
    for s in opens:
        s = frozenset(s)
        if not s <= full:
            raise ValueError(f"open set {sorted(s)} not within 0..{point_count - 1}")
        fam.add(s)
    if not auto_close:
        if frozenset() not in fam or full not in fam:
            raise MissingEmptyOrFull(
                "open family must contain the empty set and the full set")
        for a, b in itertools.combinations(sorted(fam, key=sorted), 2):
            if a | b not in fam:
                raise NotClosedUnderUnion(a, b)
            if a & b not in fam:
                raise NotClosedUnderIntersection(a, b)
    return ExplicitSpace(point_count, tuple(
        _meets(point_count, [mask_of(s) for s in fam])))


def discrete_space(n: int) -> ExplicitSpace:
    if n < 1:
        raise ValueError("point_count must be >= 1")
    _check_size(n)
    return ExplicitSpace(n, tuple(1 << x for x in range(n)))


def indiscrete_space(n: int) -> ExplicitSpace:
    return ExplicitSpace(n, ((1 << n) - 1,) * n)


def sierpinski_space() -> ExplicitSpace:
    """Two points with exactly one of the singletons open."""
    return ExplicitSpace(2, (0b01, 0b11))


def disjoint_union(a: ExplicitSpace, b: ExplicitSpace) -> ExplicitSpace:
    """Topological sum; b's points are shifted past a's."""
    shift = a.point_count
    return ExplicitSpace(shift + b.point_count,
                         a.nbhds + tuple(u << shift for u in b.nbhds))


def clopen_family(space: ExplicitSpace) -> list[frozenset]:
    """All clopen sets, in ``mask_key`` order: the unions of the
    quasi-components.

    Point sets and sort keys are built together by doubling: each class
    adds, to every union so far, that union with the class.  A set b of n
    points is keyed by size·2^n − rev_n(b), rev_n the n-bit reversal,
    which orders as ``mask_key`` does; both parts add over disjoint sets,
    so a union's key is its classes' keys summed.  A family of more than
    ``DEFAULT_ENUM_BUDGET`` sets is refused up front, with the error an
    enumeration one set at a time raises at its first set past the budget.
    """
    classes = _quasi_classes(space)
    if 1 << len(classes) > DEFAULT_ENUM_BUDGET:
        raise _family_refused(DEFAULT_ENUM_BUDGET + 1)
    n = space.point_count
    keys, sets = [0], [frozenset()]
    for q in classes:
        c = points_of(q)
        key = (len(c) << n) - sum(1 << n - 1 - p for p in c)
        # listed first: a list extended by a map over itself never ends
        keys += [*map(key.__add__, keys)]
        sets += [*map(c.__or__, sets)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [*map(sets.__getitem__, order)]


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


def clopen_base_topology(space: ExplicitSpace) -> ExplicitSpace:
    """The topology with the clopen sets as an open basis: U_x is the
    quasi-component of x."""
    return ExplicitSpace(space.point_count, space.quasi_masks)


def _first_open_not_in(a: ExplicitSpace, b: ExplicitSpace) -> frozenset | None:
    """The first open set of a, in ``mask_key`` order, that b lacks.

    Such a set W is the union of the U_x of a for x in W, so one of those
    U_x is not open in b either; it is no larger than W, and equal to W when
    as large, so it comes first.
    """
    missing = [u for u in set(a.nbhds) if not b._is_open_mask(u)]
    if not missing:
        return None
    return points_of(min(missing, key=mask_key(a.point_count)))


def compare_topologies(a: ExplicitSpace, b: ExplicitSpace) -> TopologyComparison:
    if a.point_count != b.point_count:
        raise CarrierMismatch(
            f"carriers differ: {a.point_count} vs {b.point_count} points")
    only_a = _first_open_not_in(a, b)
    only_b = _first_open_not_in(b, a)
    if only_a is None and only_b is None:
        return TopologyComparison("equal")
    if only_a is None:
        return TopologyComparison("first-strictly-coarser", None, only_b)
    if only_b is None:
        return TopologyComparison("first-strictly-finer", only_a, None)
    return TopologyComparison("incomparable", only_a, only_b)
