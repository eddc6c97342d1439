"""Symbolic function ring over the convergent-sequence space.

Continuous functions into a discrete algebra are exactly the eventually
constant ones, with the limit point mapped to the tail value.  An element is
stored as a canonical (prefix, tail) pair: the prefix lists the values at
0..k-1 and is minimal (its last entry differs from the tail).

The full ring is infinite, so set-level queries come back as symbolic handles
(membership predicate plus a budget-bounded generator) rather than element
sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

from .algebra import AlgebraTable
from .errors import MissingAddition
from .sets import INF, SeqSet

DEFAULT_PREFIX_BUDGET = 6


@dataclass(frozen=True)
class SeqFn:
    prefix: tuple
    tail: int

    def __post_init__(self):
        if self.prefix and self.prefix[-1] == self.tail:
            raise ValueError("prefix not canonical: last entry equals the tail")

    @staticmethod
    def make(prefix, tail) -> "SeqFn":
        prefix = tuple(prefix)
        while prefix and prefix[-1] == tail:
            prefix = prefix[:-1]
        return SeqFn(prefix, tail)

    @staticmethod
    def constant(value: int) -> "SeqFn":
        return SeqFn((), value)

    def value_at(self, point) -> int:
        if point is INF:
            return self.tail
        if point < len(self.prefix):
            return self.prefix[point]
        return self.tail

    def __repr__(self):
        return f"SeqFn({list(self.prefix)}..{self.tail})"


@dataclass(frozen=True)
class SymbolicIdeal:
    """An ideal of the sequence ring given by predicate, not by element list."""

    ring: "SequenceRing"
    member: Callable[[SeqFn], bool]
    description: str

    def generate(self, prefix_budget: int = DEFAULT_PREFIX_BUDGET) -> Iterator[SeqFn]:
        for f in self.ring.generate(prefix_budget):
            if self.member(f):
                yield f


class SequenceRing:
    """C(N ∪ {∞}, Y) with Y a discrete table algebra."""

    def __init__(self, algebra: AlgebraTable):
        self.algebra = algebra
        self.theta = SeqFn.constant(algebra.zero)
        self.identity = (SeqFn.constant(algebra.unit)
                         if algebra.unit is not None else None)

    # -- arithmetic ---------------------------------------------------------

    def _zip(self, f: SeqFn, g: SeqFn, table) -> SeqFn:
        k = max(len(f.prefix), len(g.prefix))
        prefix = [table[f.value_at(i)][g.value_at(i)] for i in range(k)]
        return SeqFn.make(prefix, table[f.tail][g.tail])

    def mul(self, f: SeqFn, g: SeqFn) -> SeqFn:
        return self._zip(f, g, self.algebra.mul)

    def add(self, f: SeqFn, g: SeqFn) -> SeqFn:
        if self.algebra.add is None:
            raise MissingAddition("algebra has no addition table")
        return self._zip(f, g, self.algebra.add)

    # -- enumeration --------------------------------------------------------

    def generate(self, prefix_budget: int = DEFAULT_PREFIX_BUDGET) -> Iterator[SeqFn]:
        """All elements with prefix length <= the budget, shortest first."""
        m = self.algebra.carrier_size
        for k in range(prefix_budget + 1):
            for tail in range(m):
                for prefix in itertools.product(range(m), repeat=k):
                    if k and prefix[-1] == tail:
                        continue
                    yield SeqFn(prefix, tail)

    # -- geometry -----------------------------------------------------------

    def zero_set(self, f: SeqFn) -> SeqSet:
        z = self.algebra.zero
        support = frozenset(i for i, v in enumerate(f.prefix) if v != z)
        zeros = frozenset(i for i, v in enumerate(f.prefix) if v == z)
        if f.tail == z:
            return SeqSet(support, cofinal=True, infinity=True)
        return SeqSet(zeros)

    def chi(self, u: SeqSet, a: int | None = None) -> SeqFn:
        """Characteristic function of a clopen set u: zero on u, a off it."""
        from .topology import SequenceSpace
        if not SequenceSpace().is_clopen(u):
            from .errors import NotClopen
            raise NotClopen(f"{u!r} is not clopen in the sequence space")
        if a is None:
            a = self.algebra.unit
        z = self.algebra.zero
        bound = max(u.finite, default=-1) + 1
        prefix = [z if u.contains(i) else a for i in range(bound)]
        tail = z if u.infinity else a
        return SeqFn.make(prefix, tail)

    def vanishing_I(self, points) -> SymbolicIdeal:
        """Ideal of functions vanishing on the given points (INF allowed)."""
        points = tuple(points)
        z = self.algebra.zero

        def member(f: SeqFn) -> bool:
            return all(f.value_at(p) == z for p in points)

        label = ",".join("inf" if p is INF else str(p) for p in points)
        return SymbolicIdeal(self, member, f"I({{{label}}})")

    # -- bounded verdicts ---------------------------------------------------

    def is_prime_bounded(self, ideal: SymbolicIdeal,
                         prefix_budget: int = DEFAULT_PREFIX_BUDGET):
        """(verdict, witness): no f·g counterexample with prefix <= budget.

        A True verdict is "prime up to budget", never an unconditional claim.
        """
        pool = list(self.generate(prefix_budget))
        inside = {f for f in pool if ideal.member(f)}
        for f in pool:
            for g in pool:
                if self.mul(f, g) in inside and f not in inside and g not in inside:
                    return False, (f, g)
        return True, None

    def exists_fn_vanishing_only_at_inf(self) -> bool:
        """Whether some element has zero set exactly {∞}.  Structurally no:
        vanishing at ∞ forces a zero tail, hence cofinitely many zeros."""
        return False


# -- discretization comparison ---------------------------------------------

@dataclass(frozen=True)
class DiscretizedFn:
    """A function on the discretized carrier (no continuity at ∞ required).

    Eventually constant on N with an independent value at ∞; this bounded
    shape is enough to witness what the continuity constraint forbids.
    """

    prefix: tuple
    tail: int
    at_inf: int

    @staticmethod
    def make(prefix, tail, at_inf) -> "DiscretizedFn":
        prefix = tuple(prefix)
        while prefix and prefix[-1] == tail:
            prefix = prefix[:-1]
        return DiscretizedFn(prefix, tail, at_inf)

    def value_at(self, point) -> int:
        if point is INF:
            return self.at_inf
        if point < len(self.prefix):
            return self.prefix[point]
        return self.tail


class DiscretizedRing:
    """Bounded model of the function ring over the discretized carrier."""

    def __init__(self, algebra: AlgebraTable):
        self.algebra = algebra
        self.theta = DiscretizedFn((), algebra.zero, algebra.zero)

    def mul(self, f: DiscretizedFn, g: DiscretizedFn) -> DiscretizedFn:
        t = self.algebra.mul
        k = max(len(f.prefix), len(g.prefix))
        prefix = [t[f.value_at(i)][g.value_at(i)] for i in range(k)]
        return DiscretizedFn.make(prefix, t[f.tail][g.tail],
                                  t[f.at_inf][g.at_inf])

    def generate(self, prefix_budget: int = DEFAULT_PREFIX_BUDGET) -> Iterator[DiscretizedFn]:
        m = self.algebra.carrier_size
        for k in range(prefix_budget + 1):
            for tail in range(m):
                for at_inf in range(m):
                    for prefix in itertools.product(range(m), repeat=k):
                        if k and prefix[-1] == tail:
                            continue
                        yield DiscretizedFn(prefix, tail, at_inf)


def discretize(f: SeqFn) -> DiscretizedFn:
    """Forgetful embedding: compose with the identity from the discrete carrier."""
    return DiscretizedFn(f.prefix, f.tail, f.tail)


def in_discretization_image(f: DiscretizedFn) -> bool:
    """Whether f comes from a continuous function on the sequence space."""
    return f.at_inf == f.tail


def chi_of_inf(algebra: AlgebraTable) -> DiscretizedFn:
    """Zero exactly at ∞, unit elsewhere; continuous only on the discretized
    carrier."""
    return DiscretizedFn((), algebra.unit, algebra.zero)
