"""The checker context: the derived data of one instance, built lazily.

A ``Context`` holds one (space, algebra, side, mode) and builds each piece
of shared data (the ring, the lattice, the families, χ indices, zero sets,
vanishing ideals, principal ideals) once, when a checker first needs it;
every checker run on the context reads the same copies.  What depends on
the algebra alone is shared further: the ring keeps its tables and
principal tables on its core (``FunctionRing.keep``), which every ring
over the same Y and the same number of quasi-components reads, and
``enumerated_lattice`` keeps the lattice there, which holds its own
classification and families.
"""

from __future__ import annotations

import random
from functools import cached_property

from ..algebra import structure_flags
from ..errors import BudgetExceeded, MissingAddition
from ..funcspace import DEFAULT_ENUM_BUDGET, FunctionRing, vanishing_elements
from ..ideals import (
    MULTIPLICATIVE,
    RIGHT,
    RING,
    bitset,
    classify_primes,
    enumerated_lattice,
    join,
    members,
    principal_table,
)
from ..topology import SequenceSpace


class Context:
    """Lazily built derived data for one (space, algebra, side, mode).

    Ring-level data lives on element indices: a set of elements is a bitset
    (bit i for ``ring.elements[i]``), and a set of quasi-components a class
    mask (bit c for ``ring.classes[c]``).  On a finite space every clopen
    set is a union of quasi-components, so a clopen is its class mask.
    Every cache is built once per context, when a checker first needs it,
    and held for its lifetime: what the ring's core refuses to keep costs
    one build per context, never one per read.
    """

    def __init__(self, space, algebra, side: str = RIGHT, mode: str | None = None,
                 budget: int = DEFAULT_ENUM_BUDGET, seed: int = 0):
        self.space = space
        self.algebra = algebra
        self.side = side
        if mode is None:
            mode = RING if algebra.add is not None else MULTIPLICATIVE
        if mode == RING and algebra.add is None:
            raise MissingAddition("ring mode needs an addition table")
        self.mode = mode
        self.budget = budget
        self.seed = seed
        self.is_sequence = isinstance(space, SequenceSpace)
        #: what the checkers keep per context: each hypothesis's boolean
        #: under its name, and the result of each body (or helper) run
        #: through ``checkers._body`` under that function
        self.memo = {}
        self._points, self._clopen, self._vanishing = {}, {}, {}
        self._principals = {}   # mode -> the ring's principal table
        self._chi = {}          # off-value -> the ring's χ table

    @cached_property
    def flags(self):
        return structure_flags(self.algebra)

    @cached_property
    def ring(self) -> FunctionRing:
        return FunctionRing(self.space, self.algebra, self.budget)

    #: the checker lattice's one bound: its pass stops past this many
    #: ideals, and the checkers that read it report BUDGET_EXCEEDED with
    #: this cap instead of stalling (the ring's own caps bound its elements)
    lattice_budget = 1200

    @property
    def lattice(self):
        """The classified lattice.  A failed build is held as well: its
        ``BudgetExceeded`` is raised again on every later read, without a
        second build."""
        lat = self._lattice
        if isinstance(lat, Exception):
            raise lat.with_traceback(None)
        return lat

    @cached_property
    def _lattice(self):
        """The classified lattice of the pass under ``lattice_budget``, or
        the ``BudgetExceeded`` of its build or classification.  The pass
        keeps the lattice on the core (``enumerated_lattice``), so every
        context over the same core with the same side, mode and budget
        reads one build."""
        try:
            return classify_primes(enumerated_lattice(
                self.ring, self.side, self.mode, budget=self.lattice_budget))
        except BudgetExceeded as exc:
            return exc

    @cached_property
    def primes(self):
        return [i for i in self.lattice.ideals if i.meta.get("is_prime")]

    @cached_property
    def clopens(self) -> range:
        """Every clopen set, as its class mask."""
        return range(1 << len(self.ring.classes))

    @property
    def families(self):
        """The families of the lattice, kept on the lattice itself."""
        return self.lattice.families

    @cached_property
    def nonzero(self):
        z = self.algebra.zero
        return [a for a in self.algebra.elements if a != z]

    @cached_property
    def whole(self) -> int:
        """Every element of the ring, as a bitset."""
        return (1 << len(self.ring.elements)) - 1

    @cached_property
    def theta(self) -> int:
        """The index of the zero function."""
        return self.ring.index(self.ring.theta)

    @cached_property
    def one(self) -> int:
        """The index of the identity function (Y must have a unit)."""
        return self.ring.index(self.ring.identity)

    def chi_table(self, a=None) -> tuple:
        """The ring's χ table with off-value a (the unit by default), held
        per context and off-value."""
        if a is None:
            a = self.algebra.unit
        table = self._chi.get(a)
        if table is None:
            table = self._chi[a] = self.ring.chi_table(a)
        return table

    def chi(self, c: int, a=None) -> int:
        """The index of χ_U with off-value a, U the class mask c."""
        return self.chi_table(a)[c]

    @cached_property
    def chi_set(self) -> tuple:
        """The χ_U indices, ascending."""
        return tuple(sorted(self.chi_table()))

    @cached_property
    def value_bits(self) -> list:
        """Per class c and value b, the elements equal to b on c."""
        ring = self.ring
        return [[ring.value_bits(c, b) for b in self.algebra.elements]
                for c in range(len(ring.classes))]

    @cached_property
    def zero_classes(self) -> list:
        """Per element index, the class mask of its zero set V(f), as a
        list: checker loops index it, and a list indexes faster than the
        ring's byte table."""
        return list(self.ring.zero_classes())

    @cached_property
    def all_classes(self) -> int:
        return (1 << len(self.ring.classes)) - 1

    def points(self, classes: int) -> frozenset:
        """The points of the classes in a class mask, cached."""
        out = self._points.get(classes)
        if out is None:
            out = self._points[classes] = frozenset().union(
                *(self.ring.classes[c] for c in members(classes)))
        return out

    def is_clopen(self, classes: int) -> bool:
        """Whether the points of the classes in a class mask are clopen in
        the space, cached."""
        out = self._clopen.get(classes)
        if out is None:
            out = self._clopen[classes] = self.space.is_clopen(
                self.points(classes))
        return out

    def vanishing(self, points: frozenset, b=None) -> int:
        """I(U, b) as a bitset (``vanishing_elements``), cached."""
        out = self._vanishing.get((points, b))
        if out is None:
            out = self._vanishing[points, b] = vanishing_elements(
                self.ring, points, b)
        return out

    def zero_locus(self, bits: int, b=None) -> int:
        """V(J, b) as a class mask: the classes on which every member of
        the bitset J equals b (every class when J is empty)."""
        b = self.algebra.zero if b is None else b
        out = 0
        for c, by_value in enumerate(self.value_bits):
            if bits & ~by_value[b] == 0:
                out |= 1 << c
        return out

    def equiv(self, bits: int, x: int) -> int:
        """[x]_J as a class mask: the classes on which every member of the
        bitset J takes its value at x."""
        return self.alike(bits)[self.ring.class_of[x]]

    def alike(self, bits: int) -> list:
        """Per class c, [c]_J as a class mask: two classes are alike when
        they split the members of the bitset J by value the same way."""
        split = [tuple(bits & vb for vb in by_value)
                 for by_value in self.value_bits]
        return [bitset(d for d, t in enumerate(split) if t == s)
                for s in split]

    def principals(self, mode: str) -> tuple:
        """The ring's principal table of the mode, held per context."""
        table = self._principals.get(mode)
        if table is None:
            table = self._principals[mode] = principal_table(
                self.ring, self.side, mode)
        return table

    def principal(self, f: int, mode: str | None = None) -> int:
        """The principal ideal of element index f as a bitset, read from
        the ring's principal table; the mode defaults to the context's."""
        return self.principals(self.mode if mode is None else mode)[f]

    def join(self, a: int, b: int, mode: str | None = None) -> int:
        """The least ideal holding the members of the bitsets a and b, both
        holding θ; the mode defaults to the context's.  Or-ing in each
        member's multiplicative principal makes b absorb before ``join``,
        so a and b need not be ideals."""
        mode = self.mode if mode is None else mode
        mult = self.principals(MULTIPLICATIVE)
        for x in members(a | b):
            b |= mult[x]
        return join(self.ring, a, b, self.side, mode)

    @cached_property
    def b_values(self) -> list:
        """All of Y on tiny carriers, just 0 otherwise."""
        if self.algebra.carrier_size <= 4:
            return list(self.algebra.elements)
        return [self.algebra.zero]

    @cached_property
    def fn_families(self) -> list:
        """Families J as bitsets: {θ}, the ring, four seeded samples."""
        n = len(self.ring.elements)
        rng = random.Random(self.seed * 7919 + 11)
        fams = [1 << self.theta, self.whole]
        for _ in range(4):
            k = rng.randint(1, min(4, n))
            fams.append(bitset(rng.sample(range(n), k)))
        return fams

    @cached_property
    def vanishing_grid(self) -> list:
        """I(U, b) per U of ``point_sets`` (rows) and b of ``b_values``."""
        return [[self.vanishing(u, b) for b in self.b_values]
                for u in self.point_sets]

    @cached_property
    def point_sets(self) -> list:
        """The space, each point and four seeded samples, without repeats."""
        pts = list(self.space.points)
        rng = random.Random(self.seed * 104729 + 3)
        out = [frozenset(pts)] + [frozenset({p}) for p in pts]
        for _ in range(4):
            k = rng.randint(1, len(pts))
            out.append(frozenset(rng.sample(pts, k)))
        return list(dict.fromkeys(out))
