"""Finite algebraic structures given by operation tables.

A carrier {0..m-1} with a multiplication table, a distinguished null element
absorbing on both sides, an optional unit acting on a chosen side, and an
optional addition table with the null element as identity.  The carrier
always wears the discrete topology: a finite totally separated space has no
other choice.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .errors import BadTable

TWO_SIDED = "two-sided"
LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class StructureFlags:
    associative: bool
    commutative: bool
    additive_associative: bool
    additive_commutative: bool
    left_distributive: bool         # a·(b+c) = a·b + a·c
    right_distributive: bool        # (b+c)·a = b·a + c·a
    distributive: bool              # both
    has_unit: bool
    char_two: bool
    zero_divisor_free: bool


@dataclass(frozen=True)
class AlgebraTable:
    carrier_size: int
    mul: tuple                      # m x m tuple of tuples
    zero: int = 0
    unit: int | None = None
    unit_side: str = TWO_SIDED
    add: tuple | None = None
    name: str = ""

    def __post_init__(self):
        m = self.carrier_size
        if m < 2:
            raise BadTable("carrier must have at least two elements")
        _check_table(self.mul, m, "mul")
        if self.add is not None:
            _check_table(self.add, m, "add")
        z = self.zero
        if any(self.mul[z][a] != z for a in range(m)):
            raise BadTable("declared zero is not left-absorbing")
        if any(self.mul[a][z] != z for a in range(m)):
            raise BadTable("declared zero is not right-absorbing")
        if self.unit_side not in (TWO_SIDED, LEFT, RIGHT):
            raise BadTable(f"unknown unit side {self.unit_side!r}")
        if self.unit is not None:
            e = self.unit
            if e == z:
                raise BadTable("declared unit is the zero element")
            if self.unit_side in (LEFT, TWO_SIDED):
                if any(self.mul[e][a] != a for a in range(m)):
                    raise BadTable("declared unit fails its left law")
            if self.unit_side in (RIGHT, TWO_SIDED):
                if any(self.mul[a][e] != a for a in range(m)):
                    raise BadTable("declared unit fails its right law")
        if self.add is not None:
            if any(self.add[z][a] != a or self.add[a][z] != a for a in range(m)):
                raise BadTable("additive identity must be the zero element")

    @property
    def elements(self) -> range:
        return range(self.carrier_size)

    def times(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def __repr__(self):
        tag = self.name or f"table{self.carrier_size}"
        return f"AlgebraTable({tag})"


def _check_table(table, m, what):
    if len(table) != m or any(len(row) != m for row in table):
        raise BadTable(f"{what} table must be {m}x{m}")
    for row in table:
        for v in row:
            if not (0 <= v < m):
                raise BadTable(f"{what} table entry {v} out of range")


def make_table(mul, zero=0, unit=None, unit_side=TWO_SIDED, add=None,
               name="") -> AlgebraTable:
    mul = tuple(tuple(row) for row in mul)
    add = tuple(tuple(row) for row in add) if add is not None else None
    return AlgebraTable(len(mul), mul, zero, unit, unit_side, add, name)


def make_zmod(n: int) -> AlgebraTable:
    """Integers mod n with both operations."""
    if n < 2:
        raise ValueError("n must be >= 2")
    mul = tuple(tuple((a * b) % n for b in range(n)) for a in range(n))
    add = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return AlgebraTable(n, mul, zero=0, unit=1, add=add, name=f"zmod{n}")


def zero_divisors(y: AlgebraTable) -> list[tuple[int, int]]:
    """All pairs (a, b), both nonzero, with a·b = 0; sorted."""
    z = y.zero
    return sorted((a, b)
                  for a in y.elements if a != z
                  for b in y.elements if b != z and y.times(a, b) == z)


def associativity_witness(y: AlgebraTable, table=None):
    table = table if table is not None else y.mul
    for a, b, c in itertools.product(range(y.carrier_size), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return (a, b, c)
    return None


def commutativity_witness(y: AlgebraTable, table=None):
    table = table if table is not None else y.mul
    for a, b in itertools.combinations(range(y.carrier_size), 2):
        if table[a][b] != table[b][a]:
            return (a, b)
    return None


@functools.lru_cache(maxsize=64)
def structure_flags(y: AlgebraTable) -> StructureFlags:
    """Re-derive every hypothesis flag by exhaustive table scan; kept for
    the last 64 distinct tables (a table is immutable)."""
    m, mul, add = y.carrier_size, y.mul, y.add
    triples = list(itertools.product(range(m), repeat=3))
    left = add is not None and all(
        mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]] for a, b, c in triples)
    right = add is not None and all(
        mul[add[b][c]][a] == add[mul[b][a]][mul[c][a]] for a, b, c in triples)
    char_two = (y.add is not None and y.unit is not None
                and y.add[y.unit][y.unit] == y.zero)
    return StructureFlags(
        associative=associativity_witness(y) is None,
        commutative=commutativity_witness(y) is None,
        additive_associative=(y.add is not None
                              and associativity_witness(y, y.add) is None),
        additive_commutative=(y.add is not None
                              and commutativity_witness(y, y.add) is None),
        left_distributive=left,
        right_distributive=right,
        distributive=left and right,
        has_unit=y.unit is not None,
        char_two=char_two,
        zero_divisor_free=not zero_divisors(y),
    )

