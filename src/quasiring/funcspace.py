"""Rings of continuous functions C(Z, Y) over an explicit finite space.

With Y discrete, a function is continuous iff it is constant on every
quasi-component of Z, and on a finite space every quasi-component is clopen,
so the continuous functions are exactly the value assignments per
quasi-component, written as tuples of Y-indices in the class order of the
quotient.  Value tuples are what ``elements``, witnesses and
``Ideal.elements`` hand out.

The engine computes on element indices: index i is ``elements[i]``, read
as a mixed-radix number over Y with class 0 the most significant digit, so
index order is tuple order, and a set of elements is an int bitset.  No
value tuple is stored up front: ``elements`` decodes index i when it is
read (and keeps what it decoded, see below), and the zero set V(f) of
every element is a class mask from ``zero_classes``, built digit by digit.  Each of the
ring's Cayley tables (Froidure & Pin, "Algorithms for computing finite
semigroups", 1997) is the q-fold Kronecker expansion of Y's table: on the
first read of an operation its whole table is built in one pass, one class
at a time.

C(Z, Y) is Y^q, q the number of quasi-components, so all of this depends
on Y and q alone.  It lives on a ``Core``, which every ring over the same
(Y, q) shares: the elements, and ``kept``, the one store of what is derived
from them, keyed by what it is (a Cayley table, a single row, the zero-class
and χ tables and the decoded value tuples here; principal tables, the
lattice pass, an exception of the pass, the product lattice and the
zero-mask indicator in other modules).
Everything goes in through ``FunctionRing.keep`` (the decoded tuples, one
dict that grows, through ``Elements.take``), which charges each value to
``CORES``: it keeps the cores of the last ``CORE_CACHE_SIZE`` pairs, and
all they keep within ``ROW_CACHE_ENTRIES``; a value refused there is handed
out unkept.  The space, the classes and the points of each class stay on
the ring.
"""

from __future__ import annotations

import itertools
import operator
from array import array
from collections import OrderedDict
from collections.abc import Sequence

from .algebra import AlgebraTable
from .errors import (
    BudgetExceeded,
    InfiniteBackend,
    MissingAddition,
    MissingUnit,
    NotClopen,
    ZeroValue,
)
from .topology import (
    DEFAULT_ENUM_BUDGET,
    ExplicitSpace,
    SequenceSpace,
    Space,
    quasi_component_partition,
)

#: what all cached cores keep holds at most this many entries (16 MB as
#: 32-bit indices; a bitset counts one entry per 32 bits), and so does what
#: any one core keeps; a value that does not fit is rebuilt on each read
ROW_CACHE_ENTRIES = 2 ** 22

#: ``CORES`` keeps the cores of at most this many (Y, q) pairs
CORE_CACHE_SIZE = 64

#: up to this many classes a zero-class mask fits a byte
BYTE_MASK_CLASSES = 8

#: per class c, the byte table that sets bit c of a class mask
OR_BIT = tuple(bytes(v | 1 << c for v in range(256))
               for c in range(BYTE_MASK_CLASSES))

FnElement = tuple  # Y-index per quasi-component, in class order


class Elements(Sequence):
    """Y^q in index order, read-only: iteration runs ``itertools.product``,
    and ``[i]`` decodes index i by mixed radix (class 0 the most significant
    digit); ``take`` decodes many indices in one call.  Decoded tuples are
    kept on the core under "decoded", a dict from index to tuple, charged
    one entry per digit as it grows; a call whose new tuples the cap
    refuses hands them out unkept."""

    def __init__(self, core: Core):
        algebra, q = core.key
        self._core = core
        self._m = algebra.carrier_size
        self._q = q
        self._len = algebra.carrier_size ** q

    def __len__(self):
        return self._len

    def __iter__(self):
        return itertools.product(range(self._m), repeat=self._q)

    def __contains__(self, f) -> bool:
        return (isinstance(f, tuple) and len(f) == self._q
                and all(d in range(self._m) for d in f))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self.take(range(*i.indices(self._len))))
        i = operator.index(i)
        return self.take((i + self._len if i < 0 else i,))[0]

    def take(self, indices) -> list:
        """``[self[i] for i in indices]`` in one call, through the same memo;
        an index outside range(len(self)) raises IndexError."""
        kept, n = self._core.kept, self._len
        memo, new = kept.get("decoded", {}), {}
        out = []
        for i in indices:
            f = memo.get(i)
            if f is None:
                if not 0 <= i < n:
                    raise IndexError("ring element index out of range")
                f = new[i] = self._decode(i)
            out.append(f)
        if new and CORES.admit(self._core, len(new) * self._q):
            kept.setdefault("decoded", memo).update(new)
        return out

    def _decode(self, i: int) -> FnElement:
        digits = []
        for _ in range(self._q):
            i, d = divmod(i, self._m)
            digits.append(d)
        return tuple(digits[::-1])


class Core:
    """Y^q for one table algebra Y and q quasi-components: what every ring
    over the same (Y, q) shares.  ``FunctionRing`` fills it on demand."""

    def __init__(self, algebra: AlgebraTable, q: int):
        self.key = (algebra, q)
        self.kept = {}              # what is derived -> its value
        self.entries = 0            # the entries charged for ``kept``
        self.cached = True          # still in ``CORES``
        self.elements = Elements(self)


class CoreCache:
    """The cores of the last ``CORE_CACHE_SIZE`` (Y, q) pairs, least
    recently used first, with the entries they keep in all."""

    def __init__(self):
        self.cores = OrderedDict()
        self.entries = 0

    def get(self, algebra: AlgebraTable, q: int) -> Core:
        """The core of (algebra, q), made and cached on its first request;
        past ``CORE_CACHE_SIZE`` the least recently used core is dropped."""
        key = (algebra, q)
        core = self.cores.get(key)
        if core is None:
            core = self.cores[key] = Core(algebra, q)
            if len(self.cores) > CORE_CACHE_SIZE:
                self._drop(next(iter(self.cores)))
        else:
            self.cores.move_to_end(key)
        return core

    def admit(self, core: Core, k: int) -> bool:
        """Whether core may keep k more entries, charging them if so.  They
        must fit ``ROW_CACHE_ENTRIES`` with what core holds; for a cached
        core, the least recently used other cores that hold entries are
        dropped until they fit with what every cached core holds.  A
        dropped core is charged alone: it lives on only in the rings that
        still hold it."""
        if core.entries + k > ROW_CACHE_ENTRIES:
            return False
        if core.cached:
            self.cores.move_to_end(core.key)
            if self.entries + k > ROW_CACHE_ENTRIES:
                for key in [c.key for c in self.cores.values() if c.entries]:
                    if self.entries + k <= ROW_CACHE_ENTRIES:
                        break
                    self._drop(key)
            self.entries += k
        core.entries += k
        return True

    def _drop(self, key):
        core = self.cores.pop(key)
        core.cached = False
        self.entries -= core.entries


CORES = CoreCache()


class FunctionRing:
    """C(Z, Y) for an explicit space Z and a table algebra Y."""

    def __init__(self, space: ExplicitSpace, algebra: AlgebraTable,
                 budget: int = DEFAULT_ENUM_BUDGET):
        if isinstance(space, SequenceSpace):
            raise InfiniteBackend(
                "the sequence backend is symbolic; see quasiring.sequence")
        self.space = space
        self.algebra = algebra
        self.classes = quasi_component_partition(space)
        self.class_of = {}
        for i, c in enumerate(self.classes):
            for p in c:
                self.class_of[p] = i
        count = algebra.carrier_size ** len(self.classes)
        if count > budget:
            raise BudgetExceeded(
                f"{count} functions exceed the enumeration budget {budget}",
                cap=budget, reached=count)
        self._core = CORES.get(algebra, len(self.classes))
        self.elements = self._core.elements
        self.theta: FnElement = (algebra.zero,) * len(self.classes)
        self.identity: FnElement | None = (
            (algebra.unit,) * len(self.classes) if algebra.unit is not None else None)

    def keep(self, key, build, *args, entries=len):
        """The value the core keeps under key; on a miss, ``build(*args)``,
        kept when ``CORES`` admits its ``entries(value)`` entries and handed
        out either way.  Every ring over the same (Y, q) reads what one of
        them kept, so key names what is derived, not who asked."""
        kept = self._core.kept
        value = kept.get(key)
        if value is None:
            value = build(*args)
            if CORES.admit(self._core, entries(value)):
                kept[key] = value
        return value

    def kept(self, key):
        """The value the core keeps under key, or None."""
        return self._core.kept.get(key)

    # -- element indices and Cayley tables ----------------------------------

    def index(self, f: FnElement) -> int:
        """The position of f in ``elements``; KeyError if f is not in it."""
        m = self.algebra.carrier_size
        if len(f) != len(self.classes):
            raise KeyError(f)
        i = 0
        for d in f:
            if not 0 <= d < m:
                raise KeyError(f)
            i = i * m + d
        return i

    def row(self, op: str, i: int) -> array:
        """Element i combined with every element j, as indices in j order.

        op is "mul" for i·j, "mul_t" for j·i, "add" for i+j, "add_t" for
        j+i.  The first read of op keeps op's whole table under op when
        ``CORES`` admits its n² entries, asked before the table is built;
        otherwise the read builds row i alone and keeps it under (op, i).
        """
        kept = self._core.kept
        table = kept.get(op)
        if table is not None:
            return table[i]
        row = kept.get((op, i))
        if row is not None:
            return row
        y_rows = self._y_table(op)
        n = len(self.elements)
        if CORES.admit(self._core, n * n):
            table = kept[op] = self._table(y_rows)
            return table[i]
        return self.keep((op, i), self._row, y_rows, i)

    def _table(self, y_rows) -> list:
        """Every row of the operation whose rows on Y are `y_rows`, built
        level by level: the row of prefix p·m + d at one class more is
        [a·m + b for a in row_p for b in y_row_d].  Each level is a
        generator over the one before, so a row of a level is used for all
        m of its extensions and then dropped; only the last level is kept,
        as arrays."""
        m = self.algebra.carrier_size
        rows = iter(([0],))
        for _ in self.classes:
            rows = ([a * m + b for a in row for b in y_row]
                    for row in rows for y_row in y_rows)
        return [array("I", row) for row in rows]

    def _row(self, y_rows, i: int) -> array:
        """Row i alone, digit by digit: one class more turns a row r into
        [a·m + b for a in r for b in y_row]."""
        m = self.algebra.carrier_size
        row = [0]
        for d in self.elements._decode(i):   # the memo would charge the cap too
            y_row = y_rows[d]
            row = [a * m + b for a in row for b in y_row]
        return array("I", row)

    def value_bits(self, c: int, b: int) -> int:
        """The elements equal to b on class c, as a bitset.

        Class c's digit has weight s = m^(q-1-c), so these indices are runs
        of s bits starting at b·s, repeated with period m·s.
        """
        m = self.algebra.carrier_size
        s = m ** (len(self.classes) - 1 - c)
        period = m * s
        repeat = ((1 << len(self.elements)) - 1) // ((1 << period) - 1)
        return (((1 << s) - 1) << (b * s)) * repeat

    def zero_classes(self) -> bytes | list:
        """Per element index, the class mask of its zero set V(f) (bit c
        for ``classes[c]``): bytes when every mask fits a byte (at most
        ``BYTE_MASK_CLASSES`` classes), a list otherwise.  Built from the
        least significant class up: class c turns the masks over the
        classes after it into one copy of them per Y value, in value
        order, with bit c set in the zero's copy (a ``bytes.translate``
        through ``OR_BIT[c]`` for bytes).  Kept, one entry per element."""
        return self.keep("zero_classes", self._zero_classes)

    def _zero_classes(self) -> bytes | list:
        z, m = self.algebra.zero, self.algebra.carrier_size
        q = len(self.classes)
        masks = b"\0" if q <= BYTE_MASK_CLASSES else [0]
        for c in reversed(range(q)):
            if q <= BYTE_MASK_CLASSES:
                marked = masks.translate(OR_BIT[c])
            else:
                marked = list(map((1 << c).__or__, masks))
            masks = masks * z + marked + masks * (m - 1 - z)
        return masks

    def _y_table(self, op: str) -> tuple:
        y = self.algebra
        table = y.add if op.startswith("add") else y.mul
        if table is None:
            raise MissingAddition("algebra has no addition table")
        return tuple(zip(*table)) if op.endswith("_t") else table

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    # -- geometry -----------------------------------------------------------

    def zero_set(self, f: FnElement, value: int | None = None) -> frozenset:
        """f^{-1}(b) as a set of raw points; b defaults to the algebra zero."""
        b = self.algebra.zero if value is None else value
        return frozenset(p for p in self.space.points
                         if f[self.class_of[p]] == b)

    def _off_value(self, a: int | None) -> int:
        """The off-value of a χ_U: a, or the unit when a is None."""
        if a is None:
            if self.algebra.unit is None:
                raise MissingUnit("default off-value needs a unit")
            a = self.algebra.unit
        if a == self.algebra.zero:
            raise ZeroValue("off-value 0 would collapse to the zero function")
        return a

    def chi(self, u, a: int | None = None) -> FnElement:
        """Characteristic function: zero on the clopen set u, value a off it."""
        u = frozenset(u)
        if not self.space.is_clopen(u):
            raise NotClopen(f"{sorted(u)} is not clopen")
        a = self._off_value(a)
        z = self.algebra.zero
        return tuple(z if c <= u else a for c in self.classes)

    def chi_table(self, a: int | None = None) -> tuple:
        """Per class mask c (bit j for ``classes[j]``), the index of χ_U
        with off-value a, U the union of c's classes; kept per a, one entry
        per mask.  Class j doubles the table: the masks without bit j
        (digit a), then with it (digit 0)."""
        a = self._off_value(a)
        return self.keep(("chi", a), self._chi_table, a)

    def _chi_table(self, a: int) -> tuple:
        m, z = self.algebra.carrier_size, self.algebra.zero
        q = len(self.classes)
        table = [0]
        for j in range(q):
            w = m ** (q - 1 - j)
            table = [x + a * w for x in table] + [x + z * w for x in table]
        return tuple(table)

    def __repr__(self):
        return (f"FunctionRing({self.space.point_count}pt space, "
                f"{self.algebra!r}, {len(self.elements)} elements)")


def vanishing_elements(ring: FunctionRing, u, value: int | None = None) -> int:
    """All functions equal to b on the points u, as a bitset: the AND over
    the classes meeting u of the elements equal to b there."""
    b = ring.algebra.zero if value is None else value
    out = (1 << len(ring.elements)) - 1
    for c in {ring.class_of[p] for p in u}:
        out &= ring.value_bits(c, b)
    return out

