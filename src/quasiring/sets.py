"""Set representations for the two space backends.

Explicit spaces use plain frozensets of small ints (O(1) membership, cheap
hashing) and int bitmasks, ordered by ``mask_key``.  The convergent-sequence
space needs sets over the infinite carrier N ∪ {∞}; those are restricted to
the finite/cofinite algebra, which is closed under complement, union and
intersection and contains every set the sequence backend ever produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


class _Infinity:
    """Sentinel for the limit point of the sequence space."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()


#: byte k with its eight bits reversed, as a ``bytes.translate`` table
_REVERSED_BYTES = bytes(int(f"{k:08b}"[::-1], 2) for k in range(256))


def mask_key(n: int):
    """The one order on bitsets over n bits (element bitsets, point masks):
    by size, then by the ascending member list.  Of two member lists of one
    size, the one holding the least bit where they differ comes first, so
    the tie break is the bitset's n-bit reversal rev, negated.  The key is
    the int (size << n) | (2^n − 1 − rev).  rev is taken whole-bytes-wide
    and shifted down: the little-endian bytes of b, each byte's bits
    reversed through a table and read big-endian, are b's 8·⌈n/8⌉-bit
    reversal."""
    width = (n + 7) // 8
    shift, low = 8 * width - n, (1 << n) - 1

    def key(b: int) -> int:
        rev = int.from_bytes(b.to_bytes(width, "little")
                             .translate(_REVERSED_BYTES), "big") >> shift
        return (b.bit_count() << n) | (low - rev)
    return key


@dataclass(frozen=True)
class SeqSet:
    """A subset of N ∪ {∞} in the finite/cofinite algebra.

    ``finite`` lists points of N; with ``cofinal`` set the N-part is the
    complement of ``finite`` instead.  ``infinity`` records whether ∞ belongs
    to the set.  All four combinations are meaningful, e.g. {∞} is
    ``SeqSet(frozenset(), False, True)``.
    """

    finite: frozenset
    cofinal: bool = False
    infinity: bool = False

    @staticmethod
    def of(points: Iterable[int], infinity: bool = False) -> "SeqSet":
        return SeqSet(frozenset(points), False, infinity)

    @staticmethod
    def cofinite(excluded: Iterable[int], infinity: bool = True) -> "SeqSet":
        return SeqSet(frozenset(excluded), True, infinity)

    @staticmethod
    def empty() -> "SeqSet":
        return SeqSet(frozenset())

    @staticmethod
    def full() -> "SeqSet":
        return SeqSet(frozenset(), True, True)

    def contains(self, point) -> bool:
        if point is INF:
            return self.infinity
        in_finite = point in self.finite
        return not in_finite if self.cofinal else in_finite

    def complement(self) -> "SeqSet":
        return SeqSet(self.finite, not self.cofinal, not self.infinity)

    def union(self, other: "SeqSet") -> "SeqSet":
        a, b = self, other
        if a.cofinal and b.cofinal:
            nat = SeqSet(a.finite & b.finite, True)
        elif a.cofinal:
            nat = SeqSet(a.finite - b.finite, True)
        elif b.cofinal:
            nat = SeqSet(b.finite - a.finite, True)
        else:
            nat = SeqSet(a.finite | b.finite, False)
        return SeqSet(nat.finite, nat.cofinal, a.infinity or b.infinity)

    def intersection(self, other: "SeqSet") -> "SeqSet":
        return self.complement().union(other.complement()).complement()

    def __repr__(self):
        nat = "N\\" + repr(set(self.finite) or {}) if self.cofinal else repr(set(self.finite) or {})
        return f"SeqSet({nat}{' + inf' if self.infinity else ''})"
