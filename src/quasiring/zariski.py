"""The zero-set topology of a function ring.

Closed sets are the common vanishing loci V(S).  With the value algebra free
of zero divisors every V(f) is clopen and the family is a genuine topology;
with zero divisors present the construction is refused, carrying the witness
pair that breaks it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat

from .algebra import zero_divisors
from .errors import ZeroDivisorHypothesis
from .funcspace import FunctionRing
from .sets import mask_key
from .topology import (
    ExplicitSpace,
    clopen_base_topology,
    compare_topologies,
    mask_of,
    points_of,
)

MATERIALIZE_CAP = 2 ** 16

#: every byte value once, in order
ALL_BYTES = bytes(range(256))

#: the byte table that turns flag bytes 0 and 1 into the digits "0" and "1"
FLAG_DIGITS = b"01" + bytes(254)


@dataclass(frozen=True)
class ZariskiTopology:
    space: object
    closed_family: tuple | None        # sorted; None past the closure cap
    union_closed: bool
    union_witness: tuple | None = None


def _require_no_zero_divisors(ring: FunctionRing):
    bad = zero_divisors(ring.algebra)
    if bad:
        raise ZeroDivisorHypothesis(
            "zero-set topology needs a zero-divisor-free value algebra; "
            f"witness {bad[0][0]}·{bad[0][1]} = 0", witness=bad[0])


def _meet_closure(basic, cap: int):
    """The ∩-closure of a family holding the full set; None past cap sets.

    Sets are added largest first, and a set already in the closure adds
    nothing: the closure so far is ∩-closed, so it holds every c & b.
    """
    closed = set()
    for b in sorted(basic, key=int.bit_count, reverse=True):
        if b not in closed:
            closed |= {c & b for c in closed}
            closed.add(b)
            if len(closed) > cap:
                return None
    return closed


def _union_gap(family) -> tuple | None:
    """Two members whose union is not a member, or None if there are none.

    Builds the ∪-closure smallest set first, the dual of ``_meet_closure``;
    every union it forms from two members must be a member itself.
    """
    closure = set()
    for b in sorted(family, key=int.bit_count):
        if b not in closure:
            for c in closure:
                if c | b not in family:
                    return points_of(c), points_of(b)
            closure |= {c | b for c in closure}
            closure.add(b)
    return None


def _distinct_masks(zero_classes):
    """The distinct class masks of a ``FunctionRing.zero_classes()``.

    Bytes are read in C: deleting the masks present from all 256 byte
    values leaves those absent, and deleting those leaves the present
    ones.  A list is read through ``set``.
    """
    if isinstance(zero_classes, bytes):
        return ALL_BYTES.translate(None, ALL_BYTES.translate(None, zero_classes))
    return set(zero_classes)


def _zero_set_masks(ring: FunctionRing) -> set:
    """The point mask of each distinct single-function zero set V(f).

    V(f) is read off each element of the ring: its class mask in
    ``ring.zero_classes()``, the classes where f's value is zero.  Every
    element's mask is read, by ``_distinct_masks``, so a ring missing
    elements shows in TZ.  A distinct class mask p becomes a point mask
    through a table over all 2^q class masks, built by doubling: entry p
    holds the points of the classes whose bits p sets, so class c appends
    each entry below 2^c with c's points or-ed in.
    """
    points = [0]
    for c in ring.classes:
        m = mask_of(c)
        points += [p | m for p in points]
    return {points[p] for p in _distinct_masks(ring.zero_classes())}


def zariski_closed_family(ring: FunctionRing) -> ZariskiTopology:
    """All intersections of the single-function zero sets V(f), in
    ``mask_key`` order.

    Union closure is checked and reported (it holds under the zero-divisor
    hypothesis: V(f) ∪ V(g) = V(f·g)).
    """
    _require_no_zero_divisors(ring)
    space = ring.space
    basic = _zero_set_masks(ring)
    basic.add((1 << space.point_count) - 1)  # V of the empty set
    # the cap counts only once the closure adds sets beyond the V(f)
    closed = _meet_closure(basic, max(MATERIALIZE_CAP, len(basic)))
    if closed is None:
        return ZariskiTopology(space, None, True)
    witness = _union_gap(closed)
    order = sorted(closed, key=mask_key(space.point_count))
    return ZariskiTopology(space, tuple(map(points_of, order)),
                           witness is None, witness)


def _indicator(zero_classes, q: int) -> int:
    """The 2^q-bit set with bit v for each class mask v in zero_classes.

    One flag per mask v < 2^q says whether v is present; the flags, last
    first, are the base-2 digits of the set.  A byte table flags its masks
    in C: one translate of the byte values below 2^q, through the table
    that sends the distinct masks to "1" and the rest to "0".  A list sets
    a flag byte per element, or per distinct mask when it holds more than
    the 2^q masks, since its set then drops repeats.
    """
    if isinstance(zero_classes, bytes):
        present = _distinct_masks(zero_classes)
        absent = ALL_BYTES.translate(None, present)
        flags = ALL_BYTES[:1 << q]
        digits = bytes.maketrans(present + absent, b"1" * len(present)
                                 + b"0" * len(absent))
    else:
        if len(zero_classes) > 1 << q:
            zero_classes = _distinct_masks(zero_classes)
        flags = bytearray(1 << q)
        deque(map(flags.__setitem__, zero_classes, repeat(1)), 0)
        digits = FLAG_DIGITS
    return int(flags[::-1].translate(digits), 2)


def _present(ring: FunctionRing, q: int) -> int:
    """The indicator of ``ring.zero_classes()``, kept on the core under
    "zero_indicator" (one entry per 32 bits) when that table is the one the
    core keeps, so every ring over the same (Y, q) builds it once.  It is
    read back only while ``zero_classes()`` returns that very table: a
    table refused by the cap, or one patched on a single ring, is read
    afresh, and the kept value holds no table."""
    table = ring.zero_classes()
    if ring.kept("zero_classes") is not table:
        return _indicator(table, q)
    return ring.keep("zero_indicator", _indicator, table, q,
                     entries=lambda bits: -(-bits.bit_length() // 32))


def _holding(d: int, q: int) -> int:
    """The class masks over q classes that hold class d, as a 2^q-bit
    set: runs of 2^d ones after 2^d zeros, doubled up to 2^q bits."""
    run = 1 << d
    pattern, width = ((1 << run) - 1) << run, 2 * run
    while width < 1 << q:
        pattern |= pattern << width
        width *= 2
    return pattern


def zero_set_space(ring: FunctionRing) -> ExplicitSpace:
    """TZ as its minimal neighbourhoods: U_x = Z − ∪{V(f) : x ∉ V(f)}.

    The closed sets of TZ are the intersections of the V(f), and U_x, the
    least open set holding x, is Z minus the union of the closed sets that
    miss x.  A closed set ∩ V(f_i) missing x lies in some V(f_i) missing
    x, so that union is the union of the V(f) missing x, and no
    intersection is formed.

    Each V(f) is a union of classes, so U_x depends only on x's class c:
    it loses class d when some V(f) holds d and misses c.  With the class
    masks the elements realise marked in one 2^q-bit set, that is one AND
    against the masks holding d and missing c, for each pair (c, d).
    """
    _require_no_zero_divisors(ring)
    n, q = ring.space.point_count, len(ring.classes)
    full = (1 << n) - 1
    present = _present(ring, q)
    holding = [_holding(d, q) for d in range(q)]
    class_points = list(map(mask_of, ring.classes))
    nbhds_by_class = []
    for c in range(q):
        missing_c = present & ~holding[c]
        away = 0
        for d in range(q):
            if missing_c & holding[d]:
                away |= class_points[d]
        nbhds_by_class.append(full & ~away)
    return ExplicitSpace(n, tuple(nbhds_by_class[ring.class_of[x]]
                                  for x in range(n)))


def compare_T1_TZ_T(ring: FunctionRing):
    """(T1 vs TZ, TZ vs T, T1 vs T) for ring = C((Z,T), Y)."""
    space = ring.space
    t1 = clopen_base_topology(space)
    tz = zero_set_space(ring)
    return (compare_topologies(t1, tz),
            compare_topologies(tz, space),
            compare_topologies(t1, space))
