"""The zero-set topology of a function ring.

Closed sets are the common vanishing loci V(S).  With the value algebra free
of zero divisors every V(f) is clopen and the family is a genuine topology;
with zero divisors present the construction is refused, carrying the witness
pair that breaks it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import zero_divisors
from .errors import ZeroDivisorHypothesis
from .funcspace import FunctionRing
from .sets import sort_family
from .topology import (
    ExplicitSpace,
    clopen_base_topology,
    compare_topologies,
    mask_of,
    points_of,
    validate_topology,
)

MATERIALIZE_CAP = 2 ** 16


@dataclass(frozen=True)
class ZariskiTopology:
    space: object
    closed_family: tuple | None        # sorted; None past the closure cap
    union_closed: bool
    union_witness: tuple | None = None

    def as_space(self) -> ExplicitSpace:
        """TZ as a space: its opens are the complements of the closed sets."""
        if self.closed_family is None:
            raise ValueError("family not materialized")
        full = self.space.full
        return validate_topology(self.space.point_count,
                                 [full - c for c in self.closed_family],
                                 auto_close=True)


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


def zariski_closed_family(ring: FunctionRing) -> ZariskiTopology:
    """All intersections of the single-function zero sets V(f).

    V(f) is read off each element of the ring: its class mask in
    ``ring.zero_classes()``, the classes where f's value is zero.  Every
    element's mask is read, and each distinct one becomes a point set once.
    Union closure is checked and reported (it holds under the zero-divisor
    hypothesis: V(f) ∪ V(g) = V(f·g)).
    """
    _require_no_zero_divisors(ring)
    space = ring.space
    full = (1 << space.point_count) - 1
    class_masks = [mask_of(c) for c in ring.classes]
    # each distinct class mask of a V(f) is one V(f)
    patterns = set(ring.zero_classes())
    basic = {sum(m for c, m in enumerate(class_masks) if p >> c & 1)
             for p in patterns}
    basic.add(full)  # V of the empty set
    # the cap counts only once the closure adds sets beyond the V(f)
    closed = _meet_closure(basic, max(MATERIALIZE_CAP, len(basic)))
    if closed is None:
        return ZariskiTopology(space, None, True)
    witness = _union_gap(closed)
    return ZariskiTopology(space, tuple(sort_family(map(points_of, closed))),
                           witness is None, witness)


def compare_T1_TZ_T(ring: FunctionRing):
    """(T1 vs TZ, TZ vs T, T1 vs T) for ring = C((Z,T), Y)."""
    _require_no_zero_divisors(ring)
    space = ring.space
    t1 = clopen_base_topology(space)
    tz = zariski_closed_family(ring).as_space()
    return (compare_topologies(t1, tz),
            compare_topologies(tz, space),
            compare_topologies(t1, space))
