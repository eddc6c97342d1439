"""Ideals of a finite function ring.

An ideal here is the multiplicative notion: a subset containing the zero
function, closed under the ring's multiplication, and absorbing on a declared
side; "ring" mode additionally closes under addition.  Primality, the full
ideal lattice (join-closure over principal ideals, or in ring mode the
products of Y's ideals over the quasi-components, cross-checked against a
subset-scan oracle on small rings), classification, the prime radical, and
the characteristic-function families all live here.

The work runs on element indices and Python-int bitsets (bit i is
``ring.elements[i]``), through the ring's Cayley-table rows
(``FunctionRing.row``).  One table per (side, mode) holds every principal
ideal; its multiplicative entries are read off Y's step relations, with
no ring row read, since C(Z, Y) is Y^q with componentwise operations.
The lattice is one pass of joins over the distinct principal bitsets:
ring-mode joins are sumsets where Y's addition is commutative and
associative and distributes on the side, additive spans where it is not
commutative, and worklist closures elsewhere.  The subset-scan oracle
returns bitsets.
``ideal_lattice`` skips the pass in ring mode over q ≥ 2 quasi-components
when Y's declared unit acts on the absorbing side (``splits``):
C(Z, Y) is then Y^q and every ideal a product of ideals of Y, so the
lattice is Y's lattice to the power q, built by shifting bitsets.  The
checkers and the prescribed-ring generator call ``enumerated_lattice``,
the pass itself, since several of them state that product theorem.
A lattice also holds its columns, the bitset over lattice positions of
the ideals holding each element; primality and U_I are read off them for
every ideal at once, and the min/max tests are bit tests.  An ``Ideal``
holds its bitset; value tuples are decoded from the ring only when
``Ideal.elements`` or a witness reads them.

A lattice depends on Y, q, the side, the mode and the budget alone, so
this module keeps each one on the ring's Y^q core (``FunctionRing.keep``),
one entry per 32 bits of its ideals: the pass under ("lattice", side,
mode, budget), an incomplete lattice too and a ``BudgetExceeded`` of the
pass as itself at no charge, raised again on every later call; the
product lattice under ("products", side), which only ``ideal_lattice``
reads.  Every build runs its cross-check before it is kept, and a lattice
the cap refuses is built and checked again on the next call.  A lattice
is classified once (``classify_primes`` returns a classified lattice as
it is) and holds its families (``family_sets`` reads
``IdealLattice.families``), so whoever reads a kept lattice reads one
classification and one ``FamilySets``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from operator import and_, or_

from .errors import (
    BudgetExceeded,
    CrossCheckFailed,
    IncompleteLattice,
    MissingAddition,
    MissingUnit,
    NotProper,
)
from .algebra import structure_flags
from .funcspace import FunctionRing, vanishing_elements
from .sets import mask_key
from .topology import discrete_space

RIGHT = "right"
LEFT = "left"
TWO_SIDED = "two-sided"
MULTIPLICATIVE = "multiplicative"
RING = "ring"
FAMILIES_NOTE = "the families are defined through χ_U"


def default_mode(ring: FunctionRing) -> str:
    return RING if ring.algebra.add is not None else MULTIPLICATIVE


@dataclass(frozen=True)
class Ideal:
    ring: FunctionRing = field(compare=False, repr=False)
    bits: int                  # bit i set: ring.elements[i] is a member
    side: str = RIGHT
    mode: str = MULTIPLICATIVE
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    @cached_property
    def elements(self) -> frozenset:
        return elements_of(self.ring, self.bits)

    def __contains__(self, f) -> bool:
        return f in self.elements

    def is_proper(self) -> bool:
        return self.bits != (1 << len(self.ring.elements)) - 1

    def is_trivial(self) -> bool:
        return self.bits == 1 << self.ring.index(self.ring.theta)

    def sorted_elements(self) -> list:
        return self.ring.elements.take(members(self.bits))

    def __le__(self, other: "Ideal") -> bool:
        return self.bits & ~other.bits == 0

    def __lt__(self, other: "Ideal") -> bool:
        return self.bits != other.bits and self <= other

    def __len__(self):
        return self.bits.bit_count()

    def __repr__(self):
        return f"Ideal({len(self)} elts, {self.side}/{self.mode})"


@dataclass
class IdealLattice:
    ring: FunctionRing
    ideals: tuple              # all ideals, in ``mask_key`` order
    side: str
    mode: str
    complete: bool = True
    classified: bool = False

    def find(self, bits: int) -> Ideal | None:
        """The ideal whose bitset is `bits`, or None."""
        return self._by_bits.get(bits)

    @cached_property
    def _by_bits(self) -> dict:
        return {i.bits: i for i in self.ideals}

    @cached_property
    def proper(self) -> tuple:
        """The ideals other than the whole ring."""
        return tuple(i for i in self.ideals if i.is_proper())

    @cached_property
    def held(self) -> list:
        """The lattice's columns: per element index x, the lattice positions
        of the ideals holding x, as a bitset (bit k: ``ideals[k]`` holds x)."""
        return _transpose([i.bits for i in self.ideals],
                          len(self.ring.elements))

    @cached_property
    def families(self) -> "FamilySets":
        """The lattice's families (see ``family_sets``), built on the first
        read."""
        return _family_sets(self)

    def primes(self) -> list[Ideal]:
        classify_primes(self)
        return [i for i in self.ideals if i.meta.get("is_prime")]


def members(bits: int) -> list[int]:
    """The element indices in a bitset, ascending."""
    return [i for i, c in enumerate(reversed(bin(bits))) if c == "1"]


def _transpose(rows: list, width: int) -> list:
    """The columns of a bit matrix: bit j of out[k] is bit k of rows[j], for
    each k < width (every row must fit in width bits).  The rows are written
    as binary numerals of `width` digits, last row first, into one string,
    so the digits of bit k are every width-th character from its offset."""
    fmt = f"0{width}b"
    digits = "".join([format(r, fmt) for r in reversed(rows)])
    return [int(digits[i::width], 2) for i in range(width - 1, -1, -1)]


def bitset(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def elements_of(ring: FunctionRing, bits: int) -> frozenset:
    """The value tuples of the element indices in a bitset."""
    return frozenset(ring.elements.take(members(bits)))


def _absorbing_rows(side: str) -> tuple:
    """Table rows holding everything an ideal member g must absorb: f·g
    for every f on the right side, g·f on the left, both when two-sided."""
    return {RIGHT: ("mul_t",), LEFT: ("mul",),
            TWO_SIDED: ("mul_t", "mul")}[side]


def closure(ring: FunctionRing, seed, side: str, mode: str) -> int:
    """Least ideal containing θ and the seed indices, as a bitset.

    A worklist over element indices: each member adds the row it must
    absorb and, in ring mode, its sums with every member taken before it
    (both orders), so every pair is summed once both are in.  Closure
    under the multiplication itself follows from absorption, which
    quantifies over the whole ring.
    """
    if mode == RING and ring.algebra.add is None:
        raise MissingAddition("ring mode needs an addition table")
    ops = _absorbing_rows(side)
    n = len(ring.elements)
    seen = {ring.index(ring.theta), *seed}
    todo = list(seen)
    done = []
    while todo and len(seen) < n:
        g = todo.pop()
        done.append(g)
        fresh = set()
        for op in ops:
            fresh.update(ring.row(op, g))
        if mode == RING:
            for op in ("add", "add_t"):
                fresh.update(map(ring.row(op, g).__getitem__, done))
        fresh -= seen
        seen |= fresh
        todo.extend(fresh)
    return bitset(seen)


def span_applies(ring: FunctionRing, side: str) -> bool:
    """Whether a ring-mode ideal is the additive span of its
    multiplicative closure: Y's addition is associative and its
    multiplication distributes over it on the side an ideal absorbs (f·g
    on the right needs f·(a+b) = f·a + f·b, the left side the mirror law).
    Then sums of absorbing elements absorb, so the span of an absorbing set
    holding θ is an ideal."""
    flags = structure_flags(ring.algebra)
    distributes = {RIGHT: flags.left_distributive,
                   LEFT: flags.right_distributive,
                   TWO_SIDED: flags.distributive}[side]
    return flags.additive_associative and distributes


#: byte 0 or 1 to the ASCII digit, for turning a 0/1 bytearray into a bitset
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def span(ring: FunctionRing, seeds) -> int:
    """The additive span of θ and the seed indices, as a bitset, for an
    associative addition: everything reached from θ by adding generators on
    the right.  A BFS over ``add_t`` rows; a seed becomes a generator only
    when the span so far lacks it, so the old members need only the new
    generator's row and each new member needs every generator's row."""
    n = len(ring.elements)
    inside = bytearray(n)
    theta = ring.index(ring.theta)
    inside[theta] = 1
    got = [theta]
    rows = []
    for g in seeds:
        if inside[g]:
            continue
        row = ring.row("add_t", g)          # x -> x + g
        rows.append(row)
        todo = []
        for y in map(row.__getitem__, got):
            if not inside[y]:
                inside[y] = 1
                todo.append(y)
        got += todo
        while todo:
            x = todo.pop()
            for r in rows:
                y = r[x]
                if not inside[y]:
                    inside[y] = 1
                    todo.append(y)
                    got.append(y)
        if len(got) == n:
            break
    return int(inside.translate(_DIGITS)[::-1], 2)


#: the principal table holds n bitsets of n bits, and its reach builds n
#: product sets per relation on Y; a ring past this many elements, or a
#: reach past this many relations, is refused
PRINCIPAL_TABLE_CAP = 2 ** 12


def _relations(y, side: str) -> list:
    """Every relation on Y that a nonempty word of steps makes, each a
    tuple over the values v of Y of the bitset over Y that v goes to.

    One step of the absorption graph makes, within each class, the
    relation ρ_R(v) = {x·v : x ∈ Y} for a right ideal, ρ_L(v) = {v·x} for
    a left one, and either for a two-sided one.  The relations are the
    semigroup these generate under composition, listed by composing each
    listed relation with each step relation until no new relation appears;
    the relation of a word r then s takes v to the union of s(u) over u in
    r(v).  Past ``PRINCIPAL_TABLE_CAP`` relations the listing is refused.
    """
    m = y.carrier_size
    right = tuple(bitset(row[v] for row in y.mul) for v in range(m))
    left = tuple(map(bitset, y.mul))
    steps = {RIGHT: (right,), LEFT: (left,), TWO_SIDED: (right, left)}[side]
    found = list(dict.fromkeys(steps))
    seen = set(found)
    for r in found:                     # the list grows as it is walked
        for s in steps:
            t = tuple(reduce(or_, map(s.__getitem__, members(b)), 0)
                      for b in r)
            if t not in seen:
                seen.add(t)
                found.append(t)
                if len(found) > PRINCIPAL_TABLE_CAP:
                    raise BudgetExceeded(
                        f"a {side} reach over {y!r} makes more step "
                        f"relations than the table cap {PRINCIPAL_TABLE_CAP}",
                        cap=PRINCIPAL_TABLE_CAP, reached=len(found))
    return found


def _products(ring: FunctionRing, factors: list) -> list:
    """Every product Π_c S_c of the Y-subsets in `factors` (each a list of
    Y values) over the ring's classes, as bitsets, at the position read as
    a q-digit number over positions in `factors`, class 0 the most
    significant digit.  Built by shift-or from the least significant class:
    a product B over the classes after class c becomes, with c's factor S,
    the or of B << a·m^j over a ∈ S (m = |Y|, j = q − 1 − c)."""
    m = ring.algebra.carrier_size
    products = [1]                      # over no class: the empty product
    weight = 1
    for _ in ring.classes:
        products = [reduce(or_, [b << a * weight for a in j])
                    for j in factors for b in products]
        weight *= m
    return products


def _reach(ring: FunctionRing, side: str) -> list:
    """Per element index g, the bitset of everything reachable from g in
    the absorption graph (g -> each entry of g's absorbing rows), g
    included, read off Y's step relations; no ring row is read.

    One step multiplies every class by its own value of Y on the side, so
    the k-step reach of g is the union, over the words w of k steps, of
    the product sets Π_c ρ_w(g_c).  The classes move in lockstep, one word
    for all of them, so the reach is not the product of the per-class
    reaches.  Each relation of ``_relations`` gives the product set of
    every element at once through ``_products``.
    """
    reach = [1 << g for g in range(len(ring.elements))]
    for rel in _relations(ring.algebra, side):
        reach = list(map(or_, reach, _products(ring, list(map(members, rel)))))
    return reach


def principal_table(ring: FunctionRing, side: str, mode: str) -> tuple:
    """The principal ideal of every element index, as bitsets, built in
    one pass and kept on the ring (one entry per 32 bits: n·⌈n/32⌉).

    A multiplicative principal is the element's reach in the absorption
    graph, θ included, which ``_reach`` reads off Y's step relations for
    every element at once.  Under ``span_applies`` a ring-mode principal
    is the additive span of the multiplicative one (each distinct one
    spanned once); other tables close each element with ``closure``.
    """
    return ring.keep(("principals", side, mode), _principal_table, ring,
                     side, mode, entries=lambda t: len(t) * -(-len(t) // 32))


def _principal_table(ring: FunctionRing, side: str, mode: str) -> tuple:
    if mode == RING and ring.algebra.add is None:
        raise MissingAddition("ring mode needs an addition table")
    n = len(ring.elements)
    if n > PRINCIPAL_TABLE_CAP:
        raise BudgetExceeded(
            f"the principal ideals of a {n}-element ring exceed the table "
            f"cap {PRINCIPAL_TABLE_CAP}", cap=PRINCIPAL_TABLE_CAP, reached=n)
    if mode == MULTIPLICATIVE:
        return tuple(_reach(ring, side))
    if span_applies(ring, side):
        mult = principal_table(ring, side, MULTIPLICATIVE)
        spans = {m: span(ring, members(m)) for m in set(mult)}
        return tuple(map(spans.__getitem__, mult))
    return tuple(closure(ring, [f], side, mode) for f in range(n))


def join(ring: FunctionRing, a: int, b: int, side: str, mode: str) -> int:
    """The least ideal holding the ideals a and b (each may also be any
    bitset that holds θ and absorbs on the side).

    Multiplicative ideals join as their union.  In ring mode under
    ``span_applies`` the join is the span of a together with the members
    of b that a lacks; other tables close the union with ``closure``.
    """
    if mode == MULTIPLICATIVE:
        return a | b
    if span_applies(ring, side):
        return span(ring, members(a) + members(b & ~a))
    return closure(ring, members(a | b), side, mode)


def sumset(ring: FunctionRing, a: int, b: int) -> int:
    """a + b = {x + y : x ∈ a, y ∈ b} for an additively closed bitset a,
    over a commutative associative addition: a, then the translate a + y,
    read off y's ``add_t`` row, of each y in b that the result lacks so
    far.  A y it holds is some x + y′ (x ∈ a, y′ taken before, or y′ = θ),
    and then a + y = (a + x) + y′ ⊆ a + y′ adds nothing."""
    xs = members(a)
    out = a
    for y in members(b & ~a):
        if not out >> y & 1:
            out |= bitset(map(ring.row("add_t", y).__getitem__, xs))
    return out


def vanishing_ideal(ring: FunctionRing, points, side: str = RIGHT,
                    mode: str | None = None) -> Ideal:
    """I(U): every function vanishing on the given raw points."""
    mode = default_mode(ring) if mode is None else mode
    return Ideal(ring, vanishing_elements(ring, points), side, mode)


def is_ideal_set(ring: FunctionRing, bits: int, side: str, mode: str) -> bool:
    """Whether the elements of a bitset already form an ideal."""
    return closure(ring, members(bits), side, mode) == bits


def subset_scan(ring: FunctionRing, side: str = RIGHT,
                mode: str | None = None) -> set[int]:
    """Independent oracle: every ideal, as a bitset, found by scanning the
    subsets of the ring (|ring| <= 16).

    A subset absorbs when the union of its members' absorbing rows (its
    reach) lies in it.  The indices split into a low and a high half, and
    the reach of every subset of each half is tabled (Horowitz & Sahni,
    JACM 1974).  A subset l | h << half holds θ and its reach exactly when
    l holds the low part of its own reach, of h's reach and of θ, and h
    holds the high part of its own reach, of l's reach and of θ.  So the
    scan lists once the low halves closed under their own low reach,
    skips every high half not closed under its own high reach or missing
    θ's high bit, and pairs each remaining high half only with the listed
    low halves that meet the two cross conditions.  Addition is tested
    only on the subsets that absorb.
    """
    mode = default_mode(ring) if mode is None else mode
    n = len(ring.elements)
    if n > 16:
        raise ValueError("subset scan is limited to rings of 16 elements")
    reach = [bitset(h for op in _absorbing_rows(side) for h in ring.row(op, g))
             for g in range(n)]
    half = n // 2
    lo = (1 << half) - 1

    def subset_reach(rows):
        table = [0] * (1 << len(rows))
        for s in range(1, len(table)):
            low = s & -s
            table[s] = table[s ^ low] | rows[low.bit_length() - 1]
        return table

    reach_lo = subset_reach(reach[:half])
    reach_hi = subset_reach(reach[half:])
    sums = ([ring.row("add", a) for a in range(n)] if mode == RING
            else None)
    zbit = 1 << ring.index(ring.theta)
    # the low halves closed under their low reach, each with its reach
    # into the high half
    lows = [(l, r >> half) for l, r in enumerate(reach_lo)
            if not r & lo & ~l]
    found = set()
    for h, r in enumerate(reach_hi):
        if (r | zbit) >> half & ~h:
            continue
        need = (r | zbit) & lo
        found.update(h << half | l for l, up in lows
                     if l & need == need and not up & ~h)
    if sums is None:
        return found
    return {mask for mask, bits in zip(found, map(members, found))
            if all(mask >> sums[a][b] & 1 for a in bits for b in bits)}


def _lattice_entries(ring: FunctionRing):
    """What a core is charged for a lattice it keeps: one entry per 32 bits
    of each ideal, none for a failed build."""
    words = -(-len(ring.elements) // 32)
    return lambda lat: (0 if isinstance(lat, BudgetExceeded)
                        else len(lat.ideals) * words)


def enumerated_lattice(ring: FunctionRing, side: str = RIGHT,
                       mode: str | None = None,
                       budget: int = 100_000) -> IdealLattice:
    """All ideals, as the joins of the distinct principal ideals: the pass
    of ``_enumerated_lattice``, kept on the ring's core under ("lattice",
    side, mode, budget).  A pass that raised ``BudgetExceeded`` is kept as
    that exception, at no charge, and every later call raises a copy of it
    (a raise sets the traceback of what it raises, which must not hold the
    caller's frames on the core)."""
    mode = default_mode(ring) if mode is None else mode
    lat = ring.keep(("lattice", side, mode, budget), _attempt, ring, side,
                    mode, budget, entries=_lattice_entries(ring))
    if isinstance(lat, BudgetExceeded):
        raise type(lat)(*lat.args, cap=lat.cap, reached=lat.reached)
    return lat


def _attempt(ring: FunctionRing, side: str, mode: str, budget: int):
    """The pass, or the ``BudgetExceeded`` it raised, without its
    traceback."""
    try:
        return _enumerated_lattice(ring, side, mode, budget)
    except BudgetExceeded as exc:
        return exc.with_traceback(None)


def _enumerated_lattice(ring: FunctionRing, side: str, mode: str,
                        budget: int) -> IdealLattice:
    """All ideals, as the joins of the distinct principal ideals.

    Every ideal of a finite ring is the join of the principal ideals of its
    members, and join is associative, so one pass over the distinct
    principals p, each taking the list L to L ∪ {a ∨ p : a ∈ L} from the
    least ideal, lists every ideal (Ganter & Reuter, Order 8, 1991).  The
    principals come from the ring's ``principal_table``.  Multiplicative
    ideals join as their union (absorption on either side already covers
    every internal product).  A ring-mode join depends only on the union
    a | p: a union already in L is its own join, and any other union is
    joined once.  Under ``span_applies`` with a commutative addition the
    join is the ``sumset`` a + p, which holds both ideals, is closed under
    the addition and absorbs by distributivity; other tables take
    ``join``, which spans or closes the union.  The pass stops, leaving the
    lattice incomplete, once L would hold more than `budget` ideals; it
    then holds budget + 1.  Cross-validated against the subset scan
    whenever the ring has at most 16 elements.
    """
    n = len(ring.elements)
    table = principal_table(ring, side, mode)
    principals = dict.fromkeys(table)
    found = {table[ring.index(ring.theta)]}     # the least ideal
    joined = dict(zip(principals, principals))  # ring mode: union -> join
    if (mode == RING and span_applies(ring, side)
            and structure_flags(ring.algebra).additive_commutative):
        combine = partial(sumset, ring)
    else:
        combine = partial(join, ring, side=side, mode=mode)
    complete = True
    for p in principals:
        if mode == MULTIPLICATIVE:
            fresh = set(map(p.__or__, found))
        else:
            fresh = set()
            for a in found:
                u = a | p
                if u not in joined:
                    joined[u] = combine(a, p)
                fresh.add(joined[u])
            joined.update(zip(fresh, fresh))    # an ideal is its own join
        fresh -= found
        if len(found) + len(fresh) > budget:
            keep = budget + 1 - len(found)
            found.update(sorted(fresh, key=mask_key(n))[:keep])
            complete = False
            break
        found |= fresh
    order = sorted(found, key=mask_key(n))
    lattice = IdealLattice(
        ring, tuple(Ideal(ring, b, side, mode) for b in order),
        side, mode, complete)
    if complete and n <= 16:
        if found != subset_scan(ring, side, mode):
            raise CrossCheckFailed("join-closure disagrees with subset scan")
    return lattice


def splits(algebra, side: str) -> bool:
    """Whether Y's declared unit acts on the side that cuts a ring-mode
    ideal of C(Z, Y) into its class slices.  A right ideal absorbs f·g, so
    it needs the unit's left law, a left ideal its right law, and a
    two-sided ideal, absorbing both e·g and g·e, either."""
    if algebra.unit is None:
        return False
    law = {RIGHT: LEFT, LEFT: RIGHT}.get(side)     # None: either law
    return law is None or algebra.unit_side in (law, TWO_SIDED)


def ideal_lattice(ring: FunctionRing, side: str = RIGHT,
                  mode: str | None = None, budget: int = 100_000) -> IdealLattice:
    """All ideals: in ring mode, where Y ``splits`` on the side, the products
    of Y's ideals, one factor per quasi-component; otherwise the one pass of
    ``enumerated_lattice``.

    The products are taken when the mode is ring, there are q ≥ 2 classes,
    Y ``splits`` on the side, the ring has at most ``PRINCIPAL_TABLE_CAP``
    elements, and Y's own lattice (``enumerated_lattice`` of C(discrete 1,
    Y), under the same budget) is complete with k ideals, k^q ≤ `budget`.
    Every other case is ``enumerated_lattice``'s, so an incomplete lattice
    and ``BudgetExceeded`` come out exactly as they do there.

    Why these are all the ideals (the paper's L68 and L69): take a right
    ideal I, a member g and a class c, and let e be the unit on c and θ
    elsewhere.  Then e·g is g on c, by the unit's left law, and θ
    elsewhere, as θ·v = θ; so this slice of g lies in I.
    The values π_c(I) of I's members on c are then the values of I's
    slices on c, and they form an ideal of Y, since θ·θ = θ + θ = θ makes
    products and sums of slices on c slices on c.  Any h with h(c) ∈ π_c(I)
    for every c is the sum of its q slices, because θ is Y's additive
    identity; so I = Π π_c(I).  Conversely every product of ideals of Y is
    an ideal, the operations being componentwise.  A left ideal is the
    mirror, with g·e, and a two-sided ideal holds both.  The proof uses
    one law of the unit and no associativity or distributivity.

    The products are built by ``_products``, sorted by ``mask_key``,
    cross-checked against the subset scan whenever the ring has at most 16
    elements, and kept on the ring's core under ("products", side), a key
    of their own: what the checkers and the generator read is the pass.
    """
    mode = default_mode(ring) if mode is None else mode
    q, n = len(ring.classes), len(ring.elements)
    if (mode == RING and q >= 2 and n <= PRINCIPAL_TABLE_CAP
            and splits(ring.algebra, side)):
        factor = enumerated_lattice(
            FunctionRing(discrete_space(1), ring.algebra), side, RING, budget)
        if factor.complete and len(factor.ideals) ** q <= budget:
            return ring.keep(("products", side), _product_lattice, ring,
                             factor, side, entries=_lattice_entries(ring))
    return enumerated_lattice(ring, side, mode, budget)


def _product_lattice(ring: FunctionRing, factor: IdealLattice,
                     side: str) -> IdealLattice:
    """Every product of `factor`'s ideals over the ring's classes."""
    n = len(ring.elements)
    products = _products(ring, [members(i.bits) for i in factor.ideals])
    products.sort(key=mask_key(n))
    if n <= 16 and set(products) != subset_scan(ring, side, RING):
        raise CrossCheckFailed("the product lattice disagrees with subset scan")
    return IdealLattice(
        ring, tuple(Ideal(ring, b, side, RING) for b in products), side, RING)


def prime_witness(ring: FunctionRing, inside: int):
    """The least index pair (f, g) with f·g inside and neither inside; None
    when the proper ideal `inside` is prime.  Bit tests on the bitset."""
    outside = members(~inside & (1 << len(ring.elements)) - 1)
    for f in outside:
        row = ring.row("mul", f)
        for g in outside:
            if inside >> row[g] & 1:
                return f, g
    return None


def is_prime(ideal: Ideal):
    """(verdict, witness): the least (f, g) with f·g inside, neither inside,
    as value tuples."""
    ring = ideal.ring
    if not ideal.is_proper():
        raise NotProper("the whole ring is not a prime ideal")
    witness = prime_witness(ring, ideal.bits)
    if witness is None:
        return True, None
    return False, tuple(ring.elements.take(witness))


def _outermost(bits: list, flags: dict, key: str, grow: bool):
    """Set flags[b][key] for each bitset b: whether no other member of
    `bits` lies strictly beyond it (strictly above when grow, else below).

    Members are taken from the far end inward, so a member is outermost
    exactly when no outermost member found before it lies beyond it.
    """
    found = []
    for b in sorted(bits, key=int.bit_count, reverse=grow):
        flags[b][key] = not any(
            (b & o == b) if grow else (b & o == o) for o in found)
        if flags[b][key]:
            found.append(b)


def classify_primes(lattice: IdealLattice) -> IdealLattice:
    """Annotate every ideal with primality and min/max structure.

    Primality is read for the whole lattice at once off its columns
    (``IdealLattice.held``): the ideal at position k is not prime exactly
    when some product f·g has bit k set in held[f·g] & ~(held[f] | held[g]).
    Each table row, x with every y, ands the complemented column of y with
    the column of the product, or-s the results and keeps the positions
    missing x; one bitset over the lattice positions gathers the rows, and
    only one row is read at a time.  A lattice already classified is
    returned as it is.
    """
    if lattice.classified:
        return lattice
    if not lattice.complete:
        reached = len(lattice.ideals)
        raise IncompleteLattice(
            f"classification needs the full lattice, which grows past "
            f"{reached - 1} ideals", cap=reached - 1, reached=reached)
    ring = lattice.ring
    held = lattice.held
    everywhere = (1 << len(lattice.ideals)) - 1
    lacks = [everywhere & ~h for h in held]     # the ideals missing x
    # x·y or y·x over every y: either holds each product once per pair, and
    # the principal table has already read the side's absorbing rows
    op = _absorbing_rows(lattice.side)[0]
    composite = 0               # bit k: ideals[k] holds f·g, f and g outside
    for x, out in enumerate(lacks):
        if out:
            products = map(held.__getitem__, ring.row(op, x))
            composite |= reduce(or_, map(and_, lacks, products)) & out
    whole = (1 << len(ring.elements)) - 1
    meta = {}
    for k, i in enumerate(lattice.ideals):
        b = i.bits
        meta[b] = i.meta
        if b == whole:
            i.meta.update(is_prime=False, is_maximal=False)
            continue
        i.meta["is_prime"] = not composite >> k & 1
    proper = [b for b in meta if b != whole]
    primes = [b for b in proper if meta[b]["is_prime"]]
    _outermost(proper, meta, "is_maximal", grow=True)
    _outermost(primes, meta, "is_minimal_prime", grow=False)
    _outermost(primes, meta, "is_maximal_prime", grow=True)
    for p in primes:
        meta[p]["is_min_max"] = (meta[p]["is_minimal_prime"]
                                 and meta[p]["is_maximal_prime"])
    lattice.classified = True
    return lattice


def prime_radical(lattice: IdealLattice) -> frozenset | None:
    """Intersection of all proper prime ideals; None when there are none."""
    primes = lattice.primes()
    if not primes:
        return None
    out = -1
    for p in primes:
        out &= p.bits
    return elements_of(lattice.ring, out)


@dataclass
class FamilySets:
    """The incidence χ_U ∈ I over a classified lattice, held once.

    A clopen U of a finite space is a union of quasi-components, named by
    its class mask c (bit j for ``ring.classes[j]``); a family of clopens
    is a bitset over the 2^q class masks, so Z − U is the complement mask
    and union and intersection are | and &.  P_u, Φ_u, U^c_I, X_I and
    X^c_I are all read off U.

    P is the prime family: all proper primes plus the trivial ideal, plus the
    whole ring (the basic-law identities such as P_∅ = {C(Z,Y)} force the
    improper member in).
    """

    lattice: IdealLattice
    P: tuple                   # ideals, in lattice order
    chi: tuple                 # class mask -> the element index of χ_U
    U: dict                    # ideal bitset -> U_I, a bitset over class masks


def family_sets(lattice: IdealLattice) -> FamilySets:
    """The families of a lattice, classified first if need be, which the
    lattice holds (``IdealLattice.families``) once built.

    U_I, the class masks c whose χ_U lies in I, is read off the lattice's
    columns: for the ideal at position k, bit c of U_I is bit k of the
    column of χ_U, so the U_I are the transpose of the 2^q χ_U columns.
    """
    return lattice.families


def _family_sets(lattice: IdealLattice) -> FamilySets:
    ring = lattice.ring
    if ring.algebra.unit is None:
        raise MissingUnit(FAMILIES_NOTE)
    classify_primes(lattice)
    ends = (1 << ring.index(ring.theta), (1 << len(ring.elements)) - 1)
    P = tuple(i for i in lattice.ideals
              if i.meta.get("is_prime") or i.bits in ends)
    chi = ring.chi_table()
    held = lattice.held
    U = dict(zip((i.bits for i in lattice.ideals),
                 _transpose([held[x] for x in chi], len(lattice.ideals))))
    return FamilySets(lattice, P, chi, U)
