"""Ideals of a finite function ring.

An ideal here is the multiplicative notion: a subset containing the zero
function, closed under the ring's multiplication, and absorbing on a declared
side; "ring" mode additionally closes under addition.  Primality, the full
ideal lattice (join-closure over principal ideals, cross-checked against a
subset-scan oracle on small rings), classification, the prime radical, and
the characteristic-function families all live here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import (
    CrossCheckFailed,
    IncompleteLattice,
    MissingAddition,
    MissingUnit,
    NotProper,
)
from .funcspace import FnElement, FunctionRing, vanishing_elements
from .sets import sort_family

RIGHT = "right"
LEFT = "left"
TWO_SIDED = "two-sided"
MULTIPLICATIVE = "multiplicative"
RING = "ring"


def default_mode(ring: FunctionRing) -> str:
    return RING if ring.algebra.add is not None else MULTIPLICATIVE


@dataclass(frozen=True)
class Ideal:
    ring: FunctionRing = field(compare=False, repr=False)
    elements: frozenset
    side: str = RIGHT
    mode: str = MULTIPLICATIVE
    generators: tuple = field(default=(), compare=False)
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    def __contains__(self, f) -> bool:
        return f in self.elements

    def is_proper(self) -> bool:
        return len(self.elements) < len(self.ring.elements)

    def is_trivial(self) -> bool:
        return self.elements == frozenset({self.ring.theta})

    def sorted_elements(self) -> list:
        return sorted(self.elements)

    def __le__(self, other: "Ideal") -> bool:
        return self.elements <= other.elements

    def __lt__(self, other: "Ideal") -> bool:
        return self.elements < other.elements

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return f"Ideal({len(self.elements)} elts, {self.side}/{self.mode})"


@dataclass
class IdealLattice:
    ring: FunctionRing
    ideals: tuple              # all ideals, sorted by (size, elements)
    side: str
    mode: str
    complete: bool = True
    classified: bool = False

    def find(self, elements: frozenset) -> Ideal | None:
        if not hasattr(self, "_index"):
            self._index = {i.elements: i for i in self.ideals}
        return self._index.get(frozenset(elements))

    def proper(self) -> list[Ideal]:
        return [i for i in self.ideals if i.is_proper()]

    def primes(self) -> list[Ideal]:
        if not self.classified:
            classify_primes(self)
        return [i for i in self.ideals if i.meta.get("is_prime")]


def generate_ideal(ring: FunctionRing, seed, side: str = RIGHT,
                   mode: str | None = None) -> Ideal:
    """Least fixpoint of the ideal laws containing the seed set."""
    mode = default_mode(ring) if mode is None else mode
    if mode == RING and ring.algebra.add is None:
        raise MissingAddition("ring mode needs an addition table")
    elems = {ring.theta}
    elems.update(seed)
    frontier = list(elems)
    while frontier:
        new = set()
        for g in frontier:
            if side in (RIGHT, TWO_SIDED):
                for f in ring.elements:
                    h = ring.mul(f, g)
                    if h not in elems:
                        new.add(h)
            if side in (LEFT, TWO_SIDED):
                for f in ring.elements:
                    h = ring.mul(g, f)
                    if h not in elems:
                        new.add(h)
        if mode == RING:
            current = list(elems) + list(new)
            for a in current:
                for b in current:
                    h = ring.add(a, b)
                    if h not in elems and h not in new:
                        new.add(h)
        elems |= new
        frontier = list(new)
    # multiplicative closure inside the set is implied by one-sided
    # absorption, but not for the opposite order; close explicitly
    while True:
        extra = {ring.mul(a, b) for a in elems for b in elems} - elems
        if mode == RING:
            extra |= {ring.add(a, b) for a in elems for b in elems} - elems
        if not extra:
            break
        elems |= extra
        if side in (RIGHT, TWO_SIDED):
            more = {ring.mul(f, g) for f in ring.elements for g in extra}
            elems |= more
        if side in (LEFT, TWO_SIDED):
            elems |= {ring.mul(g, f) for f in ring.elements for g in extra}
    return Ideal(ring, frozenset(elems), side, mode,
                 generators=tuple(sorted(set(seed))))


def principal_ideal(ring: FunctionRing, f: FnElement, side: str = RIGHT,
                    mode: str | None = None) -> Ideal:
    return generate_ideal(ring, [f], side, mode)


def vanishing_ideal(ring: FunctionRing, points, side: str = RIGHT,
                    mode: str | None = None) -> Ideal:
    """I(U): every function vanishing on the given raw points."""
    mode = default_mode(ring) if mode is None else mode
    pts = frozenset(points)
    return Ideal(ring, vanishing_elements(ring, pts), side, mode,
                 generators=(), meta={"vanishing_on": pts})


def is_ideal_set(ring: FunctionRing, elems: frozenset, side: str,
                 mode: str) -> bool:
    if ring.theta not in elems:
        return False
    for g in elems:
        if side in (RIGHT, TWO_SIDED):
            if any(ring.mul(f, g) not in elems for f in ring.elements):
                return False
        if side in (LEFT, TWO_SIDED):
            if any(ring.mul(g, f) not in elems for f in ring.elements):
                return False
    for a in elems:
        if any(ring.mul(a, b) not in elems for b in elems):
            return False
    if mode == RING:
        for a in elems:
            if any(ring.add(a, b) not in elems for b in elems):
                return False
    return True


def all_ideals_bruteforce(ring: FunctionRing, side: str = RIGHT,
                          mode: str | None = None) -> set[frozenset]:
    """Independent oracle: scan every subset of the ring (|ring| <= 16)."""
    mode = default_mode(ring) if mode is None else mode
    elems = list(ring.elements)
    n = len(elems)
    if n > 16:
        raise ValueError("subset scan is limited to rings of 16 elements")
    idx = {f: i for i, f in enumerate(elems)}
    zbit = 1 << idx[ring.theta]
    absorb = [0] * n
    for g in range(n):
        m = 0
        if side in (RIGHT, TWO_SIDED):
            for f in range(n):
                m |= 1 << idx[ring.mul(elems[f], elems[g])]
        if side in (LEFT, TWO_SIDED):
            for f in range(n):
                m |= 1 << idx[ring.mul(elems[g], elems[f])]
        # closure under the operation itself is implied when absorption
        # quantifies over the whole ring, which it does here
        absorb[g] = m
    sums = None
    if mode == RING:
        sums = [[idx[ring.add(elems[a], elems[b])] for b in range(n)]
                for a in range(n)]
    found = set()
    for mask in range(1 << n):
        if not mask & zbit:
            continue
        bits = [i for i in range(n) if mask >> i & 1]
        ok = True
        for g in bits:
            if absorb[g] & ~mask:
                ok = False
                break
        if ok and sums is not None:
            for a in bits:
                row = sums[a]
                if any(not mask >> row[b] & 1 for b in bits):
                    ok = False
                    break
        if ok:
            found.add(frozenset(elems[i] for i in bits))
    return found


def ideal_lattice(ring: FunctionRing, side: str = RIGHT,
                  mode: str | None = None, budget: int = 100_000) -> IdealLattice:
    """All ideals, as the join-closure of the principal ideals.

    Complete on a finite ring because every ideal is a finite join of the
    principal ideals of its elements.  Cross-validated against the subset
    scan whenever the ring has at most 16 elements.
    """
    mode = default_mode(ring) if mode is None else mode
    principals = {}
    for f in ring.elements:
        i = principal_ideal(ring, f, side, mode)
        principals[i.elements] = i
    ideals = dict(principals)
    complete = True
    if mode == MULTIPLICATIVE:
        # a union of multiplicative ideals is itself an ideal (absorption on
        # either side already covers every internal product), so the join is
        # the plain union and the lattice is the union-closure
        frontier = list(ideals)
        while frontier and complete:
            new = []
            for a in frontier:
                for b in principals:
                    u = a | b
                    if u not in ideals:
                        ideals[u] = Ideal(ring, u, side, mode)
                        new.append(u)
                        if len(ideals) > budget:
                            complete = False
                            new = []
                            break
                if not complete:
                    break
            frontier = new
    else:
        # ring mode: the join closes the union under addition as well; every
        # lattice member is a finite join of principals, so joining each new
        # ideal against the principal generators reaches everything
        frontier = list(ideals.values())
        while frontier and complete:
            new = []
            for a in frontier:
                for b in principals.values():
                    u = a.elements | b.elements
                    if u in ideals:
                        continue
                    j = generate_ideal(ring, u, side, mode)
                    if j.elements not in ideals:
                        ideals[j.elements] = j
                        new.append(j)
                        if len(ideals) > budget:
                            complete = False
                            new = []
                            break
                if not complete:
                    break
            frontier = new
    if complete and len(ring.elements) <= 16:
        if set(ideals) != all_ideals_bruteforce(ring, side, mode):
            raise CrossCheckFailed("join-closure disagrees with subset scan")
    order = sorted(ideals.values(), key=lambda i: (len(i), i.sorted_elements()))
    return IdealLattice(ring, tuple(order), side, mode, complete)


def is_prime(ideal: Ideal):
    """(verdict, witness): the least (f, g) with f·g inside, neither inside."""
    ring = ideal.ring
    if not ideal.is_proper():
        raise NotProper("the whole ring is not a prime ideal")
    inside = ideal.elements
    for f in ring.elements:
        for g in ring.elements:
            if ring.mul(f, g) in inside and f not in inside and g not in inside:
                return False, (f, g)
    return True, None


def classify_primes(lattice: IdealLattice) -> IdealLattice:
    """Annotate every ideal with primality and min/max structure."""
    if not lattice.complete:
        raise IncompleteLattice("classification needs the full lattice")
    proper = lattice.proper()
    primes = []
    for i in lattice.ideals:
        if not i.is_proper():
            i.meta.update(is_prime=False, is_maximal=False)
            continue
        verdict, witness = is_prime(i)
        i.meta["is_prime"] = verdict
        if not verdict:
            i.meta["prime_witness"] = witness
        if verdict:
            primes.append(i)
    for i in proper:
        i.meta["is_maximal"] = not any(i < j for j in proper)
    for p in primes:
        p.meta["is_minimal_prime"] = not any(q < p for q in primes)
        p.meta["is_maximal_prime"] = not any(p < q for q in primes)
        p.meta["is_min_max"] = (p.meta["is_minimal_prime"]
                                and p.meta["is_maximal_prime"])
    lattice.classified = True
    return lattice


def prime_radical(lattice: IdealLattice) -> frozenset | None:
    """Intersection of all proper prime ideals; None when there are none."""
    primes = lattice.primes()
    if not primes:
        return None
    out = frozenset(lattice.ring.elements)
    for p in primes:
        out &= p.elements
    return out


@dataclass
class FamilySets:
    """The clopen/ideal incidence families over a classified lattice.

    P is the prime family: all proper primes plus the trivial ideal, plus the
    whole ring (the basic-law identities such as P_∅ = {C(Z,Y)} force the
    improper member in).
    """

    lattice: IdealLattice
    P: tuple                   # ideals
    Phi: tuple                 # all ideals
    clopens: tuple             # clopen sets, deterministic order
    chi_of: dict               # clopen -> χ_U element
    P_u: dict                  # clopen -> frozenset of P-members containing χ_U
    Phi_u: dict
    U_I: dict                  # ideal -> frozenset of clopens with χ_U in I
    U_I_c: dict
    X_I: dict                  # ideal -> frozenset of χ_U elements in I
    X_I_c: dict

    @property
    def frak_X(self) -> frozenset:
        return frozenset(self.X_I[p] for p in self.P)


def family_sets(lattice: IdealLattice) -> FamilySets:
    ring = lattice.ring
    if ring.algebra.unit is None:
        raise MissingUnit("the families are defined through χ_U")
    if not lattice.classified:
        classify_primes(lattice)
    trivial = lattice.find(frozenset({ring.theta}))
    whole = lattice.find(frozenset(ring.elements))
    P = [i for i in lattice.ideals if i.meta.get("is_prime")]
    for extra in (trivial, whole):
        if extra is not None and extra not in P:
            P.append(extra)
    P = tuple(sorted(P, key=lambda i: (len(i), i.sorted_elements())))
    from .topology import clopen_family
    clopens = tuple(frozenset(u) for u in clopen_family(ring.space))
    chi_of = {u: (ring.chi(u) if u != ring.space.full else ring.theta)
              for u in clopens}
    P_u = {u: frozenset(i for i in P if chi_of[u] in i) for u in clopens}
    Phi_u = {u: frozenset(i for i in lattice.ideals if chi_of[u] in i)
             for u in clopens}
    full = ring.space.full
    U_I, U_I_c, X_I, X_I_c = {}, {}, {}, {}
    for i in lattice.ideals:
        U_I[i] = frozenset(u for u in clopens if chi_of[u] in i)
        U_I_c[i] = frozenset(u for u in clopens if chi_of[full - u] in i)
        X_I[i] = frozenset(chi_of[u] for u in U_I[i])
        X_I_c[i] = frozenset(chi_of[u] for u in U_I_c[i])
    return FamilySets(lattice, P, lattice.ideals, clopens, chi_of,
                      P_u, Phi_u, U_I, U_I_c, X_I, X_I_c)
