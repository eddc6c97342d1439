"""Checker registry: one verdict function per statement ID.

Each checker tests the literal property it is named for, on a concrete
instance.  Its body returns None for PASS or a serializable witness for FAIL.
Its hypotheses are declared where it is registered, as names in the
HYPOTHESES table; ``run_checker`` tests them in order before the body runs
and reports the first that fails as HYPOTHESIS_UNMET.  The partition/monotone
laws of the prime family are quantified over the proper primes (the trivial
ideal and the whole ring break the literal universal reading; see the
repository notes).
"""

from __future__ import annotations

import itertools
import random
import time
from collections.abc import Callable
from functools import cached_property
from typing import NamedTuple

from ..algebra import structure_flags
from ..errors import (
    BudgetExceeded,
    IncompleteLattice,
    MissingAddition,
    MissingUnit,
    UnknownChecker,
)
from ..funcspace import (
    DEFAULT_ENUM_BUDGET,
    FunctionRing,
    equiv_class,
    project_L,
    transport,
    vanishing_elements,
    zero_set_V,
)
from ..ideals import (
    MULTIPLICATIVE,
    RIGHT,
    RING,
    TWO_SIDED,
    Ideal,
    classify_primes,
    family_sets,
    generate_ideal,
    ideal_lattice,
    is_prime,
    prime_radical,
    principal_ideal,
    vanishing_ideal,
)
from ..topology import (
    SequenceSpace,
    clopen_base_topology,
    clopen_family,
    quasi_component,
    quasi_component_partition,
    quotient_space,
)
from ..sets import INF, SeqSet
from ..zariski import compare_T1_TZ_T, zariski_closed_family
from .report import (
    BUDGET_EXCEEDED,
    FAIL,
    HYPOTHESIS_UNMET,
    PASS,
    SKIPPED_INFINITE,
    TheoremReport,
)


class Context:
    """Lazily-built derived data for one (space, algebra, side, mode)."""

    def __init__(self, space, algebra, side: str = RIGHT, mode: str | None = None,
                 budget: int = DEFAULT_ENUM_BUDGET, seed: int = 0):
        self.space = space
        self.algebra = algebra
        self.side = side
        self.flags = structure_flags(algebra)
        if mode is None:
            mode = RING if algebra.add is not None else MULTIPLICATIVE
        self.mode = mode
        self.budget = budget
        self.seed = seed
        self.is_sequence = isinstance(space, SequenceSpace)
        self._chis = {}

    @cached_property
    def ring(self) -> FunctionRing:
        return FunctionRing(self.space, self.algebra, self.budget)

    #: bail out of lattice enumeration past this many ideals, and skip
    #: lattice work altogether on rings past this many elements; the
    #: checkers then report BUDGET_EXCEEDED instead of stalling
    lattice_budget = 1200
    lattice_ring_cap = 160

    @cached_property
    def lattice(self):
        if len(self.ring.elements) > self.lattice_ring_cap:
            raise BudgetExceeded(
                f"lattice classification on a {len(self.ring.elements)}-"
                f"element ring exceeds the checker budget "
                f"(cap {self.lattice_ring_cap})")
        lat = ideal_lattice(self.ring, self.side, self.mode,
                            budget=self.lattice_budget)
        classify_primes(lat)
        return lat

    @cached_property
    def primes(self):
        return [i for i in self.lattice.ideals if i.meta.get("is_prime")]

    @cached_property
    def clopens(self):
        return [frozenset(u) for u in clopen_family(self.space)]

    @cached_property
    def families(self):
        return family_sets(self.lattice)

    @cached_property
    def rng(self):
        return random.Random(self.seed)

    @property
    def nonzero(self):
        z = self.algebra.zero
        return [a for a in self.algebra.elements if a != z]

    def chi(self, u, a=None):
        """``ring.chi(u, a)``, cached; a bad call raises every time."""
        key = (frozenset(u), a)
        f = self._chis.get(key)
        if f is None:
            f = self._chis[key] = self.ring.chi(u, a)
        return f

    def I_of(self, points) -> Ideal:
        return vanishing_ideal(self.ring, points, self.side, self.mode)

    def classes(self):
        return self.ring.classes

    def b_values(self):
        """All of Y on tiny carriers, just 0 otherwise."""
        if self.algebra.carrier_size <= 4:
            return list(self.algebra.elements)
        return [self.algebra.zero]

    def fn_families(self, count: int = 4, max_size: int = 4):
        ring = self.ring
        rng = random.Random(self.seed * 7919 + 11)
        fams = [frozenset({ring.theta}), frozenset(ring.elements)]
        els = list(ring.elements)
        for _ in range(count):
            k = rng.randint(1, min(max_size, len(els)))
            fams.append(frozenset(rng.sample(els, k)))
        return fams

    def point_sets(self, include_empty: bool = False):
        pts = list(self.space.points)
        rng = random.Random(self.seed * 104729 + 3)
        out = [frozenset(pts)] + [frozenset({p}) for p in pts]
        for _ in range(4):
            k = rng.randint(1, len(pts))
            out.append(frozenset(rng.sample(pts, k)))
        if include_empty:
            out.append(frozenset())
        seen, uniq = set(), []
        for u in out:
            if u not in seen:
                seen.add(u)
                uniq.append(u)
        return uniq

    def ideal_pool(self, limit: int = 96):
        """The whole lattice when small, else a seeded sample of it."""
        ideals = self.lattice.ideals
        if len(ideals) <= limit:
            return list(ideals)
        rng = random.Random(self.seed * 31337 + 5)
        keep = {0, len(ideals) - 1}
        keep.update(rng.sample(range(len(ideals)), limit - 2))
        return [ideals[k] for k in sorted(keep)]

    def class_subsets(self):
        q = len(self.ring.classes)
        for k in range(1, q + 1):
            for combo in itertools.combinations(range(q), k):
                yield frozenset().union(*(self.ring.classes[i] for i in combo))


# --------------------------------------------------------------------------
# Hypotheses
# --------------------------------------------------------------------------

def _has_all_complements(ctx):
    ring = ctx.ring
    if ring.algebra.add is None or ring.identity is None:
        return False
    for f in ring.elements:
        if not any(ring.add(f, g) == ring.identity and ring.mul(f, g) == ring.theta
                   for g in ring.elements):
            return False
    return True


def _is_division_ring(ctx) -> bool:
    y = ctx.algebra
    if y.add is None or y.unit is None or not ctx.flags.associative:
        return False
    for a in y.elements:
        if a == y.zero:
            continue
        if not any(y.times(a, b) == y.unit and y.times(b, a) == y.unit
                   for b in y.elements):
            return False
    return True


#: hypothesis name -> (predicate on a Context, the HYPOTHESIS_UNMET note)
HYPOTHESES = {
    "finite": (lambda ctx: not ctx.is_sequence,
               "symbolic sequence backend: use the bounded sequence API"),
    "sequence": (lambda ctx: ctx.is_sequence,
                 "finite explicit spaces have every quasi-component clopen"),
    "unit": (lambda ctx: ctx.algebra.unit is not None, "needs a unit in Y"),
    "addition_closed": (lambda ctx: ctx.mode == RING,
                        "needs addition-closed ideals"),
    "ring_mode": (lambda ctx: ctx.mode == RING, "needs ring-mode ideals"),
    "unit_addition_closed": (
        lambda ctx: ctx.algebra.unit is not None and ctx.mode == RING,
        "needs a unit and addition-closed ideals"),
    "unit_addition": (
        lambda ctx: ctx.algebra.unit is not None and ctx.algebra.add is not None,
        "needs a unit and addition"),
    "ring_ops": (
        lambda ctx: ctx.algebra.add is not None and ctx.algebra.unit is not None,
        "needs ring operations with a unit"),
    "no_zero_divisors": (lambda ctx: ctx.flags.zero_divisor_free,
                         "Y must be free of zero divisors"),
    "assoc_no_zero_divisors": (
        lambda ctx: ctx.flags.zero_divisor_free and ctx.flags.associative,
        "needs associative multiplication without zero divisors"),
    "assoc_comm": (lambda ctx: ctx.flags.associative and ctx.flags.commutative,
                   "needs associative commutative multiplication"),
    "right_absorption": (
        lambda ctx: ctx.flags.commutative or ctx.side == TWO_SIDED,
        "one-sided absorption of a right factor needs commutativity"),
    "distributive": (lambda ctx: ctx.flags.distributive,
                     "needs distributive operations"),
    "distributive_addition_closed": (
        lambda ctx: (ctx.algebra.unit is not None and ctx.mode == RING
                     and ctx.flags.distributive),
        "needs a distributive ring with addition-closed ideals"),
    "char_two": (lambda ctx: ctx.flags.char_two, "needs 1+1=0 in Y"),
    "char_two_ring": (
        lambda ctx: (ctx.flags.char_two and ctx.flags.distributive
                     and ctx.flags.additive_associative
                     and ctx.flags.additive_commutative),
        "needs a characteristic-two ring"),
    "commutative_ring": (
        lambda ctx: (ctx.flags.associative and ctx.flags.commutative
                     and ctx.flags.distributive),
        "needs a commutative ring structure"),
    "integral_domain": (
        lambda ctx: (ctx.flags.zero_divisor_free and ctx.flags.associative
                     and ctx.flags.commutative and ctx.algebra.add is not None),
        "Y must be an integral domain"),
    "division_ring": (_is_division_ring, "Y must be a division ring"),
    "complements": (_has_all_complements, "every element needs a complement"),
    # these two build the ring and the lattice, so budgets apply to them
    "two_components": (lambda ctx: len(ctx.ring.classes) >= 2,
                       "needs at least two quasi-components"),
    "primes": (lambda ctx: bool(ctx.primes), "no prime ideals on this instance"),
}


class Checker(NamedTuple):
    body: Callable           # ctx -> None (PASS) or a witness (FAIL)
    requires: tuple          # HYPOTHESES names, checked in this order
    members: tuple = ()      # bundled checker ids, run before the body


REGISTRY: dict[str, Checker] = {}


def _checker(checker_id: str, *requires: str, members: tuple = ()):
    """Register the decorated body under `checker_id` with its hypotheses."""
    def register(body):
        REGISTRY[checker_id] = Checker(body, requires, members)
        return body
    return register


def _unmet(ctx, checker: Checker) -> str | None:
    """The note of the first failing hypothesis, or None when all hold.

    Every checker needs a finite space unless it declares the sequence one;
    a bundle needs its own hypotheses, then those of its members.
    """
    names = [] if "sequence" in checker.requires else ["finite"]
    names += checker.requires
    for member in checker.members:
        names += REGISTRY[member].requires
    for name in names:
        holds, note = HYPOTHESES[name]
        if not holds(ctx):
            return note
    return None


def _run(checker: Checker, ctx):
    for member in checker.members:
        witness = REGISTRY[member].body(ctx)
        if witness is not None:
            return witness
    return checker.body(ctx)


# --------------------------------------------------------------------------
# Quasi-components and the three topologies
# --------------------------------------------------------------------------

@_checker("T5")
def _t5(ctx):  # ring-indistinguishability classes are the quasi-components
    ring = ctx.ring
    full = frozenset(ring.elements)
    for x in ctx.space.points:
        if equiv_class(ring, full, x) != quasi_component(ctx.space, x):
            return {"x": x}
    return None


@_checker("T6")
def _t6(ctx):  # the quotient by quasi-components is totally separated
    q = quotient_space(ctx.space).as_space()
    for p in q.points:
        if quasi_component(q, p) != frozenset({p}):
            return {"class": p}
    return None


@_checker("T7")
def _t7(ctx):  # each quasi-component = intersection of the zero sets at it
    ring = ctx.ring
    for x in ctx.space.points:
        inter = ctx.space.full
        for f in ring.elements:
            v = ring.zero_set(f)
            if x in v:
                inter &= v
        if inter != quasi_component(ctx.space, x):
            return {"x": x, "intersection": inter}
    return None


@_checker("T8", "no_zero_divisors")
def _t8(ctx):  # the V(S) family is a topology of closed sets
    tz = zariski_closed_family(ctx.ring)
    if not tz.union_closed:
        return {"union_witness": tz.union_witness}
    return None


@_checker("T9", "no_zero_divisors")
def _t9(ctx):  # T1 = TZ ⊆ T
    c1z, czt, c1t = compare_T1_TZ_T(ctx.ring)
    if c1z.verdict != "equal":
        return {"T1_vs_TZ": c1z.verdict}
    if czt.verdict not in ("equal", "first-strictly-coarser"):
        return {"TZ_vs_T": czt.verdict}
    if c1t.verdict not in ("equal", "first-strictly-coarser"):
        return {"T1_vs_T": c1t.verdict}
    return None


@_checker("T10", "no_zero_divisors")
def _t10(ctx):  # quasi-components of T, T1, TZ coincide
    t1 = clopen_base_topology(ctx.space)
    tz = zariski_closed_family(ctx.ring).as_space()
    base = quasi_component_partition(ctx.space)
    if quasi_component_partition(t1) != base:
        return {"differs": "T1"}
    if quasi_component_partition(tz) != base:
        return {"differs": "TZ"}
    return None


@_checker("T11")
def _t11(ctx):  # the continuous functions of T and T1 are the same set
    t1 = clopen_base_topology(ctx.space)
    other = FunctionRing(t1, ctx.algebra, ctx.budget)
    if quasi_component_partition(t1) != ctx.ring.classes:
        return {"partitions": "differ"}
    if set(other.elements) != set(ctx.ring.elements):
        return {"elements": "differ"}
    return None


# --------------------------------------------------------------------------
# Zero divisors, nilpotents, vanishing ideals
# --------------------------------------------------------------------------

@_checker("T12", "two_components")
def _t12(ctx):  # |Z| >= 2 forces zero divisors in the ring
    ring = ctx.ring
    found = any(ring.mul(f, g) == ring.theta
                for f in ring.elements if f != ring.theta
                for g in ring.elements if g != ring.theta)
    if not found:
        return {"zero_divisors": "absent"}
    return None


def _classes_meeting(ring, points) -> set:
    return {ring.class_of[p] for p in points}


@_checker("T13", "unit")
def _t13(ctx):  # V(I) spanning >= 2 quasi-components ⇒ I not prime
    ring = ctx.ring
    for i in ctx.lattice.proper():
        v = zero_set_V(ring, i.elements)
        if len(_classes_meeting(ring, v)) >= 2 and i.meta.get("is_prime"):
            return {"ideal": i, "V": v}
    return None


@_checker("T14", "no_zero_divisors")
def _t14(ctx):  # no zero divisors: I(U) prime iff U is a single component
    ring = ctx.ring
    for u in ctx.class_subsets():
        i = ctx.I_of(u)
        if not i.is_proper():
            continue
        verdict, _ = is_prime(i)
        singleton = len(_classes_meeting(ring, u)) == 1
        if verdict != singleton:
            return {"U": u, "prime": verdict}
    return None


@_checker("T15", "unit", "two_components")
def _t15(ctx):  # nontrivial ideals own a function with proper clopen zero set
    ring = ctx.ring
    for i in ctx.lattice.proper():
        if i.is_trivial():
            continue
        ok = False
        for f in i.elements:
            if f == ring.theta:
                continue
            v = ring.zero_set(f)
            if v and v != ctx.space.full and ctx.space.is_clopen(v):
                ok = True
                break
        if not ok:
            return {"ideal": i}
    return None


@_checker("T16", "no_zero_divisors", "ring_ops")
def _t16(ctx):  # no zero divisors, ring ops: each I(z) is a minimal prime
    for c in ctx.ring.classes:
        iz = ctx.lattice.find(ctx.I_of(c).elements)
        if iz is None or not iz.meta.get("is_prime"):
            return {"z": c, "prime": False}
        if not iz.meta.get("is_minimal_prime"):
            return {"z": c, "minimal": False}
    return None


@_checker("T17", "no_zero_divisors")
def _t17(ctx):  # annihilating pairs split Z into complementary clopen zero sets
    ring = ctx.ring
    full = ctx.space.full
    for f in ring.elements:
        if f == ring.theta:
            continue
        for g in ring.elements:
            if g == ring.theta or ring.mul(g, f) != ring.theta:
                continue
            vf, vg = ring.zero_set(f), ring.zero_set(g)
            if vf | vg != full or (full - vf) & (full - vg):
                return {"f": f, "g": g}
            if not (ctx.space.is_clopen(vf) and ctx.space.is_clopen(vg)):
                return {"f": f, "g": g, "clopen": False}
    return None


@_checker("T18", "unit_addition_closed")
def _t18(ctx):  # I1 prime ⊆ I2 proper: same characteristic-function content
    ring = ctx.ring
    chis = {u: ctx.chi(u) for u in ctx.clopens}
    for i1 in ctx.primes:
        for i2 in ctx.lattice.proper():
            if not i1.elements <= i2.elements:
                continue
            for u, chi in chis.items():
                if (chi in i1.elements) != (chi in i2.elements):
                    return {"I1": i1, "I2": i2, "U": u}
    return None


@_checker("T19", "unit")
def _t19(ctx):  # prime with nonempty zero set pins a unique point
    ring = ctx.ring
    for j in ctx.primes:
        v = zero_set_V(ring, j.elements)
        if not v:
            continue
        classes = _classes_meeting(ring, v)
        if len(classes) != 1:
            return {"J": j, "V": v}
        if not j.elements <= ctx.I_of(v).elements:
            return {"J": j, "not_in": "I(z)"}
    return None


@_checker("T20", "unit_addition_closed")
def _t20(ctx):  # prime below a proper ideal: exactly one of each chi pair
    full = ctx.space.full
    for j in ctx.primes:
        for i in ctx.lattice.proper():
            if not j.elements < i.elements:
                continue
            for u in ctx.clopens:
                a = ctx.chi(u) in i.elements
                b = ctx.chi(full - u) in i.elements
                if a == b:
                    return {"J": j, "I": i, "U": u}
    return None


# --------------------------------------------------------------------------
# The characteristic-function subring
# --------------------------------------------------------------------------

@_checker("T21", "assoc_comm", "unit")
def _t21(ctx):  # chi set closed under ·; char-two ring: isomorphic to C(Z,Z2)
    ring = ctx.ring
    chis = {u: ctx.chi(u) for u in ctx.clopens}
    chi_set = set(chis.values())
    for f in chi_set:
        for g in chi_set:
            if ring.mul(f, g) not in chi_set:
                return {"f": f, "g": g, "closure": "mul"}
            if ring.mul(f, f) != f:
                return {"f": f, "idempotent": False}
    if (ctx.flags.char_two and ctx.flags.additive_associative
            and ctx.flags.additive_commutative and ctx.flags.distributive):
        z = ctx.algebra.zero
        patt = {f: tuple(0 if v == z else 1 for v in f) for f in chi_set}
        if len(set(patt.values())) != len(chi_set):
            return {"iso": "not injective"}
        if len(chi_set) != 2 ** len(ring.classes):
            return {"iso": "not surjective"}
        for f in chi_set:
            for g in chi_set:
                pm = tuple(a * b % 2 for a, b in zip(patt[f], patt[g]))
                ps = tuple((a + b) % 2 for a, b in zip(patt[f], patt[g]))
                if patt[ring.mul(f, g)] != pm or patt[ring.add(f, g)] != ps:
                    return {"f": f, "g": g, "iso": "not a homomorphism"}
    return None


@_checker("T22", "unit", "primes")
def _t22(ctx):  # for prime I, the chi content of I is a prime ideal of chi
    ring = ctx.ring
    chis = {u: ctx.chi(u) for u in ctx.clopens}
    chi_set = set(chis.values())
    for i in ctx.primes:
        xi = chi_set & i.elements
        for f in chi_set:
            for g in xi:
                if ring.mul(f, g) not in xi:
                    return {"I": i, "f": f, "g": g, "absorb": False}
        for f in chi_set:
            for g in chi_set:
                if ring.mul(f, g) in xi and f not in xi and g not in xi:
                    return {"I": i, "f": f, "g": g, "prime": False}
    return None


@_checker("T23", "ring_mode", "complements")
def _t23(ctx):  # with complements, prime + ideal stays prime while proper
    ring = ctx.ring
    whole = frozenset(ring.elements)
    for i1 in ctx.primes:
        for i2 in ctx.lattice.ideals:
            sumset = {ring.add(x, y) for x in i1.elements for y in i2.elements}
            total = generate_ideal(ring, sumset, ctx.side, ctx.mode)
            if total.elements == whole:
                continue
            found = ctx.lattice.find(total.elements)
            if found is None or not found.meta.get("is_prime"):
                return {"I1": i1, "I2": i2, "sum": total}
    return None


# --------------------------------------------------------------------------
# Min-max classification
# --------------------------------------------------------------------------

@_checker("T24", "unit")
def _t24(ctx):  # every component is clopen here: prime below I(z) equals it
    for c in ctx.ring.classes:
        iz = ctx.I_of(c).elements
        for j in ctx.primes:
            if j.elements <= iz and j.elements != iz:
                return {"z": c, "J": j}
    return None


# {0} open in Y (discrete): the same rigidity below I(z)
_checker("T25", "unit")(_t24)


@_checker("T26", "assoc_comm", "unit")
def _t26(ctx):  # literal statement; admits finite counterexamples
    ring = ctx.ring
    trivial = frozenset({ring.theta})
    chis = {u: ctx.chi(u) for u in ctx.clopens}
    for j in ctx.primes:
        if j.elements == trivial:
            continue
        for u1, chi1 in chis.items():
            if chi1 not in j.elements or u1 == ctx.space.full:
                continue
            for u, chi_u in chis.items():
                if u & u1 and chi_u not in j.elements:
                    return {"J": j, "U1": u1, "U": u, "chi_u": chi_u}
    return None


@_checker("T27", "assoc_comm", "unit")
def _t27(ctx):  # every prime sits above some I(z)
    for j in ctx.primes:
        if not any(ctx.I_of(c).elements <= j.elements for c in ctx.ring.classes):
            return {"J": j}
    return None


@_checker("T28", "assoc_comm", "unit")
def _t28(ctx):  # prime with nonempty zero set equals a unique I(z)
    ring = ctx.ring
    for j in ctx.primes:
        v = zero_set_V(ring, j.elements)
        if not v:
            continue
        matches = [c for c in ring.classes if ctx.I_of(c).elements == j.elements]
        if len(matches) != 1:
            return {"J": j, "matches": len(matches)}
    return None


@_checker("T29", "no_zero_divisors", "unit_addition_closed")
def _t29(ctx):  # proper primes pairwise incomparable
    for a in ctx.primes:
        for b in ctx.primes:
            if a is not b and a.elements <= b.elements:
                return {"I": a, "J": b}
    return None


@_checker("T30", "no_zero_divisors", "unit_addition_closed")
def _t30(ctx):  # all proper primes are vanishing ideals of points
    izs = {ctx.I_of(c).elements for c in ctx.ring.classes}
    for j in ctx.primes:
        if j.elements not in izs:
            return {"J": j}
    return None


@_checker("T32", "no_zero_divisors")
def _t32(ctx):  # nonzero-indicator is a surjective multiplicative map
    ring = ctx.ring
    lmap = project_L(ring)
    for f in ring.elements:
        for g in ring.elements:
            a = lmap[ring.mul(f, g)]
            b = tuple(x * y % 2 for x, y in zip(lmap[f], lmap[g]))
            if a != b:
                return {"f": f, "g": g}
    if len(set(lmap.values())) != 2 ** len(ring.classes):
        return {"surjective": False}
    return None


@_checker("T33", "assoc_comm", "no_zero_divisors", "unit_addition_closed")
def _t33(ctx):  # all proper primes min-max and of I(z) form
    izs = {ctx.I_of(c).elements for c in ctx.ring.classes}
    for j in ctx.primes:
        if j.elements not in izs:
            return {"J": j, "form": "not I(z)"}
        if not j.meta.get("is_min_max"):
            return {"J": j, "min_max": False}
    return None


@_checker("T34", "no_zero_divisors")
def _t34(ctx):  # zero-divisor-free value algebra: trivial prime radical
    rad = prime_radical(ctx.lattice)
    if rad != frozenset({ctx.ring.theta}):
        return {"radical": rad}
    return None


@_checker("T35", "unit", "right_absorption")
def _t35(ctx):  # f in a proper ideal: both chi slices generate subideals
    ring = ctx.ring
    full = ctx.space.full
    chis = {u: ctx.chi(u) for u in ctx.clopens}
    for i in ctx.lattice.proper():
        for f in i.elements:
            if f == ring.theta:
                continue
            for u in ctx.clopens:
                # membership suffices: an ideal contains the subideal
                # generated by any of its members
                if (ring.mul(f, chis[u]) not in i.elements
                        or ring.mul(f, chis[full - u]) not in i.elements):
                    return {"I": i, "f": f, "U": u}
    return None


@_checker("T36", "division_ring", "ring_mode")
def _t36(ctx):  # division-ring values: maximal ideals are exactly the I(z)
    izs = {ctx.I_of(c).elements for c in ctx.ring.classes}
    maximal = {i.elements for i in ctx.lattice.proper() if i.meta.get("is_maximal")}
    if maximal != izs:
        return {"maximal": sorted(len(m) for m in maximal), "expected": len(izs)}
    return None


@_checker("T37", "distributive_addition_closed")
def _t37(ctx):  # f outside a prime: exactly one chi slice lands inside
    ring = ctx.ring
    full = ctx.space.full
    for i in ctx.primes:
        for f in ring.elements:
            if f in i.elements:
                continue
            for u in ctx.clopens:
                a = ring.mul(f, ctx.chi(u)) in i.elements
                b = ring.mul(f, ctx.chi(full - u)) in i.elements
                if a == b:
                    return {"I": i, "f": f, "U": u, "both" if a else "neither": True}
    return None


#: the naturals below this bound are probed for the cluster-point law
_T38_PREFIX = 8


@_checker("T38", "sequence")
def _t38(ctx):  # a non-open quasi-component is a unique cluster point
    space = ctx.space
    q = quasi_component(space, INF)
    if (q != SeqSet.of((), infinity=True) or space.is_open(q)
            or not space.is_closed(q)):
        return {"Q_inf": q}
    for k in range(_T38_PREFIX):
        # every cofinite clopen around inf meets N: inf is a cluster point
        u = SeqSet.cofinite(range(k))
        if not (space.is_clopen(u) and u.contains(INF) and u.contains(k)):
            return {"neighbourhood": u}
        # {k} is a clopen neighbourhood missing inf: k is no cluster point
        n = SeqSet.of((k,))
        if not space.is_clopen(n) or n.contains(INF):
            return {"isolated": k}
    return None


# --------------------------------------------------------------------------
# Galois-connection and zero-set laws
# --------------------------------------------------------------------------

@_checker("L8")
def _l8(ctx):  # J ⊆ A  ⇒  [x] ⊆ [x]_A ⊆ [x]_J
    ring = ctx.ring
    full = frozenset(ring.elements)
    for fam in ctx.fn_families():
        bigger = fam | next(iter(ctx.fn_families(1)))
        for x in ctx.space.points:
            ex_full = equiv_class(ring, full, x)
            ex_a = equiv_class(ring, bigger, x)
            ex_j = equiv_class(ring, fam, x)
            if not (ex_full <= ex_a <= ex_j):
                return {"x": x, "J": fam, "A": bigger}
    return None


@_checker("L9")
def _l9(ctx):  # J ⊆ A ⊆ F  ⇒  V(F,b) ⊆ V(A,b) ⊆ V(J,b)
    ring = ctx.ring
    full = frozenset(ring.elements)
    for fam in ctx.fn_families():
        bigger = fam | next(iter(ctx.fn_families(1)))
        for b in ctx.b_values():
            vf = zero_set_V(ring, full, b)
            va = zero_set_V(ring, bigger, b)
            vj = zero_set_V(ring, fam, b)
            if not (vf <= va <= vj):
                return {"b": b, "J": fam, "A": bigger}
    return None


@_checker("L10")
def _l10(ctx):  # I(U,b)_J ⊆ J
    ring = ctx.ring
    for fam in ctx.fn_families():
        for u in ctx.point_sets():
            for b in ctx.b_values():
                if not vanishing_elements(ring, u, b, within=fam) <= fam:
                    return {"U": u, "b": b}
    return None


@_checker("L11")
def _l11(ctx):  # U ⊆ V(I(U,b)_J, b)
    ring = ctx.ring
    for fam in ctx.fn_families():
        for u in ctx.point_sets():
            for b in ctx.b_values():
                iu = vanishing_elements(ring, u, b, within=fam)
                if not u <= zero_set_V(ring, iu, b):
                    return {"U": u, "b": b, "J": fam}
    return None


@_checker("L12")
def _l12(ctx):  # J ⊆ I(V(J,b), b)
    ring = ctx.ring
    for fam in ctx.fn_families():
        for b in ctx.b_values():
            v = zero_set_V(ring, fam, b)
            if not fam <= vanishing_elements(ring, v, b):
                return {"b": b, "J": fam}
    return None


@_checker("L13")
def _l13(ctx):  # J ⊆ A  ⇒  I(U,b)_J ⊆ I(U,b)_A
    ring = ctx.ring
    for fam in ctx.fn_families():
        bigger = fam | next(iter(ctx.fn_families(1)))
        for u in ctx.point_sets():
            for b in ctx.b_values():
                small = vanishing_elements(ring, u, b, within=fam)
                large = vanishing_elements(ring, u, b, within=bigger)
                if not small <= large:
                    return {"U": u, "b": b}
    return None


@_checker("L14")
def _l14(ctx):  # U1 ⊆ U2  ⇒  I(U2,b)_J ⊆ I(U1,b)_J
    ring = ctx.ring
    sets = ctx.point_sets()
    for fam in ctx.fn_families():
        for u1 in sets:
            for u2 in sets:
                if not u1 <= u2:
                    continue
                for b in ctx.b_values():
                    i2 = vanishing_elements(ring, u2, b, within=fam)
                    i1 = vanishing_elements(ring, u1, b, within=fam)
                    if not i2 <= i1:
                        return {"U1": u1, "U2": u2, "b": b}
    return None


@_checker("L16")
def _l16(ctx):  # V(f) ∪ V(g) ⊆ V(f·g)
    ring = ctx.ring
    for f in ring.elements:
        for g in ring.elements:
            if not ring.zero_set(f) | ring.zero_set(g) <= ring.zero_set(ring.mul(f, g)):
                return {"f": f, "g": g}
    return None


@_checker("L17", "no_zero_divisors")
def _l17(ctx):  # no zero divisors  ⇒  V(f) ∪ V(g) = V(f·g)
    ring = ctx.ring
    for f in ring.elements:
        for g in ring.elements:
            if ring.zero_set(f) | ring.zero_set(g) != ring.zero_set(ring.mul(f, g)):
                return {"f": f, "g": g}
    return None


# --------------------------------------------------------------------------
# Ideal structure lemmas
# --------------------------------------------------------------------------

@_checker("L30")
def _l30(ctx):
    from ..ideals import is_ideal_set
    ring = ctx.ring
    for u in ctx.point_sets():
        if not is_ideal_set(ring, vanishing_elements(ring, u), ctx.side, ctx.mode):
            return {"U": u}
    if ctx.flags.zero_divisor_free:
        for c in ring.classes:
            verdict, w = is_prime(ctx.I_of(c))
            if not verdict:
                return {"z": c, "witness": w}
    return None


@_checker("L31", "assoc_no_zero_divisors")
def _l31(ctx):  # no zero divisors + associative: no nontrivial nilpotents
    ring = ctx.ring
    for f in ring.elements:
        if f == ring.theta:
            continue
        p = f
        for _ in range(len(ring.elements)):
            p = ring.mul(p, f)
            if p == ring.theta:
                return {"f": f}
    return None


@_checker("L32", "unit")
def _l32(ctx):  # clopen U1 with U1^c meeting U2: distinct vanishing ideals
    full = ctx.space.full
    for u1 in ctx.clopens:
        for u2 in ctx.point_sets():
            if (full - u1) & u2:
                if vanishing_elements(ctx.ring, u1) == vanishing_elements(ctx.ring, u2):
                    return {"U1": u1, "U2": u2}
    return None


@_checker("L33", "unit")
def _l33(ctx):
    ring = ctx.ring
    full = ctx.space.full
    for i in ctx.lattice.proper():
        for u in ctx.clopens:
            for u1 in ctx.clopens:
                if not u <= u1:
                    continue
                for a in ctx.nonzero:
                    if ctx.chi(u, a) in i.elements and ctx.chi(u1, a) not in i.elements:
                        return {"I": i, "U": u, "U1": u1, "a": a}
    for i in ctx.primes:
        for u in ctx.clopens:
            for a in ctx.nonzero:
                if (ctx.chi(u, a) not in i.elements
                        and ctx.chi(full - u, a) not in i.elements):
                    return {"I": i, "U": u, "a": a}
    return None


@_checker("L34", "right_absorption", "unit")
def _l34(ctx):  # members absorb chi factors on the right
    ring = ctx.ring
    full = ctx.space.full
    for i in ctx.lattice.proper():
        for f in i.elements:
            for u in ctx.clopens:
                for a in ctx.nonzero:
                    if (ring.mul(f, ctx.chi(u, a)) not in i.elements
                            or ring.mul(f, ctx.chi(full - u, a)) not in i.elements):
                        return {"I": i, "f": f, "U": u, "a": a}
    return None


@_checker("L35", "unit")
def _l35(ctx):  # subideal of I(z) with a bigger zero set is not prime
    ring = ctx.ring
    for c in ring.classes:
        iz = ctx.I_of(c).elements
        for j in ctx.lattice.proper():
            if j.elements <= iz and zero_set_V(ring, j.elements) != frozenset(c):
                if j.meta.get("is_prime"):
                    return {"z": c, "J": j}
    return None


@_checker("L36", "unit_addition")
def _l36(ctx):  # strict subideal of a clopen-point ideal is not prime
    for c in ctx.ring.classes:
        iz = ctx.I_of(c).elements
        if iz == frozenset(ctx.ring.elements):
            continue
        for j in ctx.lattice.ideals:
            if j.elements < iz and j.meta.get("is_prime"):
                return {"z": c, "J": j}
    return None


@_checker("L37")
def _l37(ctx):  # nonzero function with nonempty clopen zero set is a
    # zero divisor (a nowhere-vanishing function may well be invertible)
    ring = ctx.ring
    for f in ring.elements:
        v = ring.zero_set(f)
        if f == ring.theta or not v or not ctx.space.is_clopen(v):
            continue
        if not any(g != ring.theta and
                   (ring.mul(f, g) == ring.theta or ring.mul(g, f) == ring.theta)
                   for g in ring.elements):
            return {"f": f}
    return None


@_checker("L38")
def _l38(ctx):  # V(f) over a component: (f) inside I(z)
    ring = ctx.ring
    for f in ring.elements:
        v = ring.zero_set(f)
        for c in ring.classes:
            if c <= v:
                sub = principal_ideal(ring, f, ctx.side, ctx.mode)
                if not sub.elements <= ctx.I_of(c).elements:
                    return {"f": f, "z": c}
    return None


@_checker("L39", "unit")
def _l39(ctx):  # V(f) over U: (f) inside (chi_U)
    ring = ctx.ring
    for u in ctx.clopens:
        pu = principal_ideal(ring, ctx.chi(u), ctx.side, ctx.mode)
        for f in ring.elements:
            if u <= ring.zero_set(f):
                pf = principal_ideal(ring, f, ctx.side, ctx.mode)
                if not pf.elements <= pu.elements:
                    return {"f": f, "U": u}
    return None


@_checker("L40")
def _l40(ctx):  # V(f) = V((f))
    ring = ctx.ring
    for f in ring.elements:
        pf = principal_ideal(ring, f, ctx.side, ctx.mode)
        if zero_set_V(ring, pf.elements) != ring.zero_set(f):
            return {"f": f}
    return None


@_checker("L41", "no_zero_divisors")
def _l41(ctx):  # annihilating pairs have disjoint cozero sets
    ring = ctx.ring
    full = ctx.space.full
    for f in ring.elements:
        for g in ring.elements:
            if (f != ring.theta and g != ring.theta
                    and ring.mul(g, f) == ring.theta):
                if (full - ring.zero_set(f)) & (full - ring.zero_set(g)):
                    return {"f": f, "g": g}
    return None


@_checker("L42", "no_zero_divisors")
def _l42(ctx):  # and their zero sets cover Z
    ring = ctx.ring
    full = ctx.space.full
    for f in ring.elements:
        for g in ring.elements:
            if (f != ring.theta and g != ring.theta
                    and ring.mul(g, f) == ring.theta):
                if ring.zero_set(f) | ring.zero_set(g) != full:
                    return {"f": f, "g": g}
    return None


@_checker("L43", "division_ring")
def _l43(ctx):  # division ring: members of proper ideals must vanish somewhere
    ring = ctx.ring
    z = ctx.algebra.zero
    for i in ctx.lattice.proper():
        for f in i.elements:
            if all(v != z for v in f):
                return {"I": i, "f": f}
    return None


@_checker("L44")
def _l44(ctx):  # quotient transport carries I(x) to I([x])
    tr = transport(ctx.ring)
    q = quotient_space(ctx.space)
    for x in ctx.space.points:
        src = vanishing_elements(ctx.ring, {x})
        dst = vanishing_elements(tr.target, {q.class_index(x)})
        if {tr.G(f) for f in src} != set(dst):
            return {"x": x}
    return None


# --------------------------------------------------------------------------
# Family-set lemmas
# --------------------------------------------------------------------------

@_checker("L45")
def _l45(ctx):
    fam = ctx.families
    ring = ctx.ring
    full = ctx.space.full
    whole = frozenset(ring.elements)
    if {i.elements for i in fam.P_u[full]} != {i.elements for i in fam.P}:
        return {"law": "P_Z = P"}
    if {i.elements for i in fam.Phi_u[full]} != {i.elements for i in fam.Phi}:
        return {"law": "Phi_Z = Phi"}
    if {i.elements for i in fam.P_u[frozenset()]} != {whole}:
        return {"law": "P_empty = {C(Z,Y)}"}
    if {i.elements for i in fam.Phi_u[frozenset()]} != {whole}:
        return {"law": "Phi_empty = {C(Z,Y)}"}
    if not all(ring.theta in i.elements for i in fam.P):
        return {"law": "theta in every member"}
    for u in fam.clopens:
        if not any(i.elements == whole for i in fam.P_u[u]):
            return {"law": "C(Z,Y) in P_u", "U": u}
    return None


@_checker("L46", "unit_addition_closed")
def _l46(ctx):  # prime below a proper ideal: same chi-membership families
    fam = ctx.families
    for i1 in ctx.primes:
        for i2 in ctx.lattice.proper():
            if not i1.elements <= i2.elements:
                continue
            for u in fam.clopens:
                if (i1 in fam.P_u[u]) != (i2 in fam.Phi_u[u]):
                    return {"I1": i1, "I2": i2, "U": u}
    return None


@_checker("L47", "unit_addition_closed")
def _l47(ctx):  # each proper prime picks exactly one of chi_U, chi_Uc
    fam = ctx.families
    full = ctx.space.full
    for u in fam.clopens:
        if not u or u == full:
            continue
        for p in ctx.primes:
            a = fam.chi_of[u] in p.elements
            b = fam.chi_of[full - u] in p.elements
            if a == b:
                return {"P": p, "U": u}
    return None


@_checker("L48", "unit")
def _l48(ctx):  # P_u lands inside P_{u∪w} ∩ P_{u∪w^c}
    fam = ctx.families
    full = ctx.space.full
    for u in fam.clopens:
        for w in fam.clopens:
            lhs = fam.Phi_u[u]
            if not (lhs <= fam.Phi_u[u | w] and lhs <= fam.Phi_u[u | (full - w)]):
                return {"U": u, "W": w}
    return None


@_checker("L49")
def _l49(ctx):
    fam = ctx.families
    ring = ctx.ring
    full = ctx.space.full
    trivial = ctx.lattice.find(frozenset({ring.theta}))
    whole = ctx.lattice.find(frozenset(ring.elements))
    if fam.U_I[trivial] != frozenset({full}):
        return {"law": "U_(theta) = {Z}"}
    if fam.U_I_c[trivial] != frozenset({frozenset()}):
        return {"law": "U^c_(theta) = {empty}"}
    if fam.U_I[whole] != frozenset(fam.clopens):
        return {"law": "U_C = all clopens"}
    if fam.U_I_c[whole] != frozenset(fam.clopens):
        return {"law": "U^c_C = all clopens"}
    if len(fam.clopens) > 2:
        if fam.U_I[trivial] | fam.U_I_c[trivial] == frozenset(fam.clopens):
            return {"law": "U_(theta) union misses nothing"}
    for i1 in ctx.primes:
        for i2 in ctx.primes:
            if i1.elements <= i2.elements:
                if not fam.U_I[i1] <= fam.U_I[i2]:
                    return {"I1": i1, "I2": i2}
                if (ctx.mode == RING and i2.is_proper()
                        and fam.U_I[i1] != fam.U_I[i2]):
                    return {"I1": i1, "I2": i2, "equality": False}
    return None


@_checker("L50")
def _l50(ctx):  # I in P_u iff U in U_I
    fam = ctx.families
    for i in fam.P:
        for u in fam.clopens:
            if (i in fam.P_u[u]) != (u in fam.U_I[i]):
                return {"I": i, "U": u}
    return None


@_checker("L51", "addition_closed")
def _l51(ctx):  # proper primes split the clopens
    fam = ctx.families
    allu = frozenset(fam.clopens)
    for p in ctx.primes:
        if fam.U_I[p] | fam.U_I_c[p] != allu or fam.U_I[p] & fam.U_I_c[p]:
            return {"P": p}
    return None


@_checker("L52")
def _l52(ctx):  # chi-membership distributes over ideal intersection
    fam = ctx.families
    pool = ctx.ideal_pool()
    for i1 in pool:
        for i2 in pool:
            inter = ctx.lattice.find(i1.elements & i2.elements)
            if inter is None:
                continue
            if fam.U_I[inter] != fam.U_I[i1] & fam.U_I[i2]:
                return {"I1": i1, "I2": i2}
    return None


@_checker("L53")
def _l53(ctx):  # and over union when the union happens to be an ideal
    fam = ctx.families
    pool = ctx.ideal_pool()
    for i1 in pool:
        for i2 in pool:
            union = ctx.lattice.find(i1.elements | i2.elements)
            if union is None or not union.meta.get("is_prime"):
                continue
            if fam.U_I[union] != fam.U_I[i1] | fam.U_I[i2]:
                return {"I1": i1, "I2": i2}
    return None


@_checker("L54")
def _l54(ctx):
    fam = ctx.families
    ring = ctx.ring
    trivial = ctx.lattice.find(frozenset({ring.theta}))
    whole = ctx.lattice.find(frozenset(ring.elements))
    if fam.X_I[trivial] != frozenset({ring.theta}):
        return {"law": "X_(theta) = {theta}"}
    if fam.X_I[whole] != frozenset(fam.chi_of.values()):
        return {"law": "X_C = X"}
    for i1 in ctx.primes:
        for i2 in ctx.primes:
            if i1.elements <= i2.elements and not fam.X_I[i1] <= fam.X_I[i2]:
                return {"I1": i1, "I2": i2}
    for i in fam.P:
        for u in fam.clopens:
            a = fam.chi_of[u] in fam.X_I[i]
            if a != (u in fam.U_I[i]) or a != (i in fam.P_u[u]):
                return {"I": i, "U": u}
    return None


@_checker("L55", "addition_closed")
def _l55(ctx):  # proper primes split the characteristic functions
    fam = ctx.families
    allx = frozenset(fam.chi_of.values())
    for p in ctx.primes:
        if fam.X_I[p] | fam.X_I_c[p] != allx or fam.X_I[p] & fam.X_I_c[p]:
            return {"P": p}
    return None


@_checker("L56", "unit")
def _l56(ctx):  # summary bundle A: the P_u laws
    fam = ctx.families
    full = ctx.space.full
    whole = frozenset(ctx.ring.elements)
    if {i.elements for i in fam.P_u[frozenset()]} != {whole}:
        return {"law": "P_empty"}
    if fam.P_u[full] != frozenset(fam.P):
        return {"law": "P_Z"}
    for u1 in fam.clopens:
        for u2 in fam.clopens:
            if u1 <= u2 and not fam.P_u[u1] <= fam.P_u[u2]:
                return {"law": "monotone", "U1": u1, "U2": u2}
            if not fam.P_u[u1 & u2] <= fam.P_u[u1] & fam.P_u[u2]:
                return {"law": "meet", "U1": u1, "U2": u2}
            if not fam.P_u[u1] | fam.P_u[u2] <= fam.P_u[u1 | u2]:
                return {"law": "join", "U1": u1, "U2": u2}
    return None


@_checker("L57", "unit", members=("L49", "L52", "L53"))
def _l57(ctx):  # summary bundle B: the U_I laws, all carried by its members
    return None


@_checker("L58", "unit", members=("L54",))
def _l58(ctx):  # summary bundle C: the X_I laws beyond its member's
    fam = ctx.families
    pool = ctx.ideal_pool()
    for i1 in pool:
        for i2 in pool:
            inter = ctx.lattice.find(i1.elements & i2.elements)
            if inter is not None and fam.X_I[inter] != fam.X_I[i1] & fam.X_I[i2]:
                return {"law": "meet", "I1": i1, "I2": i2}
            union = ctx.lattice.find(i1.elements | i2.elements)
            if (union is not None and union.meta.get("is_prime")
                    and fam.X_I[union] != fam.X_I[i1] | fam.X_I[i2]):
                return {"law": "join", "I1": i1, "I2": i2}
    return None


# --------------------------------------------------------------------------
# The characteristic-function calculus (19 numbered identities)
# --------------------------------------------------------------------------

# every item needs a unit and L59.1 needs nothing more, so declaring the
# unit makes L59 unmet, with the first item's note, exactly when no item runs
@_checker("L59", "unit")
def _l59(ctx):  # every item whose hypotheses hold; unmet items are skipped
    for k in range(1, 20):
        item = REGISTRY[f"L59.{k}"]
        if _unmet(ctx, item) is None:
            out = item.body(ctx)
            if out is not None:
                return {"item": k, "witness": out}
    return None


def _chis(ctx):
    return {u: ctx.chi(u) for u in ctx.clopens}


@_checker("L59.1", "unit")
def _l59_1(ctx):
    chis = _chis(ctx)
    ring = ctx.ring
    for u, chi in chis.items():
        if ring.mul(chi, chi) != chi:
            return {"U": u}
    if ctx.algebra.add is not None:
        full = ctx.space.full
        for u in ctx.clopens:
            if ring.add(chis[u], chis[full - u]) != ring.identity:
                return {"U": u, "law": "chi_u + chi_uc = Id"}
    return None


@_checker("L59.2", "unit")
def _l59_2(ctx):
    chis = _chis(ctx)
    ring = ctx.ring
    for u in ctx.clopens:
        for w in ctx.clopens:
            if ring.mul(chis[u], chis[w]) != chis[u | w]:
                return {"U": u, "W": w}
    for i in ctx.lattice.ideals:
        for u in ctx.clopens:
            for w in ctx.clopens:
                if chis[u] in i.elements and chis[u | w] not in i.elements:
                    return {"I": i, "U": u, "W": w}
    return None


@_checker("L59.3", "char_two", "unit")
def _l59_3(ctx):
    chis = _chis(ctx)
    ring = ctx.ring
    full = ctx.space.full
    for u in ctx.clopens:
        if ring.add(chis[u], chis[u]) != ring.theta:
            return {"U": u, "law": "chi + chi = theta"}
        for w in ctx.clopens:
            target = (u & w) | (full - (u | w))
            if ring.add(chis[u], chis[w]) != chis[target]:
                return {"U": u, "W": w}
    return None


@_checker("L59.4", "unit")
def _l59_4(ctx):
    chis = _chis(ctx)
    ring = ctx.ring
    for u in ctx.clopens:
        for w in ctx.clopens:
            if u <= w and ring.mul(chis[w], chis[u]) != chis[w]:
                return {"U": u, "W": w}
    return None


@_checker("L59.5", "unit")
def _l59_5(ctx):
    chis = _chis(ctx)
    if len(set(chis.values())) != len(chis):
        return {"law": "distinct clopens share a chi"}
    return None


@_checker("L59.6", "unit")
def _l59_6(ctx):
    chis = _chis(ctx)
    for u in ctx.clopens:
        for w in ctx.clopens:
            if ctx.ring.zero_set(chis[u & w]) != u & w:
                return {"U": u, "W": w}
    return None


@_checker("L59.7", "unit")
def _l59_7(ctx):
    chis = _chis(ctx)
    ring = ctx.ring
    for u in ctx.clopens:
        for w in ctx.clopens:
            lhs = ring.zero_set(chis[u]) | ring.zero_set(chis[w])
            if lhs != u | w or ring.zero_set(ring.mul(chis[u], chis[w])) != u | w:
                return {"U": u, "W": w}
    return None


@_checker("L59.8", "unit")
def _l59_8(ctx):
    chis = _chis(ctx)
    full = ctx.space.full
    for i in ctx.primes:
        for u in ctx.clopens:
            if chis[u] not in i.elements and chis[full - u] not in i.elements:
                return {"I": i, "U": u}
    return None


@_checker("L59.9", "unit")
def _l59_9(ctx):
    chis = _chis(ctx)
    for i in ctx.lattice.ideals:
        for u in ctx.clopens:
            for w in ctx.clopens:
                if u <= w and chis[u] in i.elements and chis[w] not in i.elements:
                    return {"I": i, "U": u, "W": w}
    return None


@_checker("L59.10", "addition_closed", "unit")
def _l59_10(ctx):
    chis = _chis(ctx)
    for i in ctx.primes:
        for u1 in ctx.clopens:
            for u2 in ctx.clopens:
                if u1 & u2:
                    continue
                if chis[u1] in i.elements and chis[u2] in i.elements:
                    return {"I": i, "U1": u1, "U2": u2}
    return None


@_checker("L59.11", "char_two", "addition_closed", "unit")
def _l59_11(ctx):
    chis = _chis(ctx)
    ring = ctx.ring
    for i in ctx.lattice.ideals:
        for u in ctx.clopens:
            for w in ctx.clopens:
                if chis[u] in i.elements and chis[w] in i.elements:
                    if ring.add(chis[u], chis[w]) not in i.elements:
                        return {"I": i, "U": u, "W": w}
    return None


@_checker("L59.12", "ring_ops", "unit")
def _l59_12(ctx):
    chis = _chis(ctx)
    ring = ctx.ring
    full = ctx.space.full
    whole = frozenset(ring.elements)
    trivial = frozenset({ring.theta})
    for u in ctx.clopens:
        if not u or u == full:
            continue
        a = generate_ideal(ring, [chis[u]], ctx.side, MULTIPLICATIVE)
        b = generate_ideal(ring, [chis[full - u]], ctx.side, MULTIPLICATIVE)
        if a.elements & b.elements != trivial:
            return {"U": u, "law": "meet"}
        sumset = {ring.add(x, y) for x in a.elements for y in b.elements}
        total = generate_ideal(ring, sumset, ctx.side, RING)
        if total.elements != whole:
            return {"U": u, "law": "join"}
    return None


@_checker("L59.13", "unit")
def _l59_13(ctx):
    chis = _chis(ctx)
    ring = ctx.ring
    if chis[frozenset()] != ring.identity or chis[ctx.space.full] != ring.theta:
        return {"law": "chi_empty = Id, chi_Z = theta"}
    for i in ctx.lattice.ideals:
        if ring.theta not in i.elements:
            return {"I": i}
    return None


@_checker("L59.14", "unit")
def _l59_14(ctx):
    chis = _chis(ctx)
    ring = ctx.ring
    chi_set = set(chis.values())
    for i in ctx.lattice.ideals:
        xi = chi_set & i.elements
        for f in xi:
            for g in xi:
                if ring.mul(f, g) not in xi:
                    return {"I": i, "f": f, "g": g}
    return None


@_checker("L59.15", "unit")
def _l59_15(ctx):
    chis = _chis(ctx)
    ring = ctx.ring
    chi_set = set(chis.values())
    for i in ctx.lattice.ideals:
        xi = chi_set & i.elements
        for g in xi:
            for f in chi_set:
                if ring.mul(f, g) not in xi:
                    return {"I": i, "f": f, "g": g}
    return None


@_checker("L59.16", "char_two", "addition_closed", "unit")
def _l59_16(ctx):
    chis = _chis(ctx)
    ring = ctx.ring
    chi_set = set(chis.values())
    for i in ctx.lattice.ideals:
        xi = chi_set & i.elements
        for f in xi:
            for g in xi:
                if ring.add(f, g) not in xi:
                    return {"I": i, "f": f, "g": g}
    return None


@_checker("L59.17", "unit", "primes")
def _l59_17(ctx):
    chis = _chis(ctx)
    ring = ctx.ring
    chi_set = set(chis.values())
    for i in ctx.primes:
        xi = chi_set & i.elements
        for f in chi_set:
            for g in chi_set:
                if ring.mul(f, g) in xi and f not in xi and g not in xi:
                    return {"I": i, "f": f, "g": g}
    return None


@_checker("L59.18", "distributive", "unit")
def _l59_18(ctx):
    chis = _chis(ctx)
    ring = ctx.ring
    for i in ctx.lattice.ideals:
        for u in ctx.clopens:
            for w in ctx.clopens:
                if (chis[u] in i.elements
                        and ring.add(chis[u], chis[w]) == ring.theta
                        and chis[w] not in i.elements):
                    return {"I": i, "U": u, "W": w}
    return None


@_checker("L59.19", "char_two", "addition_closed", "unit", "primes")
def _l59_19(ctx):
    chis = _chis(ctx)
    ring = ctx.ring
    for i in ctx.primes:
        for v in ctx.clopens:
            for u in ctx.clopens:
                if (ring.mul(chis[v], chis[u]) in i.elements
                        and ring.add(chis[v], chis[u]) in i.elements
                        and not (v & u)):
                    return {"I": i, "V": v, "U": u}
    return None


# --------------------------------------------------------------------------
# Complements, embeddings, products
# --------------------------------------------------------------------------

@_checker("L61")
def _l61(ctx):
    fam = ctx.families
    ring = ctx.ring
    pool = ctx.ideal_pool()
    for i1 in pool:
        for i2 in pool:
            if i1.elements <= i2.elements and not fam.X_I[i1] <= fam.X_I[i2]:
                return {"item": 1, "I1": i1, "I2": i2}
            inter = ctx.lattice.find(i1.elements & i2.elements)
            if inter is not None and fam.X_I[inter] != fam.X_I[i1] & fam.X_I[i2]:
                return {"item": 2, "I1": i1, "I2": i2}
    if ctx.algebra.add is not None:
        o = frozenset({ring.theta})
        for i in ctx.lattice.ideals:
            plus = frozenset(ring.add(x, t) for x in fam.X_I[i] for t in o)
            if plus != fam.X_I[i]:
                return {"item": 4, "I": i}
            times = frozenset(ring.mul(x, t) for x in fam.X_I[i] for t in o)
            if i.elements != o and fam.X_I[i] and times != o:
                return {"item": 5, "I": i}
    if ctx.flags.char_two and ctx.mode == RING:
        for i1 in ctx.lattice.ideals:
            for i2 in ctx.lattice.ideals:
                sumset = {ring.add(x, y) for x in i1.elements for y in i2.elements}
                total = generate_ideal(ring, sumset, ctx.side, ctx.mode)
                sums = {ring.add(x, y) for x in fam.X_I[i1] for y in fam.X_I[i2]}
                if not sums <= total.elements:
                    return {"item": 8, "I1": i1, "I2": i2}
    return None


@_checker("L64", "assoc_comm", "unit")
def _l64(ctx):
    ring = ctx.ring
    full = ctx.space.full
    whole = frozenset(ring.elements)
    trivial = frozenset({ring.theta})
    for u in ctx.clopens:
        pu = principal_ideal(ring, ctx.chi(u), ctx.side, MULTIPLICATIVE)
        if pu.elements in (whole, trivial):
            continue
        pc = principal_ideal(ring, ctx.chi(full - u), ctx.side, MULTIPLICATIVE)
        if pc.elements in (whole, trivial):
            return {"U": u, "law": "complement degenerate"}
        if pu.elements & pc.elements != trivial:
            return {"U": u, "law": "meet not trivial"}
    return None


@_checker("L65", "no_zero_divisors")
def _l65(ctx):  # the nonzero indicator on Y is multiplicative
    y = ctx.algebra
    z = y.zero
    for a in y.elements:
        for b in y.elements:
            la, lb = int(a != z), int(b != z)
            if int(y.times(a, b) != z) != la * lb % 2:
                return {"a": a, "b": b}
    return None


@_checker("L66")
def _l66(ctx):  # clopens correspond one-to-one with C(Z, Z2)
    from ..algebra import make_zmod
    two = FunctionRing(ctx.space, make_zmod(2), ctx.budget)
    if len(two.elements) != len(ctx.clopens):
        return {"clopens": len(ctx.clopens), "functions": len(two.elements)}
    zsets = {two.zero_set(f) for f in two.elements}
    if zsets != set(ctx.clopens):
        return {"law": "zero sets miss a clopen"}
    return None


@_checker("L67", "char_two_ring", "unit")
def _l67(ctx):  # complement identity for products of chi pairs
    chis = _chis(ctx)
    ring = ctx.ring
    full = ctx.space.full
    for u in ctx.clopens:
        for w in ctx.clopens:
            lhs = ring.add(ring.mul(chis[full - u], chis[full - w]),
                           chis[full - (u | w)])
            rhs = ring.add(chis[u | w], chis[u & w])
            if lhs != rhs:
                return {"U": u, "W": w}
    return None


@_checker("L68")
def _l68(ctx):  # componentwise product structure of the ring
    ring = ctx.ring
    q = len(ring.classes)
    if len(ring.elements) != ctx.algebra.carrier_size ** q:
        return {"count": len(ring.elements)}
    f = next(iter(ring.elements))
    g = ring.elements[-1]
    if ring.mul(f, g) != tuple(ctx.algebra.times(a, b) for a, b in zip(f, g)):
        return {"law": "mul not componentwise"}
    return None


@_checker("L69", "ring_mode", "unit")
def _l69(ctx):  # I(U) = (chi_U); I(U) and I(U^c) are comaximal
    ring = ctx.ring
    full = ctx.space.full
    whole = frozenset(ring.elements)
    for u in ctx.clopens:
        iu = vanishing_elements(ring, u)
        pu = generate_ideal(ring, [ctx.chi(u)], ctx.side, ctx.mode)
        if iu != pu.elements:
            return {"U": u, "law": "I(U) = (chi_U)"}
        ic = vanishing_elements(ring, full - u)
        sumset = {ring.add(x, y) for x in iu for y in ic}
        total = generate_ideal(ring, sumset, ctx.side, ctx.mode)
        if total.elements != whole:
            return {"U": u, "law": "comaximal"}
    return None


# L40 under the zero-divisor-free hypothesis
_checker("L70", "no_zero_divisors")(_l40)


@_checker("L71")
def _l71(ctx):  # f vanishing beyond {z}: (f) strictly inside I(z)
    ring = ctx.ring
    for c in ring.classes:
        iz = ctx.I_of(c).elements
        for f in iz:
            if ring.zero_set(f) != frozenset(c):
                pf = principal_ideal(ring, f, ctx.side, ctx.mode)
                if not pf.elements < iz:
                    return {"z": c, "f": f}
    return None


@_checker("L72")
def _l72(ctx):  # the clopens at z intersect to the component itself
    for c in ctx.ring.classes:
        inter = ctx.space.full
        for u in ctx.clopens:
            if c <= u:
                inter &= u
        if vanishing_elements(ctx.ring, inter) != ctx.I_of(c).elements:
            return {"z": c, "intersection": inter}
    return None


@_checker("L73")
def _l73(ctx):  # intersection of vanishing ideals = ideal of the union
    ring = ctx.ring
    sets = ctx.point_sets(include_empty=True)
    for k in (2, 3):
        for combo in itertools.combinations(sets, min(k, len(sets))):
            inter = frozenset(ring.elements)
            for a in combo:
                inter &= vanishing_elements(ring, a)
            if inter != vanishing_elements(ring, frozenset().union(*combo)):
                return {"family": combo}
    return None


@_checker("L74", "integral_domain", "addition_closed")
def _l74(ctx):  # prime avoidance against the point ideals
    ring = ctx.ring
    classes = ring.classes
    izs = [ctx.I_of(c).elements for c in classes]
    for i in ctx.lattice.ideals:
        for k in range(1, len(classes) + 1):
            for combo in itertools.combinations(range(len(classes)), k):
                cover = frozenset().union(*(izs[j] for j in combo))
                if i.elements <= cover:
                    if not any(i.elements <= izs[j] for j in combo):
                        return {"I": i, "cover": list(combo)}
    return None


@_checker("L75", "ring_mode", "unit")
def _l75(ctx):  # both chi slices in I force f in I
    ring = ctx.ring
    full = ctx.space.full
    for i in ctx.lattice.ideals:
        for f in ring.elements:
            for u in ctx.clopens:
                if (ring.mul(f, ctx.chi(u)) in i.elements
                        and ring.mul(f, ctx.chi(full - u)) in i.elements
                        and f not in i.elements):
                    return {"I": i, "f": f, "U": u}
    return None


@_checker("L76", "commutative_ring", "addition_closed")
def _l76(ctx):  # an ideal escaping finitely many primes escapes their union
    primes = ctx.primes
    for i in ctx.lattice.ideals:
        avoid = [p for p in primes
                 if not i.elements <= p.elements and i.elements != p.elements]
        if not avoid:
            continue
        union = frozenset().union(*(p.elements for p in avoid))
        if not (i.elements - union):
            return {"I": i, "primes": len(avoid)}
    return None


@_checker("L31.C", "unit", "two_components")
def _l31_c(ctx):  # disconnection surrogate: complementary idempotent pairs
    ring = ctx.ring
    full = ctx.space.full
    for u in ctx.clopens:
        if not u or u == full:
            continue
        a, b = ctx.chi(u), ctx.chi(full - u)
        if ring.mul(a, a) != a or ring.mul(b, b) != b:
            return {"U": u, "idempotent": False}
        if ring.mul(a, b) != ring.theta:
            return {"U": u, "product": "not theta"}
        if ctx.algebra.add is not None and ring.add(a, b) != ring.identity:
            return {"U": u, "sum": "not identity"}
    return None


@_checker("T36.N", "addition_closed", "two_components")
def _t36_n(ctx):  # non-local surrogate: >= 2 maximal ideals
    maximal = [i for i in ctx.lattice.proper() if i.meta.get("is_maximal")]
    if len(maximal) < 2:
        return {"maximal_count": len(maximal)}
    return None


# --------------------------------------------------------------------------
# Suites and the runner
# --------------------------------------------------------------------------

# Claims that quantify over an infinite carrier; no finite instance can test
# them, so their reports carry a dedicated verdict instead of a vacuous PASS.
INFINITE_CLAIMS = frozenset({"T31"})

# Checkers whose literal statement is known to admit finite counterexamples;
# a FAIL verdict for these carries the standing note instead of signaling a
# defect in the engine.
EXPECTED_FAIL_NOTES = {
    "T26": ("the statement as printed admits finite counterexamples; "
            "U ⊆ U1 appears to be the intended hypothesis (proof case (b))"),
}

GALOIS_SUITE = ["L8", "L9", "L10", "L11", "L12", "L13", "L14", "L16", "L17",
                "T5", "T6", "T7", "T8", "T9", "T10", "T11"]

GREEN_SUITE = [i for i in REGISTRY if i != "T26" and not i.startswith("L59.")]


def checker_ids():
    return sorted(REGISTRY) + sorted(INFINITE_CLAIMS)


def run_checker(checker_id: str, ctx: Context, instance: str = "") -> TheoremReport:
    if checker_id in INFINITE_CLAIMS:
        return TheoremReport(checker_id, instance, SKIPPED_INFINITE, None,
                             "the statement quantifies over an infinite "
                             "carrier; untestable on finite instances")
    if checker_id not in REGISTRY:
        raise UnknownChecker(f"no checker registered under {checker_id!r}")
    start = time.perf_counter()
    note = EXPECTED_FAIL_NOTES.get(checker_id, "")
    checker = REGISTRY[checker_id]
    try:
        unmet = _unmet(ctx, checker)
        if unmet is not None:
            return TheoremReport(checker_id, instance, HYPOTHESIS_UNMET, None,
                                 unmet, time.perf_counter() - start)
        witness = _run(checker, ctx)
    except (MissingAddition, MissingUnit) as e:
        return TheoremReport(checker_id, instance, HYPOTHESIS_UNMET, None,
                             str(e), time.perf_counter() - start)
    except (BudgetExceeded, IncompleteLattice) as e:
        return TheoremReport(checker_id, instance, BUDGET_EXCEEDED, None,
                             str(e), time.perf_counter() - start)
    verdict = PASS if witness is None else FAIL
    return TheoremReport(checker_id, instance, verdict, witness, note,
                         time.perf_counter() - start)
