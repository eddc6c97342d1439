import itertools
import random
from functools import cache

import pytest

from quasiring.algebra import make_table, make_zmod, structure_flags
from quasiring import funcspace, ideals
from quasiring.errors import (
    BudgetExceeded,
    CrossCheckFailed,
    IncompleteLattice,
    NotProper,
)
from quasiring.funcspace import FunctionRing
from quasiring.ideals import (
    Ideal,
    LEFT,
    MULTIPLICATIVE,
    RIGHT,
    RING,
    TWO_SIDED,
    bitset,
    classify_primes,
    closure,
    elements_of,
    enumerated_lattice,
    family_sets,
    ideal_lattice,
    is_prime,
    join,
    members,
    prime_radical,
    principal_table,
    span_applies,
    splits,
    subset_scan,
    vanishing_ideal,
)
from quasiring import topology
from quasiring.topology import (
    clopen_family,
    discrete_space,
    disjoint_union,
    sierpinski_space,
)
from quasiring.sets import mask_key
from quasiring.verify.checkers import Context

from test_funcspace import pointwise, random_magma_ring


@pytest.fixture
def d2z3():
    return FunctionRing(discrete_space(2), make_zmod(3))


@pytest.fixture
def d2z4():
    return FunctionRing(discrete_space(2), make_zmod(4))


def scanned(ring, side=RIGHT, mode=None):
    """The subset scan's ideals as frozensets of value tuples."""
    return {elements_of(ring, b) for b in subset_scan(ring, side, mode)}


def test_generate_ideal_closure(d2z3):
    i = elements_of(d2z3, closure(d2z3, [d2z3.index((0, 1))], RIGHT, RING))
    # (0,1) generates everything vanishing at the first point
    assert i == frozenset({(0, 0), (0, 1), (0, 2)})


def test_principal_ideal_multiplicative_vs_ring(d2z3):
    f = d2z3.index((0, 1))
    m = Ideal(d2z3, principal_table(d2z3, RIGHT, MULTIPLICATIVE)[f],
              RIGHT, MULTIPLICATIVE)
    r = Ideal(d2z3, principal_table(d2z3, RIGHT, RING)[f], RIGHT, RING)
    assert m.elements <= r.elements
    assert (0, 2) in r and (0, 2) in m  # (0,1)·(0,2) = (0,2)


def test_vanishing_ideal_is_point_functions(d2z3):
    i = vanishing_ideal(d2z3, {0}, mode=RING)
    assert i.elements == frozenset({(0, 0), (0, 1), (0, 2)})
    assert i.is_proper()


def test_is_prime_on_point_ideal(d2z3):
    verdict, witness = is_prime(vanishing_ideal(d2z3, {0}, mode=RING))
    assert verdict and witness is None


def test_is_prime_rejects_whole_ring(d2z3):
    whole = Ideal(d2z3, closure(d2z3, range(len(d2z3)), RIGHT, RING),
                  RIGHT, RING)
    with pytest.raises(NotProper):
        is_prime(whole)


def test_point_ideal_not_prime_with_zero_divisors(d2z4):
    verdict, witness = is_prime(vanishing_ideal(d2z4, {0}, mode=RING))
    assert not verdict
    f, g = witness
    i = vanishing_ideal(d2z4, {0}, mode=RING).elements
    assert pointwise(d2z4, "mul", f, g) in i and f not in i and g not in i


def test_lattice_matches_bruteforce_small():
    for mode in (MULTIPLICATIVE, RING):
        ring = FunctionRing(discrete_space(2), make_zmod(2))
        lat = ideal_lattice(ring, mode=mode)
        assert lat.complete
        assert {i.elements for i in lat.ideals} == scanned(ring, mode=mode)


def test_classification_d2z3(d2z3):
    lat = classify_primes(ideal_lattice(d2z3, mode=RING))
    primes = lat.primes()
    expected = {vanishing_ideal(d2z3, {c}, mode=RING).elements
                for c in (0, 1)}
    assert {p.elements for p in primes} == expected
    assert all(p.meta["is_min_max"] for p in primes)
    assert prime_radical(lat) == frozenset({d2z3.theta})


def test_multiplicative_mode_union_of_point_ideals_is_prime():
    # without addition-closure a union of two point ideals is itself an
    # ideal, and it is prime: any product landing in it has a factor in it
    ring = FunctionRing(discrete_space(2), make_zmod(2))
    i0 = vanishing_ideal(ring, {0}, mode=MULTIPLICATIVE)
    i1 = vanishing_ideal(ring, {1}, mode=MULTIPLICATIVE)
    lat = classify_primes(ideal_lattice(ring, mode=MULTIPLICATIVE))
    union = lat.find(i0.bits | i1.bits)
    assert union is not None and union.is_proper()
    assert union.meta["is_prime"]


def test_mult_only_algebra_lattice():
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    ring = FunctionRing(discrete_space(2), make_table(mul, zero=0, unit=1))
    lat = ideal_lattice(ring)
    assert lat.mode == MULTIPLICATIVE
    assert lat.complete
    assert {i.elements for i in lat.ideals} == scanned(
        ring, mode=MULTIPLICATIVE)


def test_prime_radical_is_nilpotents_for_z4_constants():
    # constants over one quasi-component: the ring is a copy of Z_4, whose
    # single prime {0,2} makes the radical the nilpotent pair
    ring = FunctionRing(sierpinski_space(), make_zmod(4))
    lat = classify_primes(ideal_lattice(ring, mode=RING))
    assert [p.elements for p in lat.primes()] == [frozenset({(0,), (2,)})]
    assert prime_radical(lat) == frozenset({(0,), (2,)})


def test_lattice_budget_cut():
    ring = FunctionRing(discrete_space(4), make_zmod(2))   # 167 ideals
    lat = ideal_lattice(ring, mode=MULTIPLICATIVE, budget=20)
    assert not lat.complete and len(lat.ideals) == 21
    with pytest.raises(IncompleteLattice):
        classify_primes(lat)


def test_ring_mode_lattice_budget_cut():
    ring = FunctionRing(discrete_space(4), make_zmod(2))   # 16 ideals
    assert len(ideal_lattice(ring, mode=RING).ideals) == 16
    lat = ideal_lattice(ring, mode=RING, budget=10)
    assert not lat.complete and len(lat.ideals) == 11
    # 2^4 products exceed the budget, so the cut is the pass's
    assert [i.bits for i in lat.ideals] == [
        i.bits for i in enumerated_lattice(ring, mode=RING, budget=10).ideals]
    with pytest.raises(IncompleteLattice):
        classify_primes(lat)


def test_lattice_oracle_disagreement_raises(monkeypatch):
    """Both cross-checks must survive `python -O`: the subset scan of the
    ring under test loses its least ideal (Y's own scan, which the product
    path's factor runs, is left whole).  C(discrete 2, Z_3) takes the
    product path; a ring over a table with no unit takes the pass."""
    scan = ideals.subset_scan
    for ring, product in [(FunctionRing(discrete_space(2), make_zmod(3)), True),
                          (one_sided_rings()[0], False)]:
        def lossy(r, side, mode, ring=ring):
            found = scan(r, side, mode)
            return found - {1 << r.index(r.theta)} if r is ring else found

        monkeypatch.setattr(ideals, "subset_scan", lossy)
        with pytest.raises(CrossCheckFailed):
            ideal_lattice(ring, mode=RING)
        assert (("principals", RIGHT, RING) in ring._core.kept) != product


def small_ring_corpus(max_elements=16):
    """Every ring of at most max_elements elements over discrete spaces of
    1-4 points and Z_2, Z_3, Z_4, seeded random magmas of 2-4 elements, or
    a 3-element algebra with a·b = a for nonzero a, b (left and right
    ideals then differ) and a random non-commutative addition; and the
    4-element algebra with zero multiplication and such an addition, whose
    ring-mode ideals are the additively closed sets holding 0 (a closure
    that sums a pair in one order only misses some).  Over more than one
    point it would have 2^(n-1) multiplicative ideals on n elements."""
    rng = random.Random(2024)
    algebras = [make_zmod(2), make_zmod(3), make_zmod(4)]
    algebras += [random_magma_ring(rng, m) for m in (2, 3, 4)]
    algebras.append(make_table([[0, 0, 0], [0, 1, 1], [0, 2, 2]], zero=0,
                               add=random_magma_ring(rng, 3).add))
    for y in algebras:
        for n in range(1, 5):
            if y.carrier_size ** n <= max_elements:
                yield FunctionRing(discrete_space(n), y)
    yield FunctionRing(discrete_space(1), make_table(
        [[0] * 4] * 4, zero=0, add=random_magma_ring(random.Random(4), 4).add))


def _is_ideal(ring, elems, side, mode):
    """The ideal laws, checked on value tuples."""
    return (ring.theta in elems
            and all((side == LEFT or pointwise(ring, "mul", f, g) in elems)
                    and (side == RIGHT or pointwise(ring, "mul", g, f) in elems)
                    for g in elems for f in ring)
            and (mode == MULTIPLICATIVE
                 or all(pointwise(ring, "add", a, b) in elems
                        for a in elems for b in elems)))


def test_subset_scan_matches_the_ideal_laws():
    checked = 0
    for ring in small_ring_corpus(max_elements=9):
        subsets = [frozenset(c) for k in range(len(ring) + 1)
                   for c in itertools.combinations(ring.elements, k)]
        for side in (RIGHT, LEFT, TWO_SIDED):
            for mode in (MULTIPLICATIVE, RING):
                want = {s for s in subsets if _is_ideal(ring, s, side, mode)}
                assert scanned(ring, side, mode) == want
                checked += 1
    assert checked == 90


def _plain_scan(ring, side):
    """Every ideal in both modes, as bitsets, by testing each of the 2^n
    subsets in turn: absorption one member's row at a time, then addition
    pair by pair on the subsets that absorb."""
    n, theta = len(ring), ring.index(ring.theta)
    ops = {RIGHT: ("mul_t",), LEFT: ("mul",), TWO_SIDED: ("mul", "mul_t")}
    rows = [(1 << g, bitset(ring.row(op, g)))
            for g in range(n) for op in ops[side]]
    absorbing = {mask for mask in range(1 << n) if mask >> theta & 1
                 and not any(mask & gbit and row & ~mask
                             for gbit, row in rows)}
    closed = set()
    for mask in absorbing:
        bits = [g for g in range(n) if mask >> g & 1]
        if all(mask >> ring.row("add", a)[b] & 1 for a in bits for b in bits):
            closed.add(mask)
    return {MULTIPLICATIVE: absorbing, RING: closed}


def _relabelled(y, zero):
    """y with its elements relabelled a -> (a + zero - y.zero) mod m, so the
    copy's zero is the given index."""
    m = y.carrier_size
    to = [(a + zero - y.zero) % m for a in range(m)]
    back = {b: a for a, b in enumerate(to)}

    def table(t):
        return [[to[t[back[a]][back[b]]] for b in range(m)] for a in range(m)]

    return make_table(table(y.mul), zero=zero,
                      unit=None if y.unit is None else to[y.unit],
                      add=None if y.add is None else table(y.add))


def test_pruned_subset_scan_matches_a_plain_scan():
    """The half-reach pruning against a scan of all 2^n subsets, on the
    corpus and on rings whose θ has its bit in the high half (Y's zero not
    index 0), odd element counts among them."""
    rings = list(small_ring_corpus())
    rings += [FunctionRing(discrete_space(q), _relabelled(y, z))
              for q, y, z in [(2, make_zmod(3), 2), (2, make_zmod(4), 3),
                              (3, make_zmod(2), 1),
                              (2, random_magma_ring(random.Random(9), 3), 1)]]
    odd = high = 0
    for ring in rings:
        n, theta = len(ring), ring.index(ring.theta)
        odd += n % 2
        high += theta >= n // 2
        for side in (RIGHT, LEFT, TWO_SIDED):
            want = _plain_scan(ring, side)
            for mode in (MULTIPLICATIVE, RING):
                assert (ideals.subset_scan(ring, side, mode)
                        == want[mode]), (ring, side, mode)
    assert odd >= 4 and high == 4


def test_generate_ideal_is_the_least_ideal_of_the_subset_scan():
    rng = random.Random(5)
    checked = 0
    for ring in small_ring_corpus():
        seeds = [[f] for f in ring] + [rng.sample(ring.elements, 2)
                                       for _ in range(4)]
        for side in (RIGHT, LEFT, TWO_SIDED):
            for mode in (MULTIPLICATIVE, RING):
                every = scanned(ring, side, mode)
                for seed in seeds:
                    least = frozenset.intersection(
                        *(i for i in every if i >= frozenset(seed)))
                    got = closure(ring, map(ring.index, seed), side, mode)
                    assert elements_of(ring, got) == least, (
                        ring, seed, side, mode)
                    checked += 1
    assert checked > 1000


SIDES = (RIGHT, LEFT, TWO_SIDED)


def one_sided_rings():
    """C(discrete 2, Y) for a 3-element Y whose addition is max (so
    associative) and whose multiplication distributes over it on the left
    only, then for its mirror, which distributes on the right only."""
    add = [[max(a, b) for b in range(3)] for a in range(3)]
    mul = [[0, 0, 0], [0, 0, 2], [0, 1, 1]]
    mirror = [list(col) for col in zip(*mul)]
    return [FunctionRing(discrete_space(2), make_table(t, zero=0, add=add))
            for t in (mul, mirror)]


def test_principal_table_matches_per_element_closure():
    """The one-pass table against ``closure`` of each element, on every
    side and mode; rings whose addition is not associative or does not
    distribute on the side take the fallback path."""
    left, right = one_sided_rings()
    fallback = spanned = 0
    for ring in [*small_ring_corpus(), left, right]:
        flags = structure_flags(ring.algebra)
        both = flags.additive_associative and flags.distributive
        paths = [span_applies(ring, side) for side in SIDES]
        if ring is left:
            assert paths == [True, False, False]
        elif ring is right:
            assert paths == [False, True, False]
        else:
            assert paths == [both] * 3
        for side, fast in zip(SIDES, paths):
            modes = [MULTIPLICATIVE]
            if ring.algebra.add is not None:
                modes.append(RING)
                fallback += not fast
                spanned += fast
            for mode in modes:
                want = [closure(ring, [f], side, mode)
                        for f in range(len(ring))]
                assert list(principal_table(ring, side, mode)) == want, (
                    ring, side, mode)
    assert fallback >= 20 and spanned >= 20


def _reach_tables(rng):
    """Random Y for the reach: magmas with no unit (in general not
    associative), magmas with the unit 1, and magmas whose unit 1 acts on
    one side only, each of 2-4 elements; then a fixed magma whose two-sided
    steps make 73 relations."""
    tables = []
    for m in (2, 3, 4):
        for _ in range(2):
            tables.append(random_magma_ring(rng, m))
            mul = [[0 if 0 in (a, b) else b if a == 1 else a if b == 1
                    else rng.randrange(m) for b in range(m)]
                   for a in range(m)]
            tables.append(make_table(mul, zero=0, unit=1))
            for side in (LEFT, RIGHT):
                mul = [[0 if 0 in (a, b) else rng.randrange(m)
                        for b in range(m)] for a in range(m)]
                for a in range(m):
                    if side == LEFT:
                        mul[1][a] = a
                    else:
                        mul[a][1] = a
                tables.append(make_table(mul, zero=0, unit=1, unit_side=side))
    tables.append(make_table([[0, 0, 0, 0], [0, 0, 1, 1], [0, 3, 1, 1],
                              [0, 0, 0, 2]], zero=0))
    return tables


def _searched_reach(ring, side):
    """Per element index, everything reachable from it along the absorbing
    rows, itself included, by a breadth-first search."""
    ops = {RIGHT: ("mul_t",), LEFT: ("mul",), TWO_SIDED: ("mul", "mul_t")}
    out = []
    for g in range(len(ring)):
        seen, todo = {g}, [g]
        while todo:
            x = todo.pop()
            for op in ops[side]:
                fresh = set(ring.row(op, x)) - seen
                seen |= fresh
                todo.extend(fresh)
        out.append(bitset(seen))
    return out


def test_reach_matches_a_search_of_the_absorbing_rows():
    """``_reach``, read off Y's step relations, against a breadth-first
    search of the ring's rows, on random tables with and without a unit,
    not associative, with a one-sided unit, and on Z_n, over 1-3 classes
    and every side."""
    rng = random.Random(31)
    checked = relations = 0
    for y in [*_reach_tables(rng), make_zmod(4), make_zmod(6)]:
        for q in (1, 2, 3):
            if y.carrier_size ** q > 64:
                continue
            ring = FunctionRing(discrete_space(q), y)
            for side in SIDES:
                assert ideals._reach(ring, side) == _searched_reach(
                    ring, side), (y, q, side)
                checked += 1
                relations = max(relations,
                                len(ideals._relations(ring.algebra, side)))
    assert checked > 200 and relations >= 8


def test_reach_moves_the_classes_in_lockstep():
    """One word of steps acts on every class at once: in Y below, 2 reaches
    1 only by x·2 and 1 reaches nothing but 0, so the right principal of
    (2, 1) over two classes lacks (1, 1), which the product of the two
    classes' reaches would hold."""
    y = make_table([[0, 0, 0], [0, 0, 0], [0, 0, 1]], zero=0)
    ring = FunctionRing(discrete_space(2), y)
    got = elements_of(ring, principal_table(ring, RIGHT, MULTIPLICATIVE)[
        ring.index((2, 1))])
    assert got == {(2, 1), (1, 0), (0, 0)}
    one = FunctionRing(discrete_space(1), y)
    per_class = [{f[0] for f in elements_of(one, r)}
                 for r in ideals._reach(one, RIGHT)]
    assert (1, 1) in set(itertools.product(per_class[2], per_class[1]))


def _no_rows(op, i):
    raise AssertionError("the principal table read a ring row")


def test_multiplicative_principal_table_reads_no_rows(monkeypatch):
    """The 4 096-element C(discrete 12, Z_2) at the table cap: its right
    principals come from Y's one step relation with no ring row read, and
    the principal of g is every h whose support lies in g's."""
    ring = FunctionRing(discrete_space(12), make_zmod(2))
    monkeypatch.setattr(ring, "row", _no_rows)
    table = principal_table(ring, RIGHT, MULTIPLICATIVE)
    assert len(table) == 4096
    for g in random.Random(3).sample(range(4096), 12) + [0, 4095]:
        assert table[g] == bitset(h for h in range(4096) if not h & ~g)


def test_reach_relations_past_the_cap_are_refused(monkeypatch):
    """A two-sided reach over a non-commutative Y whose step relations
    generate k = 7 relations (one side alone gives 1 or 2): refused under a
    cap of k − 1, naming the cap and k, and built under a cap of k."""
    y = make_table([[0, 0, 0], [0, 2, 2], [0, 1, 0]], zero=0)
    count = len(ideals._relations(y, TWO_SIDED))
    assert (count, len(ideals._relations(y, RIGHT)),
            len(ideals._relations(y, LEFT))) == (7, 1, 2)
    monkeypatch.setattr(ideals, "PRINCIPAL_TABLE_CAP", count - 1)
    ring = FunctionRing(discrete_space(1), y)   # 3 elements: within the cap
    with pytest.raises(BudgetExceeded) as exc:
        principal_table(ring, TWO_SIDED, MULTIPLICATIVE)
    assert (exc.value.cap, exc.value.reached) == (count - 1, count)
    monkeypatch.setattr(ideals, "PRINCIPAL_TABLE_CAP", count)
    assert list(principal_table(ring, TWO_SIDED, MULTIPLICATIVE)) == [
        closure(ring, [f], TWO_SIDED, MULTIPLICATIVE) for f in range(len(ring))]


def _sum_closure(ring, seeds):
    """θ and the seeds, closed under addition pair by pair."""
    out = {ring.index(ring.theta), *seeds}
    while True:
        grown = out | {ring.row("add", a)[b] for a in out for b in out}
        if grown == out:
            return bitset(out)
        out = grown


def test_span_is_the_additive_closure():
    """``span`` of arbitrary seeds (not absorbing) against closing under
    addition pair by pair, on every ring whose addition is associative."""
    rng = random.Random(17)
    checked = 0
    for ring in [*small_ring_corpus(), *one_sided_rings()]:
        y = ring.algebra
        if y.add is None or not structure_flags(y).additive_associative:
            continue
        n = len(ring)
        for k in (1, 1, 2, 3):
            seeds = rng.sample(range(n), min(k, n))
            assert ideals.span(ring, seeds) == _sum_closure(ring, seeds)
            checked += 1
    assert checked > 30


def test_join_matches_closure_of_the_union():
    """The joins the checkers take, against ``closure`` of the union:
    lattice ideals (T23, L59.19), multiplicative principals (L59.12),
    I(U) with I(U^c) (L69) and random sets holding θ, through
    ``Context.join``; the ideal pairs through ``join`` too."""
    rng = random.Random(23)
    checked = 0
    for ring in [*small_ring_corpus(), *one_sided_rings()]:
        n, classes = len(ring), ring.classes
        everything = (1 << len(classes)) - 1

        def vanishing(c):
            return ideals.vanishing_elements(ring, [
                p for k, cls in enumerate(classes) if c >> k & 1 for p in cls])

        modes = [MULTIPLICATIVE] if ring.algebra.add is None else [
            MULTIPLICATIVE, RING]
        for side in SIDES:
            mult = principal_table(ring, side, MULTIPLICATIVE)
            for mode in modes:
                ideal_pairs = [(a, b) for a in mult for b in mult]
                if mode == RING:
                    lattice = [i.bits for i in
                               ideal_lattice(ring, side, mode).ideals]
                    ideal_pairs += [(a, b) for a in lattice for b in lattice]
                theta = 1 << ring.index(ring.theta)
                other_pairs = [(vanishing(c), vanishing(everything ^ c))
                               for c in range(everything + 1)]
                other_pairs += [(theta | rng.getrandbits(n),
                                 theta | rng.getrandbits(n))
                                for _ in range(8)]
                ctx = Context(ring.space, ring.algebra, side, mode)
                for a, b in ideal_pairs + other_pairs:
                    want = closure(ring, members(a | b), side, mode)
                    assert ctx.join(a, b) == want, (ring, side, mode)
                    checked += 1
                for a, b in ideal_pairs:
                    assert join(ring, a, b, side, mode) == closure(
                        ring, members(a | b), side, mode)
    assert checked > 5000


def test_ring_mode_lattices_past_the_subset_scan():
    """Ring-mode lattices of Z_n^q past 16 elements: τ(n)^q ideals, q·ω(n)
    primes, a radical of (n/rad n)^q elements, through the product path and
    through the pass (C(discrete 8, Z_2) through the product path only:
    the pass takes seconds on it)."""
    for q, n, count, primes, radical, paths in [
            (4, 4, 81, 4, 16, (ideal_lattice, enumerated_lattice)),
            (5, 3, 32, 5, 1, (ideal_lattice, enumerated_lattice)),
            (3, 6, 64, 6, 1, (ideal_lattice, enumerated_lattice)),
            (8, 2, 256, 8, 1, (ideal_lattice,))]:
        for lattice in paths:
            ring = FunctionRing(discrete_space(q), make_zmod(n))
            lat = classify_primes(lattice(ring, mode=RING))
            assert lat.complete and len(lat.ideals) == count
            assert len(lat.primes()) == primes
            assert len(prime_radical(lat)) == radical


def test_sumset_lattices_match_the_join_lattices(monkeypatch):
    """Every ring-mode pass of the corpus, of Z_4^4 and of Z_2^6, on every
    side, against the same pass with each sumset replaced by ``join``:
    the same bitsets in the same order.  Over Z_n^q every ideal is
    principal, so two rings with the zero multiplication, whose ideals are
    the additive submonoids, add joins that no principal lists: Z_2
    addition over 3 classes and max over 2."""
    rings = [r for r in small_ring_corpus() if r.algebra.add is not None]
    rings += [FunctionRing(discrete_space(4), make_zmod(4)),
              FunctionRing(discrete_space(6), make_zmod(2))]
    for q, add in [(3, [[0, 1], [1, 0]]),
                   (2, [[max(a, b) for b in range(3)] for a in range(3)])]:
        zero = [[0] * len(add)] * len(add)
        rings.append(FunctionRing(discrete_space(q),
                                  make_table(zero, zero=0, add=add)))
    real, calls = ideals.sumset, []

    def counted(ring, a, b):
        calls.append(a)
        return real(ring, a, b)

    for ring in rings:
        for side in SIDES:
            monkeypatch.setattr(ideals, "sumset", counted)
            got = [i.bits for i in enumerated_lattice(ring, side, RING).ideals]
            monkeypatch.setattr(ideals, "sumset", lambda r, a, b, side=side:
                                join(r, a, b, side, RING))
            # the pass itself: the first pass is kept under the same key
            want = ideals._enumerated_lattice(ring, side, RING, 100_000).ideals
            assert got == [i.bits for i in want], (ring, side)
    assert len(calls) > 5000


def _no_sumset(ring, a, b):
    raise AssertionError("the pass took a sumset")


def test_a_noncommutative_addition_joins_by_closure(monkeypatch):
    """Y under x + y = y for nonzero x, y (associative, not commutative)
    with the zero multiplication passes ``span_applies`` but not the
    sumset gate: over two classes {θ, 10, 11} + {θ, 22} lacks
    22 + 10 = 12, so the pass must keep ``join``."""
    add = [[b if a and b else a + b for b in range(3)] for a in range(3)]
    ring = FunctionRing(discrete_space(2), make_table([[0] * 3] * 3, zero=0,
                                                      add=add))
    flags = structure_flags(ring.algebra)
    assert flags.additive_associative and not flags.additive_commutative
    a = bitset(map(ring.index, [(0, 0), (1, 0), (1, 1)]))
    p = bitset(map(ring.index, [(0, 0), (2, 2)]))
    assert ideals.sumset(ring, a, p) != join(ring, a, p, RIGHT, RING)
    monkeypatch.setattr(ideals, "sumset", _no_sumset)
    for side in SIDES:
        assert span_applies(ring, side)
        got = {i.bits for i in enumerated_lattice(ring, side, RING).ideals}
        assert got == subset_scan(ring, side, RING)


def split_tables():
    """Y with addition whose unit acts on one side only.  The first two are
    under max: a unit acting on the left (a right ideal of C(Z, Y) splits
    into slices, a left one need not), then the mirror.  The last two have
    a Z_3 addition, one unit acting on the left and one on the right.  A
    two-sided ideal splits under either."""
    top = [[max(a, b) for b in range(3)] for a in range(3)]
    mul = [[0, 0, 0], [0, 1, 2], [0, 0, 0]]
    mirror = [list(col) for col in zip(*mul)]
    z3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    return [
        make_table(mul, zero=0, unit=1, unit_side=LEFT, add=top),
        make_table(mirror, zero=0, unit=1, unit_side=RIGHT, add=top),
        make_table([[0, 0, 0], [0, 1, 2], [0, 0, 2]], zero=0, unit=1,
                   unit_side=LEFT, add=z3),
        make_table([[0, 0, 0], [0, 1, 1], [0, 2, 0]], zero=0, unit=1,
                   unit_side=RIGHT, add=z3),
    ]


def _products(ring, side):
    """Every Π J_c over the ring's classes, each J_c an ideal of Y from the
    subset scan of C(discrete 1, Y), as sets of value tuples."""
    one = FunctionRing(discrete_space(1), ring.algebra)
    factors = [{f[0] for f in elements_of(one, b)}
               for b in subset_scan(one, side, RING)]
    return {frozenset(f for f in ring.elements
                      if all(map(set.__contains__, js, f)))
            for js in itertools.product(factors, repeat=len(ring.classes))}


def test_ideal_lattice_matches_the_enumerated_lattice():
    """``ideal_lattice`` against the pass of ``enumerated_lattice`` (same
    bitsets in the same order, both complete) on every side, over Z_n^q up
    to 81 elements, C(discrete 4, Z_4), C(Sierpiński + point, Z_4) and the
    one-sided tables over discrete 2 and 3.  The product path, seen as a
    lattice other than the pass's, is taken exactly where the gate admits
    and there are two classes or more, and it lists the products of Y's
    ideals; C(Sierpiński + point, Z_4) reads the product lattice that
    C(discrete 2, Z_4) kept on their core.  Where the gate refuses a
    one-sided table, the lattice of C(discrete 2, Y) is not those
    products."""
    rings = [FunctionRing(discrete_space(q), make_zmod(n))
             for n in range(2, 10) for q in range(1, 7) if n ** q <= 81]
    rings += [FunctionRing(discrete_space(4), make_zmod(4)),
              FunctionRing(disjoint_union(sierpinski_space(),
                                          discrete_space(1)), make_zmod(4))]
    tables = split_tables()
    assert [[splits(y, side) for side in SIDES] for y in tables] == [
        [True, False, True], [False, True, True], [True, False, True],
        [False, True, True]]
    rings += [FunctionRing(discrete_space(q), y) for y in tables
              for q in (2, 3)]
    taken = 0
    for ring in rings:
        for side in SIDES:
            got = ideal_lattice(ring, side, RING)
            want = enumerated_lattice(ring, side, RING)
            product = got is not want
            assert product == (splits(ring.algebra, side)
                               and len(ring.classes) >= 2), (ring, side)
            assert [i.bits for i in got.ideals] == [i.bits for i in want.ideals]
            assert got.complete and want.complete
            if product:
                assert {i.elements for i in got.ideals} == _products(ring, side)
                taken += 1
    assert taken == 67
    for y, side in [(tables[0], LEFT), (tables[1], RIGHT)]:
        ring = FunctionRing(discrete_space(2), y)
        got = {i.elements for i in ideal_lattice(ring, side, RING).ideals}
        assert got != _products(ring, side)


def test_multiplicative_inventories_past_the_subset_scan():
    """Multiplicative lattices of Z_n^q past 16 elements: (k+1)^q − 1
    primes and q·m minimal primes (k the primes of Z_n as a monoid, m its
    minimal primes), none of them min-max for q ≥ 2."""
    for q, n, count, primes, minimal, radical in [
            (3, 4, 979, 7, 3, 8), (4, 3, 167, 15, 4, 1),
            (2, 6, 167, 15, 4, 1)]:
        ring = FunctionRing(discrete_space(q), make_zmod(n))
        lat = classify_primes(ideal_lattice(ring, mode=MULTIPLICATIVE))
        assert lat.complete and len(lat.ideals) == count
        got = lat.primes()
        assert len(got) == primes
        assert sum(p.meta["is_minimal_prime"] for p in got) == minimal
        assert not any(p.meta["is_min_max"] for p in got)
        assert len(prime_radical(lat)) == radical


def down_set_count(sets) -> int:
    """The number of down-sets, the empty one included, of the distinct
    bitsets in `sets` under inclusion.  Memoised on the set s of members
    still free: a down-set of s either lacks the least member x (then it
    lacks everything above x) or holds it (then it holds everything below
    x), and what is left is a down-set of the rest.  Members are taken
    smallest first."""
    elems = sorted(set(sets), key=lambda b: (b.bit_count(), b))
    below = [bitset(j for j, b in enumerate(elems) if b & ~a == 0)
             for a in elems]
    above = [bitset(j for j, b in enumerate(elems) if a & ~b == 0)
             for a in elems]

    @cache
    def count(s: int) -> int:
        if not s:
            return 1
        x = (s & -s).bit_length() - 1
        return count(s & ~above[x]) + count(s & ~below[x])
    return count((1 << len(elems)) - 1)


def right_principals(ring) -> set:
    """Every multiplicative right principal ideal, as a bitset: θ and g,
    closed by a search over the ``mul_t`` rows (x·h for every x) of what
    it holds."""
    theta = ring.index(ring.theta)
    out = set()
    for g in range(len(ring.elements)):
        seen, todo = {theta, g}, [g]
        while todo:
            fresh = set(ring.row("mul_t", todo.pop())) - seen
            seen |= fresh
            todo += fresh
        out.add(bitset(seen))
    return out


#: Dedekind numbers M(q), the down-sets of the subsets of q things
#: (OEIS A000372)
DEDEKIND = {1: 3, 2: 6, 3: 20, 4: 168, 5: 7581, 6: 7828354}


def test_multiplicative_lattice_sizes_match_the_down_set_count():
    """Multiplicative joins are unions, so the ideals are the down-sets of
    the distinct principals under inclusion, the empty one aside.  That
    count, off principals found by their own search, is the size of the
    right multiplicative lattice of Z_2^q (q ≤ 5), Z_3^4, Z_4^3 and Z_6^2,
    up to 81 elements and 7 580 ideals, where the subset scan stops at 16
    elements.  The principals of Z_2^q are the subsets of the q classes,
    so the count is Dedekind(q) − 1, up to q = 6 (no lattice is built)."""
    for q, n in [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (4, 3), (3, 4),
                 (2, 6), (6, 2)]:
        ring = FunctionRing(discrete_space(q), make_zmod(n))
        count = down_set_count(right_principals(ring)) - 1
        if n == 2:
            assert count == DEDEKIND[q] - 1
        if q < 6:
            lat = enumerated_lattice(ring, RIGHT, MULTIPLICATIVE)
            assert lat.complete and len(lat.ideals) == count, (q, n)


def test_principal_table_past_its_cap_is_refused():
    """The table, and through it ``ideal_lattice``: 2^13 products would be
    within the lattice budget, but the ring is past the table cap."""
    ring = FunctionRing(discrete_space(13), make_zmod(2))
    for build in (principal_table, ideal_lattice):
        for mode in (MULTIPLICATIVE, RING):
            with pytest.raises(BudgetExceeded) as exc:
                build(ring, RIGHT, mode)
            assert (exc.value.cap, exc.value.reached) == (
                ideals.PRINCIPAL_TABLE_CAP, 2 ** 13)


def test_take_decodes_a_bitset_as_indexing_does():
    rng = random.Random(13)
    for ring in small_ring_corpus():
        n = len(ring)
        fresh = FunctionRing(ring.space, ring.algebra).elements
        got = fresh.take(range(n))
        assert all(fresh[i] is got[i] for i in range(n))    # one memo
        for bits in [0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(20))]:
            want = [ring.elements[i] for i in members(bits)]
            assert ring.elements.take(members(bits)) == want
            assert elements_of(ring, bits) == frozenset(want)
            assert Ideal(ring, bits).sorted_elements() == want
        for bad in ([n], [0, n + 3], [-1]):
            with pytest.raises(IndexError):
                ring.elements.take(bad)


def _member_list_key(b):
    return b.bit_count(), members(b)


def test_lattice_key_orders_as_the_member_lists():
    rng = random.Random(11)
    # across byte boundaries, the bench rings' widths 16, 27, 64 and 81
    # among them; the single bits tie on size at every position
    for n in range(1, 101):
        bits = [rng.getrandbits(n) for _ in range(300)]
        bits += [1 << i for i in range(n)]
        rng.shuffle(bits)
        assert (sorted(bits, key=mask_key(n))
                == sorted(bits, key=_member_list_key))
    lattices = 0
    for ring in small_ring_corpus():
        for side in (RIGHT, LEFT, TWO_SIDED):
            for mode in (MULTIPLICATIVE, RING):
                bits = [i.bits for i in ideal_lattice(ring, side, mode).ideals]
                want = sorted(bits, key=_member_list_key)
                assert bits == want
                shuffled = bits[::-1]
                rng.shuffle(shuffled)
                assert sorted(shuffled, key=mask_key(len(ring))) == want
                lattices += 1
    assert lattices > 100


def test_classification_matches_the_definitions():
    for ring in small_ring_corpus():
        for side in (RIGHT, LEFT, TWO_SIDED):
            for mode in (MULTIPLICATIVE, RING):
                lat = classify_primes(ideal_lattice(ring, side, mode))
                proper = [i.elements for i in lat.ideals if i.is_proper()]
                primes = [p for p in proper
                          if not any(pointwise(ring, "mul", f, g) in p
                                     for f in ring if f not in p
                                     for g in ring if g not in p)]
                for i in lat.ideals:
                    e, meta = i.elements, i.meta
                    assert meta["is_prime"] == (e in primes)
                    assert meta["is_maximal"] == (
                        e in proper and not any(e < j for j in proper))
                    if e in primes:
                        assert meta["is_minimal_prime"] == (
                            not any(q < e for q in primes))
                        assert meta["is_maximal_prime"] == (
                            not any(e < q for q in primes))


def test_lattice_columns_are_the_membership_transpose():
    for ring in small_ring_corpus():
        for side in SIDES:
            lat = ideal_lattice(ring, side, MULTIPLICATIVE)
            assert len(lat.held) == len(ring)
            for x, column in enumerate(lat.held):
                assert column == bitset(
                    k for k, i in enumerate(lat.ideals) if i.bits >> x & 1)


def test_prime_witness_is_the_least_pair():
    """``prime_witness`` against a scan of every index pair in order, with
    products taken on value tuples, on every proper ideal of the corpus, on
    all three sides and both modes."""
    checked = witnessed = 0
    for ring in small_ring_corpus():
        n = len(ring)
        product = [[ring.index(pointwise(ring, "mul", f, g)) for g in ring]
                   for f in ring]
        modes = [MULTIPLICATIVE] if ring.algebra.add is None else [
            MULTIPLICATIVE, RING]
        for side in SIDES:
            for mode in modes:
                for i in ideal_lattice(ring, side, mode).ideals:
                    if not i.is_proper():
                        continue
                    want = next(
                        ((f, g) for f in range(n) for g in range(n)
                         if not i.bits >> f & 1 and not i.bits >> g & 1
                         and i.bits >> product[f][g] & 1), None)
                    assert ideals.prime_witness(ring, i.bits) == want, (
                        ring, side, mode, i)
                    checked += 1
                    witnessed += want is not None
    assert checked > 500 and witnessed > 300


def _refuse(masks):
    raise AssertionError("the families enumerated a clopen family")


def test_family_sets_incidence(monkeypatch):
    """U_I against χ_U ∈ I on value tuples, for every clopen of the
    independent enumeration, and P against its definition, on every unital
    ring of the corpus plus C(Sierpiński + point, Z_3); neither the
    families nor the context's copy of them enumerate a clopen family."""
    rings = [r for r in small_ring_corpus() if r.algebra.unit is not None]
    rings.append(FunctionRing(
        disjoint_union(sierpinski_space(), discrete_space(1)), make_zmod(3)))
    cases = [(ring, clopen_family(ring.space)) for ring in rings]
    monkeypatch.setattr(topology, "all_unions", _refuse)
    monkeypatch.setattr(topology, "clopen_family", _refuse)
    checked = 0
    for ring, clopens in cases:
        ends = {frozenset({ring.theta}), frozenset(ring.elements)}
        for side in (RIGHT, LEFT, TWO_SIDED):
            for mode in (MULTIPLICATIVE, RING):
                lat = classify_primes(ideal_lattice(ring, side, mode))
                fam = family_sets(lat)
                assert len(fam.chi) == len(clopens)
                assert len(fam.U) == len(lat.ideals)
                for u in clopens:
                    c = sum(1 << k for k, cls in enumerate(ring.classes)
                            if cls <= u)
                    chi = ring.chi(u)
                    for i in lat.ideals:
                        assert (fam.U[i.bits] >> c & 1) == (chi in i.elements)
                        checked += 1
                want = {p.elements for p in lat.primes()} | ends
                assert [i.elements for i in fam.P] == [
                    i.elements for i in lat.ideals if i.elements in want]
                assert {i.elements for i in fam.P} == want
                ctx = Context(ring.space, ring.algebra, side, mode)
                assert ctx.families.U == fam.U
    assert checked > 2000


def test_a_second_call_returns_the_kept_lattice(monkeypatch):
    """``ideal_lattice`` and ``enumerated_lattice`` keep what they build on
    the ring's core: a second call, here from a ring over another space
    with the same core, returns the same object, whether a product lattice,
    a pass or an incomplete pass.  Each budget reads its own pass, the
    products are not the pass, a lattice is classified once and holds the
    one ``FamilySets`` that ``family_sets`` returns, and a pass the table
    cap refuses is built once and raised again, each time as a copy that
    the core does not hold."""
    z4 = make_zmod(4)
    ring = FunctionRing(discrete_space(2), z4)
    glued = FunctionRing(disjoint_union(sierpinski_space(),
                                        discrete_space(1)), z4)
    assert glued._core is ring._core
    for build, side, mode, budget in [
            (ideal_lattice, RIGHT, RING, 100_000),
            (ideal_lattice, LEFT, MULTIPLICATIVE, 100_000),
            (enumerated_lattice, RIGHT, RING, 100_000),
            (enumerated_lattice, TWO_SIDED, MULTIPLICATIVE, 5)]:
        first = build(ring, side, mode, budget)
        assert build(glued, side, mode, budget) is first
        assert build(ring, side, mode, budget) is first
    cut = enumerated_lattice(ring, TWO_SIDED, MULTIPLICATIVE, 5)
    whole = enumerated_lattice(ring, TWO_SIDED, MULTIPLICATIVE, 100)
    assert not cut.complete and whole.complete and cut is not whole
    products = ideal_lattice(ring, RIGHT, RING)
    assert products is not enumerated_lattice(ring, RIGHT, RING)
    assert classify_primes(products) is products and products.classified
    families = family_sets(products)
    assert family_sets(ideal_lattice(glued, RIGHT, RING)) is families
    assert families is products.families
    passes, build = [], ideals._enumerated_lattice

    def counted(*args):
        passes.append(args)
        return build(*args)
    monkeypatch.setattr(ideals, "_enumerated_lattice", counted)
    raised = []
    for _ in range(3):
        big = FunctionRing(discrete_space(13), make_zmod(2))
        with pytest.raises(BudgetExceeded) as exc:
            enumerated_lattice(big, RIGHT, MULTIPLICATIVE)
        raised.append(exc.value)
    assert len(passes) == 1 and big._core.entries == 0
    kept = big.kept(("lattice", RIGHT, MULTIPLICATIVE, 100_000))
    assert kept.__traceback__ is None
    assert all(e is not kept and e is not raised[0] for e in raised[1:])
    assert {(type(e), e.args, e.cap, e.reached) for e in raised} == {
        (BudgetExceeded, kept.args, ideals.PRINCIPAL_TABLE_CAP, 2 ** 13)}


def test_a_kept_product_lattice_is_read_before_its_factor(monkeypatch):
    """A ring-mode ``ideal_lattice`` call whose budget admits the kept
    product lattice returns it without reading Y's own lattice; a smaller
    budget still reads the factor and then the pass under that budget."""
    ring = FunctionRing(discrete_space(2), make_zmod(6))
    products = ideal_lattice(ring, RIGHT, RING)
    assert len(products.ideals) == 4 ** 2
    calls, build = [], ideals.enumerated_lattice

    def counted(ring, side, mode, budget):
        calls.append((len(ring.classes), mode, budget))
        return build(ring, side, mode, budget)
    monkeypatch.setattr(ideals, "enumerated_lattice", counted)
    for budget in (100_000, 16):
        assert ideal_lattice(ring, RIGHT, RING, budget) is products
    assert calls == []
    cut = ideal_lattice(ring, RIGHT, RING, 15)
    assert calls == [(1, RING, 15), (2, RING, 15)]
    assert not cut.complete and len(cut.ideals) == 16
    calls.clear()
    ideal_lattice(ring, RIGHT, MULTIPLICATIVE)
    assert calls == [(2, MULTIPLICATIVE, 100_000)]


def test_a_refused_lattice_is_built_and_checked_again(monkeypatch):
    """Under a cap that keeps nothing, every call builds its lattice again
    and runs the subset scan of its ring again (once for a pass, once for
    the products, which also scan Y through their factor's pass), and the
    build equals the one a default cap keeps: the same bitsets in the same
    order, the same flags on every ideal and the same U_I."""
    rings = [(2, make_zmod(3)), (2, make_zmod(4)), (3, make_zmod(2)),
             *((2, y) for y in split_tables()[:2])]
    cases = [(q, y, side, mode, build) for q, y in rings
             for side in SIDES for mode in (MULTIPLICATIVE, RING)
             for build in (ideal_lattice, enumerated_lattice)]

    def built(q, y, side, mode, build):
        lat = classify_primes(build(FunctionRing(discrete_space(q), y),
                                    side, mode))
        return lat, (lat.families.U if y.unit is not None else None)

    kept = [built(*case) for case in cases]
    monkeypatch.setattr(funcspace, "CORES", funcspace.CoreCache())
    monkeypatch.setattr(funcspace, "ROW_CACHE_ENTRIES", 0)
    scans, scan = [], ideals.subset_scan

    def counted(ring, side, mode):
        scans.append(len(ring.classes))
        return scan(ring, side, mode)
    monkeypatch.setattr(ideals, "subset_scan", counted)
    for case, (lat, U) in zip(cases, kept):
        q, y, side, mode, build = case
        for _ in range(2):
            scans.clear()
            fresh, fresh_U = built(*case)
            assert fresh is not lat
            assert scans.count(q) == 1, case
            assert [i.bits for i in fresh.ideals] == [i.bits for i in lat.ideals]
            assert [i.meta for i in fresh.ideals] == [i.meta for i in lat.ideals]
            assert fresh_U == U
