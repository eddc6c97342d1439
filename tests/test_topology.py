import itertools
import random
from pathlib import Path

import pytest

from quasiring import topology, zariski
from quasiring.algebra import make_table, make_zmod, zero_divisors
from quasiring.dsl import parse_spec
from quasiring.errors import (
    BudgetExceeded,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
)
from quasiring.funcspace import FunctionRing
from quasiring.sets import INF, SeqSet
from quasiring.topology import (
    ExplicitSpace,
    SequenceSpace,
    TopologyComparison,
    clopen_base_topology,
    clopen_family,
    compare_topologies,
    discrete_space,
    disjoint_union,
    indiscrete_space,
    quasi_component,
    quasi_component_partition,
    sierpinski_space,
    validate_topology,
)
from quasiring.verify import (
    PASS,
    Context,
    InstanceSpec,
    random_instance,
    run_checker,
)
from quasiring.zariski import (
    compare_T1_TZ_T,
    zariski_closed_family,
    zero_set_space,
)


def test_discrete_space_all_sets_open():
    z = discrete_space(3)
    assert len(z.opens) == 8
    assert z.is_clopen({1})
    assert z.quasi_masks == (0b001, 0b010, 0b100)


def test_indiscrete_space_two_opens():
    z = indiscrete_space(4)
    assert z.opens == frozenset({frozenset(), z.full})
    assert quasi_component(z, 0) == z.full


def test_sierpinski_quasi_component_not_separated():
    z = sierpinski_space()
    assert z.is_open({0}) and not z.is_open({1})
    assert quasi_component(z, 0) == frozenset({0, 1})
    assert z.quasi_masks == (0b11, 0b11)


def test_validate_topology_auto_close():
    z = validate_topology(3, [{0}, {1}], auto_close=True)
    assert z.is_open({0, 1})
    assert z.is_open(frozenset())
    assert z.is_open({0, 1, 2})


def test_validate_topology_rejects_missing_union():
    with pytest.raises((NotClosedUnderUnion, NotClosedUnderIntersection)):
        validate_topology(3, [frozenset(), frozenset({0, 1, 2}),
                              frozenset({0}), frozenset({1})])


def test_disjoint_union_of_sierpinskis():
    z = disjoint_union(sierpinski_space(), sierpinski_space())
    assert z.point_count == 4
    parts = quasi_component_partition(z)
    assert parts == (frozenset({0, 1}), frozenset({2, 3}))
    assert z.is_clopen({0, 1})


def test_quotient_space_is_totally_separated():
    # T6: each of the two classes is clopen, so the quotient is discrete
    z = disjoint_union(sierpinski_space(), sierpinski_space())
    assert run_checker("T6", Context(z, make_zmod(2))).verdict == PASS


def test_clopen_family_discrete():
    z = discrete_space(2)
    assert set(clopen_family(z)) == {frozenset(), frozenset({0}),
                                     frozenset({1}), frozenset({0, 1})}


def test_clopen_base_topology_coarser_than_original():
    z = sierpinski_space()
    t1 = clopen_base_topology(z)
    assert compare_topologies(t1, z).verdict == "first-strictly-coarser"
    assert compare_topologies(t1, t1).verdict == "equal"


def test_compare_topologies_incomparable():
    a = ExplicitSpace(2, (0b01, 0b11))      # {0} open
    b = ExplicitSpace(2, (0b11, 0b10))      # {1} open
    assert compare_topologies(a, b) == TopologyComparison(
        "incomparable", frozenset({0}), frozenset({1}))


def test_sequence_space_membership():
    z = SequenceSpace()
    singleton_inf = SeqSet(frozenset(), False, True)
    assert z.is_closed(singleton_inf)
    assert not z.is_open(singleton_inf)
    assert z.is_clopen(SeqSet.of([3]))
    assert z.is_clopen(SeqSet.cofinite([3]))
    assert quasi_component(z, INF) == singleton_inf


def test_random_instance_deterministic():
    spec = InstanceSpec(seed=42, space_kind="explicit-random",
                        algebra_kind="table")
    s1, a1 = random_instance(spec)
    s2, a2 = random_instance(spec)
    assert s1 == s2
    assert a1 == a2


def test_random_instances_are_topologies():
    for k in range(100):
        spec = InstanceSpec(seed=k, space_kind="explicit-random")
        space, _ = random_instance(spec)
        # re-validating the opens must succeed without auto-closing
        validate_topology(space.point_count, space.opens)


# -- set-level oracles for the bitmask layer ---------------------------------

def sort_family(family):
    """The order of set families, by definition: by size, then by the
    ascending member list."""
    return sorted(family, key=lambda s: (len(s), sorted(s)))


def zariski_as_space(zt):
    """TZ by its definition: the topology generated by the complements of
    the closed family."""
    full = zt.space.full
    return validate_topology(zt.space.point_count,
                             [full - c for c in zt.closed_family],
                             auto_close=True)


def pairwise_closure(n, sets, auto_close=True):
    """Close a family under pairwise union and intersection, round by round;
    without auto_close, raise at the first pair (in sorted order) whose union
    or intersection is missing."""
    full = frozenset(range(n))
    fam = {frozenset(s) for s in sets} | {frozenset(), full}
    while True:
        new = set()
        for a, b in itertools.combinations(sorted(fam, key=sorted), 2):
            for c, error in ((a | b, NotClosedUnderUnion),
                             (a & b, NotClosedUnderIntersection)):
                if c not in fam:
                    if not auto_close:
                        raise error(a, b)
                    new.add(c)
        if not new:
            return frozenset(fam)
        fam |= new


def clopens_by_definition(n, opens):
    full = frozenset(range(n))
    return {u for u in opens if full - u in opens}


def quasi_partition_by_definition(n, opens):
    clopens = clopens_by_definition(n, opens)
    comps = {frozenset(range(n)).intersection(*[c for c in clopens if x in c])
             for x in range(n)}
    return tuple(sorted(comps, key=min))


def quotient_opens_by_subset_scan(n, opens, classes):
    return {frozenset(s)
            for k in range(len(classes) + 1)
            for s in itertools.combinations(range(len(classes)), k)
            if frozenset().union(*[classes[i] for i in s]) in opens}


def compare_by_open_families(a, b):
    """compare_topologies by its definition, on the enumerated families."""
    only_a = sort_family(a.opens - b.opens)
    only_b = sort_family(b.opens - a.opens)
    verdict = {(False, False): "equal",
               (False, True): "first-strictly-coarser",
               (True, False): "first-strictly-finer",
               (True, True): "incomparable"}[bool(only_a), bool(only_b)]
    return TopologyComparison(verdict, only_a[0] if only_a else None,
                              only_b[0] if only_b else None)


def random_subbasis(rng, n):
    p = rng.choice([0.2, 0.4, 0.6])
    return [frozenset(x for x in range(n) if rng.random() < p)
            for _ in range(rng.randint(0, n + 2))]


def test_neighbourhood_topology_matches_pairwise_closure():
    rng = random.Random(11)
    for n in range(1, 9):
        for _ in range(40):
            sets = random_subbasis(rng, n)
            want = pairwise_closure(n, sets)
            space = validate_topology(n, sets, auto_close=True)
            assert space.opens == want
            for bits in range(1 << n):
                s = topology.points_of(bits)
                assert space.is_open(s) == (s in want)
                assert space.is_closed(s) == (space.full - s in want)
                assert space.is_clopen(s) == (s in want
                                              and space.full - s in want)
            classes = quasi_partition_by_definition(n, want)
            assert quasi_component_partition(space) == classes
            assert [quasi_component(space, x) for x in range(n)] == [
                next(c for c in classes if x in c) for x in range(n)]
            clopens = clopens_by_definition(n, want)
            assert set(clopen_family(space)) == clopens
            t1 = clopen_base_topology(space)
            assert t1.opens == pairwise_closure(n, clopens)
            # the quotient by the quasi-components is discrete: every set
            # of classes has an open union
            q = len(classes)
            assert quotient_opens_by_subset_scan(n, want, classes) == {
                frozenset(s) for k in range(q + 1)
                for s in itertools.combinations(range(q), k)}
            # verdicts and witnesses against the enumerated families, for
            # random pairs, the space against its clopen base and itself
            pairs = [(space, t1), (t1, space),
                     (space, validate_topology(n, want))]
            for _ in range(3):
                other = validate_topology(n, random_subbasis(rng, n),
                                          auto_close=True)
                pairs += [(space, other), (other, space)]
            for a, b in pairs:
                assert compare_topologies(a, b) == compare_by_open_families(
                    a, b)


def test_strict_validation_matches_the_pairwise_scan():
    rng = random.Random(12)
    for n in range(1, 8):
        for _ in range(30):
            fam = set(pairwise_closure(n, random_subbasis(rng, n)))
            # knock out or add a set, which may or may not break the axioms
            if rng.random() < 0.5 and len(fam) > 2:
                fam.discard(rng.choice(sorted(fam - {frozenset(),
                                                     frozenset(range(n))},
                                              key=sorted)))
            else:
                fam.add(frozenset(x for x in range(n) if rng.random() < 0.5))
            try:
                want = pairwise_closure(n, fam, auto_close=False)
            except (NotClosedUnderUnion, NotClosedUnderIntersection) as exc:
                with pytest.raises(type(exc)) as got:
                    validate_topology(n, fam)
                assert got.value.witness == exc.witness
            else:
                assert validate_topology(n, fam).opens == want


def test_witness_pairs_are_the_first_in_sorted_order():
    with pytest.raises(NotClosedUnderUnion) as err:
        validate_topology(3, [frozenset(), frozenset({0, 1, 2}),
                              frozenset({1}), frozenset({0})])
    assert err.value.witness == (frozenset({0}), frozenset({1}))
    with pytest.raises(NotClosedUnderIntersection) as err:
        validate_topology(3, [frozenset(), frozenset({0, 1, 2}),
                              frozenset({1, 2}), frozenset({0, 1})])
    assert err.value.witness == (frozenset({0, 1}), frozenset({1, 2}))


def test_disjoint_union_matches_the_set_product():
    a = validate_topology(3, [{0}, {0, 1}], auto_close=True)
    b = disjoint_union(sierpinski_space(), discrete_space(1))
    z = disjoint_union(a, b)
    assert z.opens == {u | frozenset(p + 3 for p in v)
                       for u in a.opens for v in b.opens}


def zero_set_closure(ring):
    """The closed family and the union test as computed per element."""
    basic = {ring.zero_set(f) for f in ring.elements} | {ring.space.full}
    closed = set(basic)
    while True:
        new = {a & b for a in closed for b in basic} - closed
        if not new:
            break
        closed |= new
    union_closed = all(a | b in closed for a in closed for b in closed)
    return closed, union_closed


def test_zariski_family_matches_the_per_element_closure():
    rng = random.Random(13)
    f3 = make_table(((0, 0, 0), (0, 1, 2), (0, 2, 1)), zero=0, unit=1)
    for n in range(1, 6):
        for _ in range(6):
            space = validate_topology(n, random_subbasis(rng, n),
                                      auto_close=True)
            for algebra in (make_zmod(2), make_zmod(3), f3):
                ring = FunctionRing(space, algebra)
                closed, union_closed = zero_set_closure(ring)
                zt = zariski_closed_family(ring)
                assert set(zt.closed_family) == closed
                assert list(zt.closed_family) == sort_family(closed)
                tz = zariski_as_space(zt)
                assert tz.opens == {space.full - c for c in closed}
                assert zero_set_space(ring) == tz
                assert zt.union_closed == union_closed
                assert zt.union_witness is None


def only_elements(monkeypatch, ring, *elements):
    """Make the ring's per-element zero masks those of the listed value
    tuples alone, as if the ring held no other element."""
    masks = [sum(1 << c for c, v in enumerate(f) if v == 0) for f in elements]
    monkeypatch.setattr(ring, "zero_classes", lambda: masks)


def test_zariski_family_is_read_off_the_ring_elements(monkeypatch):
    # a ring missing elements must show in TZ, so that T1 = TZ can fail
    ring = FunctionRing(discrete_space(2), make_zmod(2))
    only_elements(monkeypatch, ring, (0, 0), (1, 0), (1, 1))
    zt = zariski_closed_family(ring)
    assert zt.closed_family == (frozenset(), frozenset({1}),
                                frozenset({0, 1}))
    assert compare_T1_TZ_T(ring)[0].verdict == "first-strictly-finer"
    # V(0,1,1) ∪ V(1,0,1) is no V(f): union closure fails, and past the
    # cap the closure is not materialised
    ring = FunctionRing(discrete_space(3), make_zmod(2))
    only_elements(monkeypatch, ring, (0, 1, 1), (1, 0, 1))
    zt = zariski_closed_family(ring)
    assert not zt.union_closed
    assert zt.union_witness == (frozenset({0}), frozenset({1}))
    monkeypatch.setattr(zariski, "MATERIALIZE_CAP", 2)
    assert zariski_closed_family(ring).closed_family is None


def corpus_rings():
    """The finite rings of the spec corpus, zero-divisor-free or not."""
    for path in sorted((Path(__file__).parent / "specs").glob("*.qr")):
        spec = parse_spec(path.read_text())
        for d in spec.ring_defs.values():
            space = spec.spaces[d.space]
            if isinstance(space, ExplicitSpace):
                yield FunctionRing(space, spec.algebras[d.algebra])


def test_zero_set_space_matches_the_closed_family_reference(monkeypatch):
    # U_x read off the masks the elements realise against the topology
    # generated by the complements of their ∩-closure: on the corpus, on
    # q = 1..10 classes, on both sides of the byte boundary (masks over 8
    # classes are bytes, over 9 a list), on glued blocks with more points
    # than classes, and on partial rings
    rng = random.Random(31)
    rings = [r for r in corpus_rings() if not zero_divisors(r.algebra)]
    assert len(rings) >= 8
    rings += [FunctionRing(discrete_space(q), make_zmod(m))
              for q in range(1, 11) for m in (2, 3) if m ** q <= 3 ** 9]
    blocks = [glued_blocks(rng, sizes) for sizes in
              [(3, 2, 1, 1, 1, 1, 1, 1), (2, 2, 2, 1, 1, 1, 1, 1, 1)]]
    rings += [FunctionRing(z, make_zmod(m)) for z in blocks for m in (2, 3)]
    assert {len(r.classes) for r in rings} >= set(range(1, 11))
    for ring in rings:
        assert zero_set_space(ring) == zariski_as_space(
            zariski_closed_family(ring))
    partial = [((2, make_zmod(2)), ((0, 0), (1, 0), (1, 1))),
               ((3, make_zmod(2)), ((0, 1, 1), (1, 0, 1))),
               ((3, make_zmod(3)), ((0, 1, 2), (2, 0, 0), (1, 1, 0)))]
    for (n, algebra), elements in partial:
        ring = FunctionRing(discrete_space(n), algebra)
        only_elements(monkeypatch, ring, *elements)
        tz = zero_set_space(ring)
        assert tz == zariski_as_space(zariski_closed_family(ring))
        assert tz != discrete_space(n)
    # planted lists of some of a ring's masks, over 8 classes (where the
    # ring's own masks are bytes) and 9: a few distinct masks, and more
    # than 2^q with repeats
    finer = 0
    for z in [discrete_space(8), *blocks]:
        ring = FunctionRing(z, make_zmod(3))
        for k in (3, 5, 8, 600):
            masks = rng.choices(ring.zero_classes(), k=k)
            monkeypatch.setattr(ring, "zero_classes", lambda: masks)
            tz = zero_set_space(ring)
            assert tz == zariski_as_space(zariski_closed_family(ring))
            finer += compare_topologies(clopen_base_topology(z), tz
                                        ).verdict == "first-strictly-finer"
    assert finer == 12


def glued_blocks(rng, sizes):
    """A sum of connected blocks on shuffled labels: a block on b0..bk is
    generated by {b0} and the pairs {b0, bi}."""
    labels = list(range(sum(sizes)))
    rng.shuffle(labels)
    sets, base = [], 0
    for m in sizes:
        block = labels[base:base + m]
        sets += [{block[0]}, *({block[0], b} for b in block[1:])]
        base += m
    return validate_topology(len(labels), sets, auto_close=True)


def test_family_orders_match_sort_family():
    rng = random.Random(29)
    spaces = [validate_topology(n, random_subbasis(rng, n), auto_close=True)
              for n in range(1, 11) for _ in range(8)]
    spaces += [discrete_space(n) for n in range(11, 15)]
    spaces += [glued_blocks(rng, sizes)
               for sizes in ((3, 1, 1, 1, 1, 1, 1), (4, 2, 2, 1, 1),
                             (3, 3, 2, 2, 1), (4, 3, 2, 2), (3, 3, 3, 1, 1),
                             (2, 1, 1, 1, 1, 1, 1, 1))]
    for space in spaces:
        clopens = clopen_family(space)
        assert clopens == sort_family(
            clopens_by_definition(space.point_count, space.opens))
        ring = FunctionRing(space, make_zmod(2))
        closed = zariski_closed_family(ring).closed_family
        assert list(closed) == sort_family(closed)
        assert set(closed) == set(clopens)


def test_clopen_family_is_refused_as_the_enumeration_is(monkeypatch):
    # the doubling stops where all_unions would, with the same error
    for budget, n in ((64, 7), (64, 9), (100, 7), (2 ** 20, 21)):
        space = discrete_space(n)
        monkeypatch.setattr(topology, "DEFAULT_ENUM_BUDGET", budget)
        with pytest.raises(BudgetExceeded) as want:
            topology.all_unions(topology._quasi_classes(space))
        with pytest.raises(BudgetExceeded) as got:
            clopen_family(space)
        assert (got.value.cap, got.value.reached, str(got.value)) == (
            want.value.cap, want.value.reached, str(want.value))
        monkeypatch.undo()
    monkeypatch.setattr(topology, "DEFAULT_ENUM_BUDGET", 64)
    assert len(clopen_family(discrete_space(6))) == 64


def test_closure_helpers_on_families_that_are_not_closed():
    # the zero-set family is always closed under both, so test them apart
    assert zariski._meet_closure({0b111, 0b011, 0b110}, 8) == {
        0b111, 0b011, 0b110, 0b010}
    assert zariski._meet_closure({0b111, 0b011, 0b110}, 3) is None
    assert zariski._union_gap({0b000, 0b001, 0b011, 0b111}) is None
    assert zariski._union_gap({0b000, 0b001, 0b010, 0b111}) == (
        frozenset({0}), frozenset({1}))


def test_discrete_space_needs_a_point():
    with pytest.raises(ValueError, match="point_count must be >= 1"):
        discrete_space(0)


def test_discrete_space_past_the_budget_is_refused_up_front():
    # a space holds n neighbourhoods of n bits: past 1024 points it is
    # refused before any of them is built
    assert discrete_space(1024).point_count == 1024
    for n in (1025, 10 ** 9):
        with pytest.raises(BudgetExceeded, match="budget 1048576") as exc:
            discrete_space(n)
        assert (exc.value.cap, exc.value.reached) == (2 ** 20, n * n)
    for text in ("space Z discrete 1000000000\n", "space S opens { {1024} }\n"):
        with pytest.raises(BudgetExceeded, match="budget 1048576") as exc:
            parse_spec(text)
        assert exc.value.cap == 2 ** 20


def test_spaces_are_built_without_enumerating_their_opens(monkeypatch):
    def refuse(masks):
        raise AssertionError("an open family was enumerated")

    monkeypatch.setattr(topology, "all_unions", refuse)
    singletons = " ".join("{%d}" % p for p in range(40))
    spec = parse_spec(f"space S opens {{ {singletons} }}\n")
    for space in (discrete_space(40), spec.spaces["S"]):
        assert space.point_count == 40
        assert space.quasi_masks == tuple(1 << p for p in range(40))
    monkeypatch.undo()
    # enumeration still stops at the cap
    with pytest.raises(BudgetExceeded, match="budget 1048576") as exc:
        discrete_space(21).opens
    assert (exc.value.cap, exc.value.reached) == (2 ** 20, 2 ** 20 + 1)
    with pytest.raises(BudgetExceeded, match="budget 1048576") as exc:
        clopen_family(discrete_space(21))
    assert (exc.value.cap, exc.value.reached) == (2 ** 20, 2 ** 20 + 1)
    with pytest.raises(BudgetExceeded, match="budget 1048576") as exc:
        FunctionRing(discrete_space(21), make_zmod(2))
    assert (exc.value.cap, exc.value.reached) == (2 ** 20, 2 ** 21)


def test_open_family_past_the_budget_is_refused(monkeypatch):
    monkeypatch.setattr(topology, "DEFAULT_ENUM_BUDGET", 64)
    singletons = " ".join("{%d}" % p for p in range(7))
    space = parse_spec(f"space S opens {{ {singletons} }}\n").spaces["S"]
    with pytest.raises(BudgetExceeded, match="budget 64") as exc:
        space.opens
    assert (exc.value.cap, exc.value.reached) == (64, 65)
    assert len(validate_topology(6, [{p} for p in range(6)],
                                 auto_close=True).opens) == 64
    with pytest.raises(BudgetExceeded, match="budget 64") as exc:
        discrete_space(7).opens
    assert exc.value.cap == 64
    with pytest.raises(BudgetExceeded, match="budget 64") as exc:
        clopen_family(discrete_space(7))
    assert exc.value.cap == 64
