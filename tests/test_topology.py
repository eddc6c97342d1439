import itertools
import random

import pytest

from quasiring import topology, zariski
from quasiring.algebra import make_table, make_zmod
from quasiring.dsl import parse_spec
from quasiring.errors import (
    BudgetExceeded,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
)
from quasiring.funcspace import FunctionRing
from quasiring.sets import INF, SeqSet, sort_family
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
    is_totally_separated,
    quasi_component,
    quasi_component_partition,
    quotient_space,
    sierpinski_space,
    validate_topology,
)
from quasiring.verify import InstanceSpec, random_instance
from quasiring.zariski import compare_T1_TZ_T, zariski_closed_family


def test_discrete_space_all_sets_open():
    z = discrete_space(3)
    assert len(z.opens) == 8
    assert z.is_clopen({1})
    assert is_totally_separated(z)


def test_indiscrete_space_two_opens():
    z = indiscrete_space(4)
    assert z.opens == frozenset({frozenset(), z.full})
    assert quasi_component(z, 0) == z.full


def test_sierpinski_quasi_component_not_separated():
    z = sierpinski_space()
    assert z.is_open({0}) and not z.is_open({1})
    assert quasi_component(z, 0) == frozenset({0, 1})
    assert not is_totally_separated(z)


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
    z = disjoint_union(sierpinski_space(), sierpinski_space())
    q = quotient_space(z)
    assert len(q.classes) == 2
    assert is_totally_separated(q.as_space())
    assert q.class_index(0) == q.class_index(1) != q.class_index(2)


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
            q = quotient_space(space)
            assert q.classes == classes
            assert q.as_space().opens == quotient_opens_by_subset_scan(
                n, want, classes)
            # by any other partition, too: the quotient topology is not
            # simply discrete
            label = [rng.randrange(n) for _ in range(n)]
            blocks = tuple(sorted({frozenset(p for p in range(n)
                                             if label[p] == k)
                                   for k in label}, key=min))
            assert topology.QuotientSpace(space, blocks).as_space().opens == (
                quotient_opens_by_subset_scan(n, want, blocks))
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
                assert list(zt.closed_family) == topology.sort_family(closed)
                assert zt.as_space().opens == {space.full - c for c in closed}
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


def test_closure_helpers_on_families_that_are_not_closed():
    # the zero-set family is always closed under both, so test them apart
    assert zariski._meet_closure({0b111, 0b011, 0b110}, 8) == {
        0b111, 0b011, 0b110, 0b010}
    assert zariski._meet_closure({0b111, 0b011, 0b110}, 3) is None
    assert zariski._union_gap({0b000, 0b001, 0b011, 0b111}) is None
    assert zariski._union_gap({0b000, 0b001, 0b010, 0b111}) == (
        frozenset({0}), frozenset({1}))


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
        assert is_totally_separated(space)
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
