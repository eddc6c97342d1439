import gc
import itertools
import random
import tracemalloc

import pytest

from quasiring import funcspace
from quasiring.algebra import make_table, make_zmod, structure_flags
from quasiring.errors import (
    BudgetExceeded,
    InfiniteBackend,
    NotClopen,
    ZeroValue,
)
from quasiring.funcspace import FunctionRing, vanishing_elements
from quasiring.ideals import (
    LEFT,
    MULTIPLICATIVE,
    RIGHT,
    RING,
    principal_table,
)
from quasiring.topology import (
    SequenceSpace,
    discrete_space,
    disjoint_union,
    sierpinski_space,
    validate_topology,
)
from quasiring.verify import PASS, run_checker
from quasiring.verify.checkers import Context


def test_cardinality_is_carrier_to_the_components():
    ring = FunctionRing(discrete_space(2), make_zmod(3))
    assert len(ring) == 9


def test_sierpinski_collapses_to_constants():
    # one quasi-component, so only the constant functions are continuous
    ring = FunctionRing(sierpinski_space(), make_zmod(3))
    assert len(ring) == 3
    f = ring.elements[1]
    assert f[ring.class_of[0]] == f[ring.class_of[1]]


def test_budget_refusal():
    with pytest.raises(BudgetExceeded) as exc:
        FunctionRing(discrete_space(8), make_zmod(5), budget=1000)
    assert (exc.value.cap, exc.value.reached) == (1000, 5 ** 8)


def test_sequence_space_refused():
    with pytest.raises(InfiniteBackend):
        FunctionRing(SequenceSpace(), make_zmod(2))


def pointwise(ring, op, f, g):
    """f·g (op "mul") or f+g (op "add") on value tuples, coordinatewise from
    Y's table: an oracle that does not go through the ring."""
    table = ring.algebra.mul if op == "mul" else ring.algebra.add
    return tuple(table[a][b] for a, b in zip(f, g))


def test_pointwise_arithmetic():
    ring = FunctionRing(discrete_space(2), make_zmod(4))
    at = ring.index
    assert ring.elements[ring.row("mul", at((2, 3)))[at((2, 2))]] == (0, 2)
    assert ring.elements[ring.row("add", at((2, 3)))[at((3, 3))]] == (1, 2)


def test_zero_set_is_clopen_union_of_classes():
    space = disjoint_union(sierpinski_space(), sierpinski_space())
    ring = FunctionRing(space, make_zmod(2))
    for f in ring:
        assert space.is_clopen(ring.zero_set(f))


def test_zero_set_V_of_empty_family_is_full():
    ctx = Context(discrete_space(2), make_zmod(2))
    assert ctx.points(ctx.zero_locus(0)) == ctx.space.full


def test_chi_values_and_refusals():
    ring = FunctionRing(discrete_space(3), make_zmod(3))
    f = ring.chi({0}, 2)
    assert f[ring.class_of[0]] == 0
    assert f[ring.class_of[1]] == 2
    with pytest.raises(ZeroValue):
        ring.chi({0}, 0)
    sp_ring = FunctionRing(sierpinski_space(), make_zmod(2))
    with pytest.raises(NotClopen):
        sp_ring.chi({0})


def is_continuous(space, y, values) -> bool:
    """Whether a raw point -> Y-index map is continuous (Y discrete): the
    preimage of every value is open."""
    return all(space.is_open(frozenset(p for p in space.points
                                       if values[p] == b))
               for b in y.elements)


def test_is_continuous_matches_class_constancy():
    space = sierpinski_space()
    y = make_zmod(2)
    assert is_continuous(space, y, (1, 1))
    assert not is_continuous(space, y, (0, 1))
    # the continuous maps are the ring's elements read at each point
    for z in (space, disjoint_union(sierpinski_space(), discrete_space(1)),
              validate_topology(4, [{0}, {0, 1}, {2, 3}], auto_close=True)):
        ring = FunctionRing(z, y)
        maps = itertools.product(y.elements, repeat=z.point_count)
        assert {v for v in maps if is_continuous(z, y, v)} == {
            tuple(f[ring.class_of[p]] for p in z.points) for f in ring}


def test_vanishing_elements_counts():
    ring = FunctionRing(discrete_space(2), make_zmod(3))
    assert vanishing_elements(ring, {0}).bit_count() == 3
    assert vanishing_elements(ring, {0, 1}) == 1 << ring.index(ring.theta)


def test_equiv_class_separation():
    ctx = Context(discrete_space(2), make_zmod(2))
    of = ctx.ring.class_of
    assert ctx.points(ctx.alike(ctx.whole)[of[0]]) == frozenset({0})
    assert ctx.points(ctx.alike(1 << ctx.theta)[of[0]]) == ctx.space.full


def test_the_quotient_ring_has_the_same_indices():
    """C(Z, Y) ≅ C(Z/~, Y), Z/~ the discrete space on the quasi-components,
    is the identity on element indices; L44 relies on it."""
    space = disjoint_union(sierpinski_space(), discrete_space(2))
    ring = FunctionRing(space, make_zmod(3))
    target = FunctionRing(discrete_space(len(ring.classes)), make_zmod(3))
    assert len(target) == len(ring)
    for f, fhat in zip(ring.elements, target.elements):
        for x in space.points:
            k = ring.class_of[x]
            assert f[k] == fhat[target.class_of[k]]
    for f in range(len(ring)):
        for op in ("mul", "add"):
            assert ring.row(op, f) == target.row(op, f)


def test_embed_and_project():
    """J: C(Z, Z_2) -> C(Z, Y) sends 0 to 0 and 1 to the unit, so the image
    of the function with zero set U is χ_U; L sends f to its nonzero
    indicator, the complement of V(f).  T32 and L59.5 check them."""
    ctx = Context(discrete_space(2), make_zmod(5))
    assert [run_checker(cid, ctx, "C(discrete 2, Z_5)").verdict
            for cid in ("T32", "L59.5")] == [PASS, PASS]
    ring, every = ctx.ring, ctx.all_classes
    assert len(set(ring.chi_table())) == 2 ** len(ring.classes)  # J injective
    ell = [every & ~z for z in ring.zero_classes()]
    assert set(ell) == set(range(2 ** len(ring.classes)))        # L surjective
    # L is multiplicative because Z_5 has no zero divisors
    for f in range(6):
        for g in range(6):
            assert ell[ring.row("mul", f)[g]] == ell[f] & ell[g]


def random_magma_ring(rng, m):
    """Random multiplication (0 absorbing) and addition (0 the identity),
    in general neither commutative nor associative."""
    mul = [[0] * m for _ in range(m)]
    add = [list(range(m))] + [[a] + [0] * (m - 1) for a in range(1, m)]
    for a in range(1, m):
        for b in range(1, m):
            mul[a][b] = rng.randrange(m)
            add[a][b] = rng.randrange(m)
    return make_table(mul, zero=0, add=add)


def _tuple_rows(ring, i):
    f, idx = list(ring)[i], ring.index     # decoded without the memo
    return {
        "mul": [idx(pointwise(ring, "mul", f, g)) for g in ring],
        "mul_t": [idx(pointwise(ring, "mul", g, f)) for g in ring],
        "add": [idx(pointwise(ring, "add", f, g)) for g in ring],
        "add_t": [idx(pointwise(ring, "add", g, f)) for g in ring],
    }


def test_index_order_is_tuple_order():
    ring = FunctionRing(discrete_space(3), make_zmod(3))
    assert list(ring.elements) == sorted(ring.elements)
    assert [ring.index(f) for f in ring] == list(range(len(ring)))


def test_index_refuses_tuples_outside_the_ring():
    ring = FunctionRing(discrete_space(3), make_zmod(3))
    for f in [(0, 0), (0, 0, 0, 0), (0, 3, 0), (-1, 0, 0), ()]:
        with pytest.raises(KeyError):
            ring.index(f)


def test_chi_tests_clopenness_against_the_clopen_masks():
    space = disjoint_union(sierpinski_space(), discrete_space(1))
    ring = FunctionRing(space, make_zmod(2))
    for bits in range(8):
        u = frozenset(p for p in range(3) if bits >> p & 1)
        if space.is_clopen(u):
            assert ring.zero_set(ring.chi(u)) == u
        else:
            with pytest.raises(NotClopen):
                ring.chi(u)


def test_table_rows_match_tuple_arithmetic():
    rng = random.Random(3)
    for m, space in [(3, discrete_space(2)), (3, discrete_space(3)),
                     (4, disjoint_union(sierpinski_space(),
                                        discrete_space(1)))]:
        ring = FunctionRing(space, random_magma_ring(rng, m))
        flags = structure_flags(ring.algebra)
        assert not (flags.commutative or flags.associative
                    or flags.additive_commutative)
        assert ring._core.entries == 0        # nothing built up front
        for i in range(len(ring)):
            for op, want in _tuple_rows(ring, i).items():
                assert list(ring.row(op, i)) == want, (m, i, op)


def test_rows_past_the_cache_cap_are_rebuilt(monkeypatch):
    monkeypatch.setattr(funcspace, "ROW_CACHE_ENTRIES", 20)
    ring = FunctionRing(discrete_space(2), random_magma_ring(
        random.Random(3), 3))
    for _ in range(2):
        for i in range(len(ring)):
            for op, want in _tuple_rows(ring, i).items():
                assert list(ring.row(op, i)) == want
    assert ring._core.entries <= 20


def test_a_table_is_cached_only_while_it_fits(monkeypatch):
    # nine elements: one table of 81 entries fits under the cap, two do
    # not; the second table's rows take what is left, two rows of 9
    monkeypatch.setattr(funcspace, "ROW_CACHE_ENTRIES", 100)
    ring = FunctionRing(discrete_space(2), random_magma_ring(
        random.Random(5), 3))
    for op in ("mul", "add_t", "mul", "add_t"):
        for i in range(len(ring)):
            assert list(ring.row(op, i)) == _tuple_rows(ring, i)[op]
    assert ring._core.entries == funcspace.CORES.entries == 81 + 2 * 9
    assert ring.row("mul", 4) is ring.row("mul", 4)
    assert ring.row("add_t", 1) is ring.row("add_t", 1)
    assert ring.row("add_t", 4) is not ring.row("add_t", 4)


def test_rings_over_the_same_y_and_q_share_one_core():
    """Discrete 3 and Sierpiński + discrete 2 both have three classes:
    over Z_4 they read the same elements, tables and principal tables,
    and keep their own spaces and classes."""
    y = make_zmod(4)
    a = FunctionRing(discrete_space(3), y)
    b = FunctionRing(disjoint_union(sierpinski_space(), discrete_space(2)), y)
    assert a.classes != b.classes and len(b.classes) == 3
    assert a._core is b._core
    assert a.elements is b.elements
    for op in ("mul", "mul_t", "add", "add_t"):
        assert a.row(op, 37) is b.row(op, 37)
    assert a.zero_classes() is b.zero_classes()
    assert a.chi_table(3) is b.chi_table(3)
    for side, mode in [(RIGHT, MULTIPLICATIVE), (RIGHT, RING),
                       (LEFT, RING)]:
        assert principal_table(a, side, mode) is principal_table(b, side, mode)
    others = [FunctionRing(discrete_space(2), y),
              FunctionRing(discrete_space(3), make_zmod(5)),
              FunctionRing(discrete_space(3), make_zmod(4))]
    assert [r._core is a._core for r in others] == [False, False, True]


def test_the_core_cache_keeps_64_cores():
    """Past ``CORE_CACHE_SIZE`` pairs the least recently used core is
    dropped; a ring still holding it keeps its tables, and a new ring over
    its pair gets a fresh core."""
    rng = random.Random(11)
    algebras = list(dict.fromkeys(random_magma_ring(rng, 3)
                                  for _ in range(80)))[:70]
    rings = [FunctionRing(discrete_space(2), y) for y in algebras]
    cores = funcspace.CORES.cores
    assert len(cores) == funcspace.CORE_CACHE_SIZE == 64
    assert [r._core.cached for r in rings] == [False] * 6 + [True] * 64
    assert list(cores.values()) == [r._core for r in rings[6:]]
    first = rings[0]
    assert list(first.row("mul", 4)) == _tuple_rows(first, 4)["mul"]
    assert first.row("mul", 4) is first.row("mul", 4)
    assert funcspace.CORES.entries == 0     # a dropped core is not charged
    again = FunctionRing(discrete_space(2), algebras[0])
    assert again._core is not first._core and again._core.cached
    assert not rings[6]._core.cached
    FunctionRing(discrete_space(2), algebras[7])   # now the most recent
    FunctionRing(discrete_space(3), algebras[0])   # a new pair
    assert rings[7]._core.cached and not rings[8]._core.cached


def test_the_cached_tables_stay_within_the_cap(monkeypatch):
    """Two tables of 81 entries fit a cap of 200 together: each new table
    drops the least recently used other core, and the entries charged are
    those the cached cores hold."""
    monkeypatch.setattr(funcspace, "ROW_CACHE_ENTRIES", 200)
    rng = random.Random(12)
    rings = [FunctionRing(discrete_space(2), random_magma_ring(rng, 3))
             for _ in range(6)]
    cache = funcspace.CORES
    for k, ring in enumerate(rings):
        ring.row("mul", 0)
        held = [r._core.cached for r in rings[:k + 1]]
        assert held == [False] * max(0, k - 1) + [True] * min(2, k + 1)
        assert cache.entries == sum(c.entries for c in cache.cores.values())
        assert cache.entries <= 200
    rings[0].row("add", 0)      # a dropped core still tables on its own cap
    assert rings[0]._core.entries == 162 and cache.entries == 162


def test_zero_class_tables_stay_within_the_cap(monkeypatch):
    """A zero-class table is charged to the cap as a table is: over a run
    of large rings the cached cores hold at most the cap, each charged for
    its whole table, and a table past the cap is rebuilt on each call."""
    monkeypatch.setattr(funcspace, "ROW_CACHE_ENTRIES", 2 ** 16)
    cache = funcspace.CORES
    rings = [FunctionRing(discrete_space(q), make_zmod(m))
             for q, m in [(16, 2), (8, 4), (4, 16), (10, 3), (6, 4)]]
    for ring in rings:
        masks = ring.zero_classes()
        assert ring.zero_classes() is masks
        assert ring._core.entries == len(masks)
        assert cache.entries == sum(c.entries for c in cache.cores.values())
        assert cache.entries <= 2 ** 16
    assert [r._core.cached for r in rings] == [False] * 3 + [True] * 2
    big = FunctionRing(discrete_space(17), make_zmod(2))
    masks = big.zero_classes()
    assert big.zero_classes() is not masks
    assert big.zero_classes() == masks and len(masks) == 2 ** 17
    assert big._core.entries == 0 and cache.entries <= 2 ** 16


#: (q, m): rings C(discrete q, Z_m) of 4 096, 2 187, 4 096 and 3 125 elements
DECODED_RINGS = [(12, 2), (7, 3), (6, 4), (5, 5)]


def _decode_every_element():
    """Decode every element of each ring of ``DECODED_RINGS``, one ring
    after another, dropping each; the bytes this leaves held."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for q, m in DECODED_RINGS:
            ring = FunctionRing(discrete_space(q), make_zmod(m))
            assert ring.elements.take(range(len(ring))) == list(ring)
            del ring
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_decoded_tuples_are_charged_within_the_cap(monkeypatch):
    """The decoded value tuples a core keeps are charged one entry per
    digit: under the default cap every ring's tuples are kept and charged,
    and under a cap of 2^14 entries the cached cores hold at most the cap,
    so far less stays held once the rings are dropped."""
    held = _decode_every_element()
    cache = funcspace.CORES
    assert cache.entries == sum(q * m ** q for q, m in DECODED_RINGS)
    assert cache.entries == sum(c.entries for c in cache.cores.values())
    for core in cache.cores.values():
        assert core.entries == len(core.kept["decoded"]) * core.key[1]
    monkeypatch.setattr(funcspace, "CORES", funcspace.CoreCache())
    monkeypatch.setattr(funcspace, "ROW_CACHE_ENTRIES", 2 ** 14)
    capped = _decode_every_element()
    # (7, Z_3) fits, 15 309 entries; (5, Z_5), 15 625, drops it
    cores = list(funcspace.CORES.cores.values())
    assert [c.entries for c in cores] == [0, 0, 15625]
    assert held > 2 ** 21 and capped < 2 ** 20     # 2.3 MB and 0.5 MB
