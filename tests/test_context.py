"""The checker context's index-level data against definitions on value
tuples, and FAIL witnesses on a lattice with a planted non-ideal set."""

import itertools
from functools import cached_property

import pytest

from quasiring import funcspace, ideals
from quasiring.algebra import make_table, make_zmod
from quasiring.errors import BudgetExceeded
from quasiring.funcspace import FunctionRing
from quasiring.ideals import (
    LEFT,
    MULTIPLICATIVE,
    RIGHT,
    RING,
    TWO_SIDED,
    Ideal,
    IdealLattice,
    classify_primes,
    closure,
    enumerated_lattice,
    ideal_lattice,
    principal_table,
    vanishing_ideal,
)
from quasiring.topology import (
    clopen_family,
    discrete_space,
    disjoint_union,
    indiscrete_space,
    sierpinski_space,
)
from quasiring.verify import (
    BUDGET_EXCEEDED,
    FAIL,
    GREEN_SUITE,
    PASS,
    checkers,
    run_checker,
)
from quasiring.verify.checkers import Context

from test_funcspace import pointwise
from test_ideals import small_ring_corpus


def corpus_contexts():
    """Every ring of the small corpus and C(discrete 3, Z_3), on each side
    and in each mode."""
    rings = list(small_ring_corpus())
    rings.append(FunctionRing(discrete_space(3), make_zmod(3)))
    for ring in rings:
        for side in (RIGHT, LEFT, TWO_SIDED):
            for mode in (MULTIPLICATIVE, RING):
                yield Context(ring.space, ring.algebra, side, mode)


def _tuples(ring, bits):
    return {f for i, f in enumerate(ring.elements) if bits >> i & 1}


def _least_ideal(ring, f, side, mode):
    """The least ideal holding θ and f, grown by the ideal laws on value
    tuples until nothing changes."""
    out = {ring.theta, f}
    while True:
        grown = set(out)
        for g in out:
            for h in ring.elements:
                if side != LEFT:
                    grown.add(pointwise(ring, "mul", h, g))
                if side != RIGHT:
                    grown.add(pointwise(ring, "mul", g, h))
        if mode == RING:
            grown |= {pointwise(ring, "add", a, b) for a in out for b in out}
        if grown == out:
            return out
        out = grown


def _rings_with_merged_classes():
    """The small corpus plus rings over spaces with a non-singleton
    quasi-component, one with zero at Y-index 2."""
    sier = disjoint_union(sierpinski_space(), discrete_space(2))
    y = make_table([[1, 0, 2], [0, 1, 2], [2, 2, 2]], zero=2)
    return [*small_ring_corpus(), FunctionRing(sier, make_zmod(3)),
            FunctionRing(sier, y), FunctionRing(discrete_space(3), y)]


def test_elements_decode_in_product_order():
    for ring in _rings_with_merged_classes():
        el, q = ring.elements, len(ring.classes)
        want = list(itertools.product(ring.algebra.elements, repeat=q))
        n = len(want)
        assert len(el) == n
        assert list(el) == want
        assert [el[i] for i in range(n)] == want
        assert [el[i] for i in range(-n, 0)] == want
        assert el[-1] == want[-1] and el[-n] == want[0]
        for cut in (slice(None), slice(1, -1, 2), slice(None, None, -1),
                    slice(-3, None), slice(n, None)):
            assert el[cut] == tuple(want[cut])
        assert all(f in el for f in want)
        m = ring.algebra.carrier_size
        for f in [(0,) * (q + 1), (m,) * q, (-1,) * q, [0] * q, None]:
            assert f not in el
        for i in (n, n + 1, -n - 1):
            with pytest.raises(IndexError):
                el[i]
        assert [ring.index(el[i]) for i in range(n)] == list(range(n))


def test_zero_classes_match_the_value_tuples():
    # the zero as the middle value, where its copy is neither end of the
    # repeated masks, rings of a single class, and both sides of the byte
    # boundary: masks over 8 classes are bytes, over 9 a list
    y = make_table([[0, 1, 2], [1, 1, 1], [2, 1, 0]], zero=1)
    sier = disjoint_union(sierpinski_space(), discrete_space(2))
    extra = [FunctionRing(sier, y), FunctionRing(discrete_space(4), y),
             FunctionRing(indiscrete_space(3), y),
             FunctionRing(discrete_space(1), make_zmod(4)),
             FunctionRing(sierpinski_space(), make_zmod(2)),
             FunctionRing(discrete_space(8), y),
             FunctionRing(disjoint_union(sierpinski_space(),
                                         discrete_space(8)), y)]
    assert [len(r.classes) for r in extra] == [3, 4, 1, 1, 1, 8, 9]
    for ring in [*_rings_with_merged_classes(), *extra]:
        z = ring.algebra.zero
        want = [sum(1 << c for c, v in enumerate(f) if v == z)
                for f in itertools.product(ring.algebra.elements,
                                           repeat=len(ring.classes))]
        got = ring.zero_classes()
        assert isinstance(got, bytes) == (len(ring.classes) <= 8)
        assert list(got) == want
        ctx = Context(ring.space, ring.algebra)
        assert ctx.zero_classes == want


def test_chi_index_is_the_index_of_chi():
    checked = 0
    for ctx in corpus_contexts():
        ring = ctx.ring
        offs = list(ctx.nonzero) + ([None] if ring.identity else [])
        for c in ctx.clopens:
            for a in offs:
                assert ctx.chi(c, a) == ring.index(ring.chi(ctx.points(c), a))
                checked += 1
        if ring.identity:
            assert ctx.chi_set == tuple(sorted(
                ring.index(ring.chi(u)) for u in clopen_family(ring.space)))
    assert checked > 1000


def test_vanishing_bitsets_match_the_definition():
    checked = 0
    for ctx in corpus_contexts():
        ring = ctx.ring
        sets = (ctx.point_sets + list(map(ctx.points, ctx.clopens))
                + list(ring.classes))
        for u in sets:
            for b in ring.algebra.elements:
                want = {f for f in ring.elements
                        if all(f[ring.class_of[p]] == b for p in u)}
                got = ctx.vanishing(u, b)
                assert _tuples(ring, got) == want
                for fam in ctx.fn_families:
                    assert (_tuples(ring, got & fam)
                            == want & _tuples(ring, fam))
                checked += 1
        grid = [[ctx.vanishing(u, b) for b in ctx.b_values]
                for u in ctx.point_sets]
        assert ctx.vanishing_grid == grid
    assert checked > 3000


def test_zero_sets_and_equivalence_classes_match_the_definition():
    for ctx in corpus_contexts():
        ring = ctx.ring
        for f, classes in zip(ring.elements, ctx.zero_classes):
            assert ctx.points(classes) == ring.zero_set(f)
        for fam in ctx.fn_families:
            members = _tuples(ring, fam)
            for b in ring.algebra.elements:
                want = ring.space.full
                for f in members:
                    want &= ring.zero_set(f, b)
                assert ctx.points(ctx.zero_locus(fam, b)) == want
            alike = ctx.alike(fam)
            for x in ring.space.points:
                want = frozenset(
                    y for y in ring.space.points
                    if all(f[ring.class_of[y]] == f[ring.class_of[x]]
                           for f in members))
                assert ctx.points(alike[ring.class_of[x]]) == want


def test_principal_bitsets_are_the_least_ideals():
    checked = 0
    for ctx in corpus_contexts():
        ring = ctx.ring
        modes = {ctx.mode, MULTIPLICATIVE}
        for i, f in enumerate(ring.elements):
            for mode in modes:
                want = _least_ideal(ring, f, ctx.side, mode)
                assert _tuples(ring, ctx.principal(i, mode)) == want
                checked += 1
    assert checked > 1000


def test_ideal_bits_are_the_indices_of_its_elements():
    for ctx in corpus_contexts():
        ring = ctx.ring
        ideals = list(ctx.lattice.ideals)
        ideals.append(vanishing_ideal(ring, {0}, ctx.side, ctx.mode))
        ideals.append(Ideal(ring, closure(ring, [len(ring) - 1], ctx.side,
                                          ctx.mode), ctx.side, ctx.mode))
        for ideal in ideals:
            indices = {ring.index(f) for f in ideal.elements}
            assert ideal.bits == sum(1 << i for i in indices)
            assert ideal.sorted_elements() == sorted(ideal.elements)
            assert ctx.lattice.find(ideal.bits) in (None, ideal)


# -- FAIL witnesses on a planted lattice -----------------------------------

#: in C(discrete 3, Z_2), a proper set holding θ that is no ideal: it does
#: not absorb the χ_U, its χ content is not closed under products, and it
#: holds both χ slices of (1, 1, 1) without holding (1, 1, 1)
PLANTED = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)]


class PlantedContext(Context):
    """The ring-mode lattice of C(discrete 3, Z_2) plus each set of
    ``planted``: the PLANTED set here."""

    planted = (PLANTED,)

    def __init__(self):
        super().__init__(discrete_space(3), make_zmod(2), RIGHT, RING)

    @cached_property
    def lattice(self):
        ring = self.ring
        planted = {sum(1 << ring.index(f) for f in s) for s in self.planted}
        bits = {i.bits for i in ideal_lattice(ring, RIGHT, RING).ideals}
        assert not planted & bits
        order = sorted(bits | planted, key=lambda b: (b.bit_count(), b))
        return classify_primes(IdealLattice(
            ring, tuple(Ideal(ring, b, RIGHT, RING) for b in order),
            RIGHT, RING))


def _failing(ctx, cid):
    report = run_checker(cid, ctx)
    assert report.verdict == FAIL, (cid, report)
    shown = report.to_dict()["witness"]
    for key in ("f", "g"):
        if key in report.witness:
            assert isinstance(report.witness[key], tuple)
            assert report.witness[key] in ctx.ring.elements
            assert shown[key] == list(report.witness[key])
    return report.witness


def _clopens(ring):
    """The clopens in class-mask order: bit k for ring.classes[k]."""
    return [frozenset().union(*(c for k, c in enumerate(ring.classes)
                                if m >> k & 1))
            for m in range(1 << len(ring.classes))]


def test_planted_set_fails_the_chi_absorption_laws():
    ctx = PlantedContext()
    ring, planted = ctx.ring, set(PLANTED)
    full = ctx.space.full
    clopens = _clopens(ring)
    chi = {u: ring.chi(u) for u in clopens}

    def escapes(f):
        return next((u for u in clopens
                     if pointwise(ring, "mul", f, chi[u]) not in planted
                     or pointwise(ring, "mul", f, chi[full - u])
                     not in planted), None)

    # the least member, in index order, with a χ product outside
    escaping = [g for g in sorted(planted) if escapes(g) is not None]
    assert len(escaping) > 1
    f = escaping[0]
    for cid in ("L34", "T35"):
        w = _failing(ctx, cid)
        assert set(w["I"].elements) == planted
        assert (w["f"], w["U"]) == (f, escapes(f))
        assert w.get("a", 1) == 1

    # the least f outside holding both χ slices inside
    def held(g):
        return next((u for u in clopens
                     if pointwise(ring, "mul", g, chi[u]) in planted
                     and pointwise(ring, "mul", g, chi[full - u])
                     in planted), None)

    f = min(g for g in ring.elements
            if g not in planted and held(g) is not None)
    w = _failing(ctx, "L75")
    assert set(w["I"].elements) == planted
    assert (w["f"], w["U"]) == (f, held(f))


def test_planted_set_fails_the_chi_content_laws():
    ctx = PlantedContext()
    ring, planted = ctx.ring, set(PLANTED)
    chis = sorted({ring.chi(u) for u in clopen_family(ring.space)})
    content = [f for f in chis if f in planted]

    def outside(f, g):
        return pointwise(ring, "mul", f, g) not in content

    w = _failing(ctx, "L59.14")
    want = next((f, g) for f in content for g in content if outside(f, g))
    assert set(w["I"].elements) == planted
    assert (w["f"], w["g"]) == want

    w = _failing(ctx, "L59.15")
    want = next((f, g) for g in content for f in chis if outside(f, g))
    assert set(w["I"].elements) == planted
    assert (w["f"], w["g"]) == want


def test_planted_set_fails_the_family_laws():
    ctx = PlantedContext()
    ring, full = ctx.ring, ctx.space.full
    ideals = [i.elements for i in ctx.lattice.ideals]
    clopens = _clopens(ring)

    def phi(u):
        """Φ_u: the positions of the lattice members holding χ_U."""
        chi = ring.chi(u)
        return {k for k, elems in enumerate(ideals) if chi in elems}

    want = next((u, w) for u in clopens for w in clopens
                if not phi(u) <= phi(u | w) & phi(u | (full - w)))
    assert want == (frozenset({0}), frozenset({1}))
    w = _failing(ctx, "L48")
    assert (w["U"], w["W"]) == want


def counted_passes(monkeypatch) -> list:
    """The arguments of every lattice pass built from here on (hits on a
    kept lattice are not builds)."""
    calls = []
    build = ideals._enumerated_lattice

    def counted(*args):
        calls.append(args)
        return build(*args)
    monkeypatch.setattr(ideals, "_enumerated_lattice", counted)
    return calls


def test_a_failed_lattice_is_built_once(monkeypatch):
    calls = counted_passes(monkeypatch)
    c = Context(discrete_space(3), make_zmod(2), RIGHT, RING)
    c.lattice_budget = 2                 # of the lattice's 8 ideals
    reports = [run_checker(cid, c) for cid in GREEN_SUITE]
    assert len(calls) == 1
    over = [r for r in reports if r.verdict == BUDGET_EXCEEDED]
    assert len(over) > 1
    assert {r.note for r in over} == {
        "classification needs the full lattice, which grows past 2 ideals"}


def test_contexts_over_one_core_read_one_lattice_build(monkeypatch):
    """Discrete 3 and Sierpiński + discrete 2 over Z_2 share a core: a
    failed build under a budget of 2 is made once for both and raised
    again, and a context with the default budget builds its own, complete
    lattice, which the next context with that budget reads."""
    calls = counted_passes(monkeypatch)
    spaces = [discrete_space(3),
              disjoint_union(sierpinski_space(), discrete_space(2))]
    failed = []
    for space in spaces:
        c = Context(space, make_zmod(2), RIGHT, RING)
        c.lattice_budget = 2
        reports = [run_checker(cid, c) for cid in GREEN_SUITE]
        failed.append(sum(r.verdict == BUDGET_EXCEEDED for r in reports))
    assert len(calls) == 1 and failed[0] == failed[1] > 1
    whole = [Context(space, make_zmod(2), RIGHT, RING) for space in spaces]
    assert whole[0].lattice is whole[1].lattice
    assert whole[0].lattice.complete and len(whole[0].lattice.ideals) == 8
    assert whole[0].families is whole[1].families
    assert len(calls) == 2


def test_a_context_reads_the_pass_after_the_products(monkeypatch):
    """C(discrete 3, Z_3) splits, so ``ideal_lattice`` keeps the products
    of Z_3's lattice; under the context's own budget, a context over the
    same core still reads a lattice of the pass, built for it, with the
    same bitsets.  So does ``enumerated_lattice`` under the default budget
    after ``ideal_lattice`` under that budget, which reads the kept
    products without a pass of Z_3's own."""
    calls = counted_passes(monkeypatch)
    ring = FunctionRing(discrete_space(3), make_zmod(3))
    for budget, factor in ((Context.lattice_budget, [1]), (100_000, [])):
        products = ideal_lattice(ring, RIGHT, RING, budget)
        assert [len(args[0].classes) for args in calls] == factor
        calls.clear()
        if budget == Context.lattice_budget:
            space = disjoint_union(sierpinski_space(), discrete_space(2))
            lattice = Context(space, make_zmod(3), RIGHT, RING).lattice
        else:
            lattice = enumerated_lattice(ring, RIGHT, RING, budget)
        assert lattice is not products
        assert [len(args[0].classes) for args in calls] == [3]
        assert ([i.bits for i in lattice.ideals]
                == [i.bits for i in products.ideals])
        calls.clear()


def _charge(key, value, n: int, q: int) -> int:
    """The entries a core is charged for the value it keeps under key: n²
    for a whole Cayley table, one per 32 bits for the bitsets of a
    principal table, a lattice of the pass or of the products (none for a
    failed pass) or the zero-mask indicator, one per digit of each decoded
    value tuple, 4^q for a product or sum table of the χ's, and one per
    entry for a row, the zero classes or a χ table."""
    words = -(-n // 32)
    if key in ("mul", "mul_t", "add", "add_t"):
        return n * n
    if key[0] == "chi_op":
        return 4 ** q
    if key == "zero_indicator":
        return -(-value.bit_length() // 32)
    if key == "decoded":
        return len(value) * q
    if key[0] == "principals":
        return n * words
    if key[0] in ("lattice", "products"):
        return 0 if isinstance(value, Exception) else len(value.ideals) * words
    return len(value)


def test_every_kept_value_is_charged_within_the_cap(monkeypatch):
    """Under a cap of 1 024 entries, a run of rings keeps principal tables,
    χ tables, zero classes and checker lattices, a failed one among them:
    the cached cores hold at most the cap, every core is charged exactly
    what it keeps, and a value refused is handed out all the same."""
    cap = 1024
    monkeypatch.setattr(funcspace, "ROW_CACHE_ENTRIES", cap)
    cache = funcspace.CORES
    cores = []
    for q, m, mode in [(4, 2, MULTIPLICATIVE), (4, 2, RING), (6, 2, RING),
                       (3, 4, MULTIPLICATIVE), (3, 4, RING), (5, 3, RING)]:
        ctx = Context(discrete_space(q), make_zmod(m), RIGHT, mode)
        ring = ctx.ring
        assert ctx.lattice.complete
        assert principal_table(ring, RIGHT, mode) == \
            ideals._principal_table(ring, RIGHT, mode)
        assert ctx.chi(1) == ring.index(ring.chi(ring.classes[0]))
        assert list(ring.zero_classes()) == list(ring._zero_classes())
        failed = Context(discrete_space(q), make_zmod(m), RIGHT, mode)
        failed.lattice_budget = 2
        with pytest.raises(BudgetExceeded):
            failed.lattice
        cores.append(ring._core)
        assert cache.entries == sum(c.entries for c in cache.cores.values())
        assert cache.entries <= cap
        for core in cores:
            n, q = len(core.elements), core.key[1]
            assert core.entries == sum(
                _charge(k, v, n, q) for k, v in core.kept.items()) <= cap
    kinds = {k if isinstance(k, str) else k[0] for c in cores for k in c.kept}
    assert kinds >= {"principals", "lattice", "chi", "zero_classes"}
    assert ("lattice", RIGHT, MULTIPLICATIVE, 2) in cores[0].kept
    # 979 ideals of 64 bits, and 243 principals of 243 bits, do not fit
    assert ("lattice", RIGHT, MULTIPLICATIVE, 1200) not in cores[3].kept
    assert ("principals", RIGHT, RING) not in cores[5].kept
    assert not all(c.cached for c in cores)


def test_a_refusing_cap_costs_one_build_per_context(monkeypatch):
    """Under a cap that keeps nothing, a context builds its lattice once
    and each principal table it reads once across ``GREEN_SUITE``, however
    often its checkers read them.  ``_reach`` runs once per multiplicative
    table built: in multiplicative mode for the lattice's pass and for the
    context; in ring mode under the lattice's ring-mode table, under the
    context's, and for the context's multiplicative one.  The χ table is
    built once per off-value the context reads (1, 2 and 3 of Z_4), and
    once more for the families its lattice holds.  An incomplete lattice,
    which the cap refuses as well, is built once per context too."""
    monkeypatch.setattr(funcspace, "ROW_CACHE_ENTRIES", 0)
    lattices = counted_passes(monkeypatch)
    reaches, chis = [], []
    reach = ideals._reach
    chi_table = FunctionRing._chi_table

    def counted_reach(*args):
        reaches.append(args)
        return reach(*args)
    monkeypatch.setattr(ideals, "_reach", counted_reach)

    def counted_chi_table(ring, a):
        chis.append(a)
        return chi_table(ring, a)
    monkeypatch.setattr(FunctionRing, "_chi_table", counted_chi_table)
    for mode, builds in [(MULTIPLICATIVE, 2), (RING, 3)]:
        for n in (2, 3):
            lattices.clear()
            reaches.clear()
            chis.clear()
            c = Context(discrete_space(n), make_zmod(4), RIGHT, mode)
            reports = [run_checker(cid, c) for cid in GREEN_SUITE]
            assert c.ring._core.kept == {} and c.ring._core.entries == 0
            assert all(r.verdict != FAIL for r in reports)
            assert len(lattices) == 1 and len(reaches) == builds
            assert sorted(chis) == [1, 1, 2, 3]
    lattices.clear()
    c = Context(discrete_space(3), make_zmod(2), RIGHT, RING)
    c.lattice_budget = 2
    reports = [run_checker(cid, c) for cid in GREEN_SUITE]
    assert c.ring._core.kept == {}
    assert len(lattices) == 1
    assert sum(r.verdict == BUDGET_EXCEEDED for r in reports) > 1


def test_contexts_over_one_core_read_one_build_of_each_chi_table(
        monkeypatch):
    """Discrete 3 and Sierpiński + discrete 2 over Z_2 share a core: the
    first context to run L59 builds the product and sum tables of the χ's,
    which the core keeps at 4^q entries each, and the second reads them.
    Under a cap that keeps nothing, each context builds each table once,
    equal to the kept one."""
    builds = []
    build = checkers._chi_op_table

    def counted(ring, chi, op):
        builds.append(op)
        return build(ring, chi, op)
    monkeypatch.setattr(checkers, "_chi_op_table", counted)
    spaces = [discrete_space(3),
              disjoint_union(sierpinski_space(), discrete_space(2))]

    def tables():
        out = []
        for space in spaces:
            c = Context(space, make_zmod(2), RIGHT, RING)
            assert run_checker("L59", c).verdict == PASS
            assert run_checker("T22", c).verdict == PASS
            out.append((checkers._body(c, checkers._prod),
                        checkers._body(c, checkers._sums)))
        return c.ring._core, out

    core, kept = tables()
    assert builds == ["mul", "add"]
    assert kept[0][0] is kept[1][0] and kept[0][1] is kept[1][1]
    assert core.kept[("chi_op", "mul", 1)] is kept[0][0]
    assert core.kept[("chi_op", "add", 1)] is kept[0][1]
    assert core.entries == sum(_charge(k, v, 8, 3)
                               for k, v in core.kept.items())
    builds.clear()
    monkeypatch.setattr(funcspace, "ROW_CACHE_ENTRIES", 0)
    monkeypatch.setattr(funcspace, "CORES", funcspace.CoreCache())
    core, rebuilt = tables()
    assert builds == ["mul", "add"] * 2 and core.kept == {}
    assert rebuilt == kept


def test_a_planted_lattice_stays_out_of_the_shared_store():
    """A context over the same core reads neither the planted lattice nor
    families built from it, and the planted context reads neither of the
    plain ones."""
    plain = Context(discrete_space(3), make_zmod(2), RIGHT, RING)
    lattice, families = plain.lattice, plain.families
    planted = PlantedContext()
    assert planted.ring._core is plain.ring._core
    assert planted.lattice is not lattice
    assert planted.families.lattice is planted.lattice
    bits = sum(1 << planted.ring.index(f) for f in PLANTED)
    assert bits in planted.families.U and bits not in families.U
    assert run_checker("L48", planted).verdict == FAIL
    after = Context(discrete_space(3), make_zmod(2), RIGHT, RING)
    assert after.lattice is lattice and after.families is families
    assert after.lattice.find(bits) is None
    assert run_checker("L48", after).verdict != FAIL
