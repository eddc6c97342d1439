import itertools

import pytest

from quasiring import topology
from quasiring.algebra import make_table, make_zmod
from quasiring.errors import (
    BudgetExceeded,
    IncompleteLattice,
    MissingAddition,
    MissingUnit,
    UnknownChecker,
    ZeroValue,
)
from quasiring.topology import (
    SequenceSpace,
    discrete_space,
    disjoint_union,
    sierpinski_space,
)
from quasiring.verify import (
    BUDGET_EXCEEDED,
    Context,
    EXPECTED_FAIL_NOTES,
    FAIL,
    GALOIS_SUITE,
    GREEN_SUITE,
    HYPOTHESIS_UNMET,
    INFINITE_CLAIMS,
    PASS,
    REGISTRY,
    SKIPPED_INFINITE,
    TheoremReport,
    checker_ids,
    run_checker,
)
from quasiring.verify import checkers
from quasiring.verify.checkers import HYPOTHESES
from quasiring.verify.fuzz import DEFAULT_INSTANCES, campaign_specs
from quasiring.verify.report import random_instance
from quasiring.ideals import (
    LEFT,
    MULTIPLICATIVE,
    RIGHT,
    RING,
    TWO_SIDED,
    bitset,
    members,
)
from quasiring.sets import SeqSet
from quasiring.topology import quasi_component

from test_context import PLANTED, PlantedContext
from test_planted_reports import CONTEXTS as PLANTED_CONTEXTS


def ctx(n=3, p=2, mode=RING, **kw):
    return Context(discrete_space(n), make_zmod(p), mode=mode, **kw)


def fixed_contexts():
    return [
        ctx(1, 2), ctx(2, 3), ctx(3, 2),
        Context(discrete_space(2), make_zmod(4), mode=RING),
        Context(sierpinski_space(), make_zmod(3), mode=RING),
        Context(discrete_space(2), make_zmod(3), mode=MULTIPLICATIVE),
    ]


def test_registry_contents():
    ids = checker_ids()
    assert "T5" in ids and "L8" in ids and "L59.1" in ids and "T34" in ids
    assert set(GALOIS_SUITE) <= set(REGISTRY)
    assert set(GREEN_SUITE) <= set(REGISTRY)
    assert "T26" not in GREEN_SUITE
    assert INFINITE_CLAIMS <= set(ids)


def test_unknown_checker():
    with pytest.raises(UnknownChecker):
        run_checker("T999", ctx())


def test_pass_verdict():
    r = run_checker("T34", ctx())
    assert r.verdict == PASS and r.witness is None


def test_expected_fail_with_witness():
    r = run_checker("T26", ctx(3, 2))
    assert r.verdict == FAIL
    assert r.witness is not None
    assert r.note == EXPECTED_FAIL_NOTES["T26"]


def test_hypothesis_unmet_without_addition():
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    c = Context(discrete_space(2), make_table(mul, zero=0, unit=1),
                mode=MULTIPLICATIVE)
    # L47 partitions primes by a sum decomposition: needs ring mode
    assert run_checker("L47", c).verdict == HYPOTHESIS_UNMET


def test_skipped_infinite():
    for cid in INFINITE_CLAIMS:
        assert run_checker(cid, ctx()).verdict == SKIPPED_INFINITE


def test_sequence_context():
    c = Context(SequenceSpace(), make_zmod(2))
    assert run_checker("T38", c).verdict == PASS
    assert run_checker("T34", c).verdict == HYPOTHESIS_UNMET


def test_t38_fails_when_inf_is_isolated(monkeypatch):
    is_open = SequenceSpace.is_open
    inf_only = SeqSet.of((), infinity=True)
    monkeypatch.setattr(SequenceSpace, "is_open",
                        lambda self, s: s == inf_only or is_open(self, s))
    r = run_checker("T38", Context(SequenceSpace(), make_zmod(2)))
    assert r.verdict == FAIL
    assert r.witness == {"Q_inf": inf_only}


def test_budget_exceeded_on_large_ring():
    """Past the principal table's cap the lattice is refused, naming that
    cap; past the ideal budget its classification is."""
    c = Context(discrete_space(13), make_zmod(2), mode=RING)
    r = run_checker("T34", c)
    assert r.verdict == BUDGET_EXCEEDED and "cap 4096" in r.note
    with pytest.raises(BudgetExceeded) as exc:
        c.lattice
    assert (exc.value.cap, exc.value.reached) == (4096, 2 ** 13)
    c = ctx(4, 4, mode=MULTIPLICATIVE)
    with pytest.raises(IncompleteLattice) as exc:
        c.lattice
    assert (exc.value.cap, exc.value.reached) == (1200, 1201)


def test_green_suite_decides_ring_mode_z4_over_four_points():
    """C(discrete 4, Z_4), 256 elements with zero divisors on every class,
    is within the ideal budget in ring mode: nothing is left undecided."""
    c = ctx(4, 4)
    verdicts = [run_checker(cid, c).verdict for cid in GREEN_SUITE]
    assert (verdicts.count(PASS), verdicts.count(HYPOTHESIS_UNMET)) == (64, 23)
    assert len(verdicts) == 64 + 23


def test_green_suite_on_fixed_instances():
    bad = []
    for c in fixed_contexts():
        for cid in GREEN_SUITE:
            r = run_checker(cid, c)
            if r.verdict == FAIL:
                bad.append((cid, c.space, c.mode, r.witness))
    assert bad == []


def test_reports_serialize():
    r = run_checker("T26", ctx(3, 2))
    d = r.to_dict()
    assert d["verdict"] == FAIL
    assert isinstance(d["witness"], (list, dict))


def test_declared_hypotheses_exist():
    for cid, checker in REGISTRY.items():
        assert set(checker.requires) <= set(HYPOTHESES), cid
        assert set(checker.members) <= set(REGISTRY), cid


def test_unmet_notes_are_declared_without_a_unit():
    # 2Z_8 = {0, 2, 4, 6} as 0..3: a ring without a unit; and a magma
    # without a unit or an addition (a·b = a for nonzero a, b), for which
    # a ring-mode context is refused.
    two_z8 = make_table([[2 * a * b % 4 for b in range(4)] for a in range(4)],
                        zero=0, add=[[(a + b) % 4 for b in range(4)]
                                     for a in range(4)])
    no_add = make_table([[0, 0, 0], [0, 1, 1], [0, 2, 2]], zero=0)
    declared = {note for _, note in HYPOTHESES.values()}
    unmet = 0
    for y, modes in ((two_z8, (MULTIPLICATIVE, RING)),
                     (no_add, (MULTIPLICATIVE,))):
        for side in (RIGHT, LEFT, TWO_SIDED):
            for mode in modes:
                c = Context(discrete_space(2), y, side, mode)
                for cid in REGISTRY:
                    r = run_checker(cid, c)
                    if r.verdict == HYPOTHESIS_UNMET:
                        assert r.note in declared, (cid, side, mode, r.note)
                        unmet += 1
    assert unmet > 100
    for side in (RIGHT, LEFT, TWO_SIDED):
        with pytest.raises(MissingAddition,
                           match="ring mode needs an addition table"):
            Context(discrete_space(2), no_add, side, RING)


def one_sided_unit_tables():
    """Y with a Z_3 addition and the unit 1 acting on one side only: two
    units on the left (2·1 = 0), then two on the right (1·2 ≠ 2)."""
    z3 = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    return [make_table(mul, zero=0, unit=1, unit_side=side, add=z3)
            for mul, side in [([[0, 0, 0], [0, 1, 2], [0, 0, 0]], LEFT),
                              ([[0, 0, 0], [0, 1, 2], [0, 0, 2]], LEFT),
                              ([[0, 0, 0], [0, 1, 0], [0, 2, 0]], RIGHT),
                              ([[0, 0, 0], [0, 1, 1], [0, 2, 0]], RIGHT)]]


def test_every_checker_reports_under_a_one_sided_unit():
    """Every checker on the one-sided-unit tables over discrete 1-3 and
    Sierpiński + point, on every side and in both modes.  Each returns a
    report and none fails; a FAIL here is admitted only with a CHANGES.md
    FOUND line that names it.  The unit laws that L33, L39, L45, L56, T15
    and L75 declare are unmet exactly where the unit lacks them."""
    laws = ("unit_on_side", "unit_slices", "unit_right_law")
    law_of = {HYPOTHESES[law][1]: law for law in laws}
    sides = (RIGHT, LEFT, TWO_SIDED)
    fails, unmet = [], set()
    for y in one_sided_unit_tables():
        for space in (discrete_space(1), discrete_space(2), discrete_space(3),
                      disjoint_union(sierpinski_space(), discrete_space(1))):
            for side in sides:
                for mode in (MULTIPLICATIVE, RING):
                    c = Context(space, y, side, mode)
                    for cid in checker_ids():
                        r = run_checker(cid, c)
                        assert isinstance(r, TheoremReport), (cid, side, mode)
                        if r.verdict == FAIL:
                            fails.append((cid, y.unit_side, side, mode))
                        elif r.note in law_of:
                            unmet.add((cid, law_of[r.note], y.unit_side,
                                       side, mode))
    assert fails == []
    # (unit side, ideal side) pairs where the law fails
    lacking = {"unit_on_side": {(LEFT, RIGHT), (RIGHT, LEFT)},
               "unit_slices": {(LEFT, LEFT), (RIGHT, RIGHT)},
               "unit_right_law": {(LEFT, side) for side in sides}}
    declared = {"L39": "unit_on_side", "L45": "unit_on_side",
                "L56": "unit_on_side", "L33": "unit_slices",
                "T15": "unit_slices", "L75": "unit_right_law"}
    assert unmet == {(cid, law, unit_side, side, mode)
                     for cid, law in declared.items()
                     for unit_side, side in lacking[law]
                     for mode in (MULTIPLICATIVE, RING)
                     if mode == RING or cid != "L75"}


class _BodylessContext(Context):
    """A context on which any checker body would raise."""

    @property
    def ring(self):
        raise AssertionError("the checker body ran")

    lattice = ring


def test_unmet_is_decided_before_the_body():
    c = _BodylessContext(discrete_space(2), make_zmod(4), mode=RING)
    for cid in ("T34", "L70"):
        r = run_checker(cid, c)
        assert r.verdict == HYPOTHESIS_UNMET
        assert r.note == "Y must be free of zero divisors"


def test_aliases_match_their_originals():
    # a body's result is kept per context, so each side gets a fresh one
    checked = 0
    for c, d in zip(fixed_contexts(), fixed_contexts()):
        pairs = [("T25", "T24"), ("L46", "T18")]
        if c.flags.zero_divisor_free:
            pairs.append(("L70", "L40"))
        for alias, original in pairs:
            a, b = run_checker(alias, c), run_checker(original, d)
            assert (a.verdict, a.witness) == (b.verdict, b.witness)
            checked += 1
    assert checked == 17


def _counted(monkeypatch, cid, body):
    """Register body under cid for this test, recording each context it
    runs on."""
    calls = []

    def counted(c):
        calls.append(c)
        return body(c)
    monkeypatch.setitem(REGISTRY, cid, REGISTRY[cid]._replace(body=counted))
    return calls


def test_bodies_run_once_per_context(monkeypatch):
    calls = _counted(monkeypatch, "L54", REGISTRY["L54"].body)
    c, d = ctx(), ctx()
    for cid in ("L58", "L54", "L58", "L54"):
        assert run_checker(cid, c).verdict == PASS
    assert calls == [c]
    assert run_checker("L54", d).verdict == PASS
    assert calls == [c, d]
    # the result is kept under the body, the key an alias shares
    e = ctx()
    witness = run_checker("T26", e).witness
    assert witness is not None and e.memo[REGISTRY["T26"].body] is witness


def test_a_body_over_budget_runs_again(monkeypatch):
    def over(c):
        raise BudgetExceeded("planted", cap=1, reached=2)
    calls = _counted(monkeypatch, "L54", over)
    c = ctx()
    for cid in ("L58", "L54", "L58"):
        r = run_checker(cid, c)
        assert (r.verdict, r.note) == (BUDGET_EXCEEDED, "planted")
    assert calls == [c, c, c]


def test_hypotheses_are_kept_but_not_their_exceptions(monkeypatch):
    holds, note = HYPOTHESES["complements"]
    asked = []
    monkeypatch.setitem(HYPOTHESES, "complements",
                        (lambda c: asked.append(c) or holds(c), note))
    c = ctx()
    for other in (c, ctx(), c):
        assert run_checker("T23", other).verdict == PASS
    assert len(asked) == 2
    # the lattice is past its budget: every run asking for primes raises anew
    big = ctx(4, 4, mode=MULTIPLICATIVE)
    for cid in ("T22", "L59.17", "T22"):
        r = run_checker(cid, big)
        assert r.verdict == BUDGET_EXCEEDED and "past 1200 ideals" in r.note
    assert "primes" not in big.memo


def test_l59_is_unmet_when_no_item_can_run():
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 2]]
    c = Context(discrete_space(2), make_table(mul, zero=0),
                mode=MULTIPLICATIVE)
    items = [run_checker(f"L59.{k}", c) for k in range(1, 20)]
    assert {r.verdict for r in items} == {HYPOTHESIS_UNMET}
    r = run_checker("L59", c)
    assert (r.verdict, r.note) == (HYPOTHESIS_UNMET, items[0].note)


def test_l59_requires_what_its_items_share():
    # L59's hypotheses are those every item shares, and one item needs
    # nothing more: L59 is unmet exactly when every item is
    shared = set(REGISTRY["L59"].requires)
    items = [REGISTRY[f"L59.{k}"] for k in range(1, 20)]
    assert all(shared <= set(item.requires) for item in items)
    assert any(set(item.requires) == shared for item in items)


def test_context_chi_caches_results_and_never_errors():
    # a clopen is a class mask, so a non-clopen U cannot be asked for; the
    # ring's own chi still refuses one (test_chi_values_and_refusals)
    c = Context(sierpinski_space(), make_zmod(3), mode=RING)
    full = frozenset({0, 1})
    assert c.ring.chi_table(2) is c.ring.chi_table(2)
    assert c.ring.chi_table() is c.ring.chi_table(1)
    assert c.chi(1, 2) == c.ring.index(c.ring.chi(full, 2))
    assert c.chi(0, 1) != c.chi(0, 2)
    for _ in range(2):
        with pytest.raises(ZeroValue):
            c.chi(1, 0)
    nonunital = Context(discrete_space(1),
                        make_table(((0, 0), (0, 0)), zero=0, unit=None),
                        mode=MULTIPLICATIVE)
    for _ in range(2):
        with pytest.raises(MissingUnit):
            nonunital.chi(0)


def _refuse(masks):
    raise AssertionError("a checker enumerated a family of sets")


def test_checkers_walk_class_masks_not_clopen_families(monkeypatch):
    # a clopen is its class mask, so no checker enumerates a family: L66
    # tests the zero sets of C(Z, Z_2) mask by mask with ``is_clopen``
    contexts = [
        Context(discrete_space(3), make_zmod(2), mode=RING),
        Context(disjoint_union(sierpinski_space(), discrete_space(1)),
                make_zmod(3), LEFT, RING),
        Context(discrete_space(2), make_zmod(4), TWO_SIDED, MULTIPLICATIVE),
    ]
    monkeypatch.setattr(topology, "all_unions", _refuse)
    monkeypatch.setattr(topology, "clopen_family", _refuse)
    ran = 0
    for c in contexts:
        for cid in GREEN_SUITE:
            r = run_checker(cid, c)
            assert r.verdict in (PASS, HYPOTHESIS_UNMET), (cid, r)
            ran += r.verdict == PASS
    assert ran > 150


# -- reference bodies: the χ calculus pair by pair, ideal by ideal ---------
# The checkers read χ_U·χ_W and χ_U+χ_W from two tables and quantify over
# the ideals through the lattice's columns; these are the forms they
# replaced, which call the ring per pair and scan every ideal in Python.
# Each must give the witness its checker gives, FAIL or PASS.

def _nested(u, w):
    return u & ~w == 0


def _grid(c, keep=lambda u, w: True):
    chi = c.chi_table()
    return [(u, w, chi[u], chi[w])
            for u in c.clopens for w in c.clopens if keep(u, w)]


def _pairs(c):
    chi = c.chi_table()
    return [(u, chi[u], chi[c.all_classes ^ u]) for u in c.clopens]


def _mul(c, f, g):
    return c.ring.row("mul", f)[g]


def _add(c, f, g):
    return c.ring.row("add", f)[g]


def _implied(c, rules):
    need = {}
    for _, _, x, y in rules:
        need[x] = need.get(x, 0) | 1 << y
    need = list(need.items())
    for i in c.lattice.ideals:
        bits = i.bits
        if any(bits >> x & 1 and ys & ~bits for x, ys in need):
            for u, w, x, y in rules:
                if bits >> x & 1 and not bits >> y & 1:
                    return {"I": i, "U": c.points(u), "W": c.points(w)}
    return None


def _content_closed(c, op):
    el, every = c.ring.elements, bitset(c.chi_set)
    for i in c.lattice.ideals:
        inside = i.bits & every
        xi = members(inside)
        for f in xi:
            row = c.ring.row(op, f)
            for g in xi:
                if not inside >> row[g] & 1:
                    return {"I": i, "f": el[f], "g": el[g]}
    return None


def _ref_t5(c):
    for x in c.space.points:
        if (c.points(c.alike(c.whole)[c.ring.class_of[x]])
                != quasi_component(c.space, x)):
            return {"x": x}
    return None


def _ref_t18(c):
    chi = c.chi_table()
    for i1 in c.primes:
        for i2 in c.lattice.proper:
            if not i1 <= i2:
                continue
            for u in c.clopens:
                if (i1.bits ^ i2.bits) >> chi[u] & 1:
                    return {"I1": i1, "I2": i2, "U": c.points(u)}
    return None


def _ref_t20(c):
    for j in c.primes:
        for i in c.lattice.proper:
            if not j < i:
                continue
            for u, a, b in _pairs(c):
                if (i.bits >> a & 1) == (i.bits >> b & 1):
                    return {"J": j, "I": i, "U": c.points(u)}
    return None


def _ref_t21(c):
    ring, chis = c.ring, c.chi_set
    el, inside = ring.elements, set(chis)
    for f in chis:
        row = ring.row("mul", f)
        for g in chis:
            if row[g] not in inside:
                return {"f": el[f], "g": el[g], "closure": "mul"}
            if row[f] != f:
                return {"f": el[f], "idempotent": False}
    if (c.flags.char_two and c.flags.additive_associative
            and c.flags.additive_commutative and c.flags.distributive):
        patt = {f: c.all_classes & ~c.zero_classes[f] for f in chis}
        if len(set(patt.values())) != len(chis):
            return {"iso": "not injective"}
        if len(chis) != 2 ** len(ring.classes):
            return {"iso": "not surjective"}
        for f in chis:
            mul, add = ring.row("mul", f), ring.row("add", f)
            for g in chis:
                if (patt[mul[g]] != patt[f] & patt[g]
                        or patt[add[g]] != patt[f] ^ patt[g]):
                    return {"f": el[f], "g": el[g], "iso": "not a homomorphism"}
    return None


def _ref_t22(c):
    ring, chis = c.ring, c.chi_set
    el = ring.elements
    for i in c.primes:
        xi = [f for f in chis if i.bits >> f & 1]
        inside = set(xi)
        for f in chis:
            row = ring.row("mul", f)
            for g in xi:
                if row[g] not in inside:
                    return {"I": i, "f": el[f], "g": el[g], "absorb": False}
        for f in chis:
            row = ring.row("mul", f)
            for g in chis:
                if row[g] in inside and f not in inside and g not in inside:
                    return {"I": i, "f": el[f], "g": el[g], "prime": False}
    return None


def _ref_l33(c):
    chi = {a: c.chi_table(a) for a in c.nonzero}
    nested = [(u, u1, a, chi[a][u], chi[a][u1])
              for u in c.clopens for u1 in c.clopens if _nested(u, u1)
              for a in c.nonzero]
    for i in c.lattice.proper:
        for u, u1, a, x, y in nested:
            if i.bits >> x & 1 and not i.bits >> y & 1:
                return {"I": i, "U": c.points(u), "U1": c.points(u1), "a": a}
    pairs = [(u, a, chi[a][u], chi[a][c.all_classes ^ u])
             for u in c.clopens for a in c.nonzero]
    for i in c.primes:
        for u, a, x, y in pairs:
            if not i.bits >> x & 1 and not i.bits >> y & 1:
                return {"I": i, "U": c.points(u), "a": a}
    return None


def _ref_l59_1(c):
    for u in c.clopens:
        chi = c.chi(u)
        if _mul(c, chi, chi) != chi:
            return {"U": c.points(u)}
    if c.algebra.add is not None:
        for u, x, y in _pairs(c):
            if _add(c, x, y) != c.one:
                return {"U": c.points(u), "law": "chi_u + chi_uc = Id"}
    return None


def _ref_l59_2(c):
    chi = c.chi_table()
    joins = [(u, w, x, chi[u | w]) for u, w, x, _ in _grid(c)]
    for u, w, x, xy in joins:
        if _mul(c, x, chi[w]) != xy:
            return {"U": c.points(u), "W": c.points(w)}
    return _implied(c, joins)


def _ref_l59_3(c):
    chi = c.chi_table()
    for u in c.clopens:
        row = c.ring.row("add", chi[u])
        if row[chi[u]] != c.theta:
            return {"U": c.points(u), "law": "chi + chi = theta"}
        for w in c.clopens:
            target = (u & w) | (c.all_classes ^ (u | w))
            if row[chi[w]] != chi[target]:
                return {"U": c.points(u), "W": c.points(w)}
    return None


def _ref_l59_4(c):
    for u, w, x, y in _grid(c, _nested):
        if _mul(c, y, x) != y:
            return {"U": c.points(u), "W": c.points(w)}
    return None


def _ref_l59_6(c):
    chi = c.chi_table()
    for u, w, _, _ in _grid(c):
        if c.zero_classes[chi[u & w]] != u & w:
            return {"U": c.points(u), "W": c.points(w)}
    return None


def _ref_l59_7(c):
    zc = c.zero_classes
    for u, w, x, y in _grid(c):
        if zc[x] | zc[y] != u | w or zc[_mul(c, x, y)] != u | w:
            return {"U": c.points(u), "W": c.points(w)}
    return None


def _ref_l59_8(c):
    for i in c.primes:
        for u, x, y in _pairs(c):
            if not i.bits >> x & 1 and not i.bits >> y & 1:
                return {"I": i, "U": c.points(u)}
    return None


def _ref_l59_10(c):
    disjoint = _grid(c, lambda u1, u2: not u1 & u2)
    for i in c.primes:
        for u1, u2, x, y in disjoint:
            if i.bits >> x & 1 and i.bits >> y & 1:
                return {"I": i, "U1": c.points(u1), "U2": c.points(u2)}
    return None


def _ref_l59_11(c):
    chi = c.chi_table()
    sums = [[_add(c, chi[u], chi[w]) for w in c.clopens] for u in c.clopens]
    for i in c.lattice.ideals:
        held = [u for u in c.clopens if i.bits >> chi[u] & 1]
        for u in held:
            for w in held:
                if not i.bits >> sums[u][w] & 1:
                    return {"I": i, "U": c.points(u), "W": c.points(w)}
    return None


def _ref_l59_13(c):
    if c.chi(0) != c.one or c.chi(c.all_classes) != c.theta:
        return {"law": "chi_empty = Id, chi_Z = theta"}
    for i in c.lattice.ideals:
        if not i.bits >> c.theta & 1:
            return {"I": i}
    return None


def _ref_l59_15(c):
    el, chis = c.ring.elements, c.chi_set
    every = bitset(chis)
    by_g = [[_mul(c, f, g) for f in chis] for g in chis]
    hits = [bitset(col) for col in by_g]
    for i in c.lattice.ideals:
        inside = i.bits & every
        for g, col, hit in zip(chis, by_g, hits):
            if inside >> g & 1 and hit & ~inside:
                f = next(f for f, fg in zip(chis, col)
                         if not inside >> fg & 1)
                return {"I": i, "f": el[f], "g": el[g]}
    return None


def _ref_l59_17(c):
    el, chis = c.ring.elements, c.chi_set
    every = bitset(chis)
    for i in c.primes:
        inside = i.bits & every
        out = [f for f in chis if not inside >> f & 1]
        for f in out:
            for g in out:
                if inside >> _mul(c, f, g) & 1:
                    return {"I": i, "f": el[f], "g": el[g]}
    return None


def _ref_l59_19(c):
    pairs = [(v, u, _mul(c, x, y), _add(c, x, y))
             for v, u, x, y in _grid(c, lambda v, u: not v & u)]
    for i in c.primes:
        for v, u, m, s in pairs:
            if i.bits >> m & 1 and i.bits >> s & 1:
                return {"I": i, "V": c.points(v), "U": c.points(u)}
    return None


def _ref_l61(c):
    x = checkers._body(c, checkers._x)
    pool = () if checkers._body(c, checkers._exact) else c.lattice.ideals
    for i1 in pool:
        a, xa = i1.bits, x[i1.bits]
        for i2 in pool:
            b, xb = i2.bits, x[i2.bits]
            if not a & ~b and xa & ~xb:
                return {"item": 1, "I1": i1, "I2": i2}
            if a & b in x and x[a & b] != xa & xb:
                return {"item": 2, "I1": i1, "I2": i2}
    if c.flags.char_two and c.mode == RING:
        sums = {}
        for i1 in c.lattice.ideals:
            xs = members(x[i1.bits])
            for i2 in c.lattice.ideals:
                a, b, xb, out = i1.bits, i2.bits, x[i2.bits], 0
                for f in xs:
                    s = sums.get((f, xb))
                    if s is None:
                        row = c.ring.row("add", f)
                        s = sums[f, xb] = bitset(row[g] for g in members(xb))
                    out |= s
                if out & ~(a | b) and out & ~c.join(a, b):
                    return {"item": 8, "I1": i1, "I2": i2}
    return None


def _escape(c, cols):
    proper = c.lattice.proper
    flat = [z for _, _, x, y in cols for z in (x, y)]
    products = [bitset(map(c.ring.row("mul", f).__getitem__, flat))
                for f in range(len(c.ring.elements))]
    for i in proper:
        for f in members(i.bits):
            if products[f] & ~i.bits:
                row = c.ring.row("mul", f)
                for u, a, x, y in cols:
                    if not (i.bits >> row[x] & 1 and i.bits >> row[y] & 1):
                        return i, c.ring.elements[f], c.points(u), a
    return None


def _ref_l34(c):
    out = _escape(c, [(u, a, c.chi(u, a), c.chi(c.all_classes ^ u, a))
                      for u in c.clopens for a in c.nonzero])
    if out is not None:
        return {"I": out[0], "f": out[1], "U": out[2], "a": out[3]}
    return None


def _ref_t35(c):
    out = _escape(c, [(u, None, x, y) for u, x, y in _pairs(c)])
    if out is not None:
        return {"I": out[0], "f": out[1], "U": out[2]}
    return None


def _ref_t37(c):
    ring, pairs = c.ring, _pairs(c)
    for i in c.primes:
        for f in range(len(ring.elements)):
            if i.bits >> f & 1:
                continue
            row = ring.row("mul", f)
            for u, x, y in pairs:
                a = i.bits >> row[x] & 1
                if a == i.bits >> row[y] & 1:
                    return {"I": i, "f": ring.elements[f], "U": c.points(u),
                            "both" if a else "neither": True}
    return None


def _ref_l75(c):
    ring = c.ring
    # per f, each distinct (f·χ_U, f·χ_{Z−U}) with the first U giving it
    slices = []
    for f in range(len(ring.elements)):
        row, first = ring.row("mul", f), {}
        for u, x, y in _pairs(c):
            first.setdefault((row[x], row[y]), u)
        slices.append([(a, b, u) for (a, b), u in first.items()])
    for i in c.lattice.ideals:
        for f in members(c.whole & ~i.bits):
            for a, b, u in slices[f]:
                if i.bits >> a & 1 and i.bits >> b & 1:
                    return {"I": i, "f": ring.elements[f], "U": c.points(u)}
    return None


def _ref_l67(c):
    chi, every = c.chi_table(), c.all_classes
    for u, w, _, _ in _grid(c):
        lhs = _add(c, _mul(c, chi[every ^ u], chi[every ^ w]),
                   chi[every ^ (u | w)])
        if lhs != _add(c, chi[u | w], chi[u & w]):
            return {"U": c.points(u), "W": c.points(w)}
    return None


def _ref_l73(c):
    sets = list(dict.fromkeys(c.point_sets + [frozenset()]))
    izs = dict(zip(sets, map(c.vanishing, sets)))
    for k in (2, 3):
        for combo in itertools.combinations(sets, min(k, len(sets))):
            inter = c.whole
            for a in combo:
                inter &= izs[a]
            if inter != c.vanishing(frozenset().union(*combo)):
                return {"family": combo}
    return None


def _ref_l31_c(c):
    for u, a, b in _pairs(c):
        if not u or u == c.all_classes:
            continue
        if _mul(c, a, a) != a or _mul(c, b, b) != b:
            return {"U": c.points(u), "idempotent": False}
        if _mul(c, a, b) != c.theta:
            return {"U": c.points(u), "product": "not theta"}
        if c.algebra.add is not None and _add(c, a, b) != c.one:
            return {"U": c.points(u), "sum": "not identity"}
    return None


REFERENCE = {
    "T5": _ref_t5, "T18": _ref_t18, "T20": _ref_t20, "T21": _ref_t21,
    "T22": _ref_t22, "L33": _ref_l33, "L59.1": _ref_l59_1,
    "L59.2": _ref_l59_2, "L59.3": _ref_l59_3, "L59.4": _ref_l59_4,
    "L59.6": _ref_l59_6, "L59.7": _ref_l59_7, "L59.8": _ref_l59_8,
    "L59.9": lambda c: _implied(c, _grid(c, _nested)),
    "L59.10": _ref_l59_10, "L59.11": _ref_l59_11, "L59.13": _ref_l59_13,
    "L59.14": lambda c: _content_closed(c, "mul"),
    "L59.15": _ref_l59_15,
    "L59.16": lambda c: _content_closed(c, "add"),
    "L59.17": _ref_l59_17,
    "L59.18": lambda c: _implied(c, [(u, w, x, y) for u, w, x, y in _grid(c)
                                     if _add(c, x, y) == c.theta]),
    "L59.19": _ref_l59_19, "L61": _ref_l61, "L67": _ref_l67,
    "L73": _ref_l73, "L31.C": _ref_l31_c, "L34": _ref_l34, "T35": _ref_t35,
    "T37": _ref_t37, "L75": _ref_l75,
}


def _outcome(body, c):
    """What body(c) returns, or the type of the exception it raises."""
    try:
        return body(c)
    except (BudgetExceeded, MissingAddition, MissingUnit) as exc:
        return type(exc)


def _matches_the_reference(c) -> dict:
    """Assert each REFERENCE body's witness on c is its checker's, where
    the checker's hypotheses hold; the witnesses compared, by checker."""
    compared = {}
    for cid, reference in REFERENCE.items():
        checker = REGISTRY[cid]
        if _outcome(lambda c: checkers._unmet(c, checker), c) is not None:
            continue
        got = compared[cid] = _outcome(checker.body, c)
        assert got == _outcome(reference, c), (cid, c.space, c.side, c.mode)
    return compared


def test_bodies_match_their_references_on_the_default_campaign():
    """Over the default campaign's instances, on every side and in both
    modes, each body gives its reference's witness, and every checker of
    REFERENCE runs; every witness there is None (a PASS)."""
    contexts, ran = 0, set()
    for spec in campaign_specs(0, DEFAULT_INSTANCES):
        space, algebra = random_instance(spec)
        modes = (MULTIPLICATIVE, RING) if algebra.add is not None else (
            MULTIPLICATIVE,)
        for side in (RIGHT, LEFT, TWO_SIDED):
            for mode in modes:
                c = Context(space, algebra, side, mode, seed=spec.seed)
                compared = _matches_the_reference(c)
                assert not any(isinstance(got, dict)
                               for got in compared.values())
                ran |= {cid for cid, got in compared.items() if got is None}
                contexts += 1
    assert contexts == 900 and ran == set(REFERENCE)


class TwicePlantedContext(PlantedContext):
    """PlantedContext with a second planted set, every element but
    (0, 1, 0), which lies above PLANTED in lattice order: a body that took
    the last ideal breaking a law, not the first, would name it."""

    planted = (PLANTED, tuple(f for f in itertools.product((0, 1), repeat=3)
                              if f != (0, 1, 0)))


def test_bodies_match_their_references_on_the_planted_contexts():
    """On the planted contexts, whose lattices or families hold a set that
    no ideal is, the bodies give their reference's witness, FAIL or PASS."""
    failed = set()
    for name, make in [("planted", PlantedContext),
                       ("planted twice", TwicePlantedContext),
                       *PLANTED_CONTEXTS.items()]:
        compared = _matches_the_reference(make())
        failed |= {(name, cid) for cid, got in compared.items()
                   if isinstance(got, dict)}
    assert {cid for _, cid in failed} >= {
        "L59.2", "L59.9", "L59.11", "L59.14", "L59.15", "L59.16", "L59.17",
        "L59.19", "L61", "L34", "T35", "L75"}
    assert {cid for name, cid in failed if name == "planted twice"} >= {
        "L33", "L59.2", "L59.9", "L59.11", "L59.14", "L59.15", "L59.16"}


def test_chi_tables_read_the_ring_rows():
    """prod[u][w] is the index of χ_U·χ_W and sums[u][w] that of χ_U+χ_W,
    in that order: read here for a χ table of arbitrary elements of a ring
    whose multiplication and addition do not commute."""
    y = make_table([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 2, 2], [0, 3, 3, 3]],
                   zero=0, unit=1,
                   add=[[0, 1, 2, 3], [1, 2, 3, 0], [2, 0, 1, 3],
                        [3, 3, 0, 1]])

    class Shuffled(Context):
        def chi_table(self, a=None):
            n = len(self.ring.elements)
            return tuple((5 * k + 3) % n for k in self.clopens)

    c = Shuffled(discrete_space(2), y, mode=MULTIPLICATIVE)
    ring, chi = c.ring, c.chi_table()
    prod = checkers._body(c, checkers._prod)
    sums = checkers._body(c, checkers._sums)
    asym = 0
    for u in c.clopens:
        for w in c.clopens:
            f, g = ring.elements[chi[u]], ring.elements[chi[w]]
            assert ring.elements[prod[u][w]] == tuple(
                y.mul[a][b] for a, b in zip(f, g))
            assert ring.elements[sums[u][w]] == tuple(
                y.add[a][b] for a, b in zip(f, g))
            asym += prod[u][w] != prod[w][u] and sums[u][w] != sums[w][u]
    assert asym > 0
