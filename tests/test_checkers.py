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
from quasiring.verify.checkers import HYPOTHESES
from quasiring.ideals import LEFT, MULTIPLICATIVE, RIGHT, RING, TWO_SIDED
from quasiring.sets import SeqSet


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
