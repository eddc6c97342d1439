import json

import pytest

from quasiring import funcspace, zariski
from quasiring.algebra import make_zmod
from quasiring.cli import main
from quasiring.errors import ZeroDivisorHypothesis
from quasiring.funcspace import FunctionRing
from quasiring.sets import SeqSet
from quasiring.topology import (
    SequenceSpace,
    discrete_space,
    disjoint_union,
    sierpinski_space,
)
from quasiring.zariski import (
    compare_T1_TZ_T,
    zariski_closed_family,
    zero_set_space,
)

from test_topology import zariski_as_space


def test_discrete_zariski_is_discrete():
    ring = FunctionRing(discrete_space(2), make_zmod(3))
    zt = zariski_closed_family(ring)
    assert set(zt.closed_family) == {frozenset(), frozenset({0}),
                                     frozenset({1}), frozenset({0, 1})}
    assert zt.union_closed
    assert zariski_as_space(zt) == discrete_space(2)
    assert zero_set_space(ring) == discrete_space(2)


def test_sierpinski_zariski_collapses():
    # constants only, so the zero sets are just the empty and full sets
    ring = FunctionRing(sierpinski_space(), make_zmod(2))
    zt = zariski_closed_family(ring)
    assert set(zt.closed_family) == {frozenset(), frozenset({0, 1})}


def test_zero_divisors_refused_with_witness():
    ring = FunctionRing(discrete_space(2), make_zmod(4))
    with pytest.raises(ZeroDivisorHypothesis) as err:
        zariski_closed_family(ring)
    assert err.value.witness == (2, 2)


def test_comparisons_t1_equals_tz():
    space = disjoint_union(sierpinski_space(), sierpinski_space())
    ring = FunctionRing(space, make_zmod(3))
    t1_tz, tz_t, t1_t = compare_T1_TZ_T(ring)
    assert t1_tz.verdict == "equal"
    # the clopen-base topology loses the one-sided opens of the original
    assert t1_t.verdict == "first-strictly-coarser"
    assert tz_t.verdict == "first-strictly-coarser"


def test_symbolic_zariski_closed_sets():
    # every zero set V(f) of the sequence ring is finite or a cofinite set
    # holding ∞, and that family is the closed family of the space itself
    z = SequenceSpace()
    assert z.is_closed(SeqSet.of([1, 4]))
    assert z.is_closed(SeqSet.cofinite([0], infinity=True))
    assert not z.is_closed(SeqSet.cofinite([0], infinity=False))
    assert z.is_closed(SeqSet(frozenset(), False, True))  # just {inf}


def _refuse(*args):
    raise AssertionError("a value tuple was decoded")


def test_zero_sets_and_analyze_decode_no_value_tuple(monkeypatch, tmp_path,
                                                      capsys):
    # 5^7 = 78125 elements: every V(f) comes from the per-element zero
    # masks, without one value tuple being decoded or iterated
    monkeypatch.setattr(funcspace.Elements, "_decode", _refuse)
    monkeypatch.setattr(funcspace.Elements, "__iter__", _refuse)
    ring = FunctionRing(discrete_space(7), make_zmod(5))
    assert len(ring.elements) == 5 ** 7
    zt = zariski_closed_family(ring)
    assert len(zt.closed_family) == 2 ** 7 and zt.union_closed
    spec = tmp_path / "big.qr"
    spec.write_text("space Z discrete 7\nalgebra Y zmod 5\nring R = C(Z, Y)\n")
    assert main(["analyze", str(spec), "--json"]) == 0
    entry = json.loads(capsys.readouterr().out)["rings"][0]
    assert entry["elements"] == 5 ** 7
    assert entry["topology_comparisons"]["T1_vs_TZ"] == "equal"


def _count_indicators(monkeypatch) -> list:
    """Record the tables ``zariski._indicator`` is built from."""
    built, indicator = [], zariski._indicator

    def counted(table, q):
        built.append(table)
        return indicator(table, q)
    monkeypatch.setattr(zariski, "_indicator", counted)
    return built


def test_rings_over_one_core_build_one_zero_indicator(monkeypatch):
    # discrete 3 and a Sierpiński space plus two points both have three
    # quasi-components: over Z_3 they share a core, and so one indicator
    built = _count_indicators(monkeypatch)
    a = FunctionRing(discrete_space(3), make_zmod(3))
    b = FunctionRing(disjoint_union(sierpinski_space(), discrete_space(2)),
                     make_zmod(3))
    assert a._core is b._core
    tz_a, tz_b = zero_set_space(a), zero_set_space(b)
    assert built == [a.zero_classes()] and built[0] is b.zero_classes()
    assert tz_a == discrete_space(3) and zero_set_space(a) == tz_a
    assert tz_b != tz_a and len(built) == 1
    assert a.kept("zero_indicator") == (1 << 2 ** 3) - 1


@pytest.mark.parametrize("cap", [funcspace.ROW_CACHE_ENTRIES, 0])
def test_tz_reads_the_zero_classes_it_is_given(monkeypatch, cap):
    # a plain ring's TZ first, so that under the default cap its indicator
    # is kept; then a ring over the same core whose table misses elements:
    # TZ is read off that table, not the kept indicator.  Under a cap that
    # keeps nothing, each TZ builds its indicator from its own table.
    monkeypatch.setattr(funcspace, "ROW_CACHE_ENTRIES", cap)
    built = _count_indicators(monkeypatch)
    plain = FunctionRing(discrete_space(2), make_zmod(2))
    assert zero_set_space(plain) == discrete_space(2)
    partial = FunctionRing(discrete_space(2), make_zmod(2))
    masks = [0b11, 0b10, 0b00]          # the masks of (0, 0), (1, 0), (1, 1)
    monkeypatch.setattr(partial, "zero_classes", lambda: masks)
    tz = zero_set_space(partial)
    assert tz.nbhds == (0b01, 0b11)     # the opens {}, {0} and {0, 1}
    assert built[-1] is masks
    assert zero_set_space(plain) == discrete_space(2)
    kept = plain.kept("zero_indicator")
    assert (kept is None) == (cap == 0)
    assert len(built) == (3 if cap == 0 else 2)
