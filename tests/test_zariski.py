import json

import pytest

from quasiring import funcspace
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
