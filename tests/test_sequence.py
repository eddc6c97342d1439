import pytest

from quasiring.algebra import make_zmod
from quasiring.sequence import (
    DiscretizedFn,
    DiscretizedRing,
    SeqFn,
    SequenceRing,
    chi_of_inf,
    discretize,
    in_discretization_image,
)
from quasiring.sets import INF, SeqSet


@pytest.fixture
def ring():
    return SequenceRing(make_zmod(2))


def test_canonical_prefix():
    assert SeqFn.make((1, 0, 0), 0) == SeqFn((1,), 0)
    with pytest.raises(ValueError):
        SeqFn((1, 0), 0)


def test_arithmetic_stays_canonical(ring):
    f = SeqFn((1,), 0)
    g = SeqFn((1, 1, 0), 1)
    assert ring.mul(f, g) == SeqFn((1,), 0)
    assert ring.add(f, f) == ring.theta


def test_zero_set_shapes(ring):
    # zero tail: cofinite zero set containing infinity
    zs = ring.zero_set(SeqFn((1, 0, 1), 0))
    assert zs.infinity and zs.cofinal
    assert not zs.contains(0) and zs.contains(1) and zs.contains(5)
    # nonzero tail: finite zero set avoiding infinity
    zs = ring.zero_set(SeqFn((0,), 1))
    assert zs == SeqSet.of([0])


def test_vanishing_at_inf_iff_eventually_zero(ring):
    ideal = ring.vanishing_I([INF])
    for f in ring.generate(4):
        assert ideal.member(f) == (f.tail == 0)


def test_no_function_vanishes_only_at_inf(ring):
    only_inf = SeqSet(frozenset(), False, True)
    assert all(ring.zero_set(f) != only_inf for f in ring.generate(5))


def test_inf_is_intersection_of_zero_sets_through_it(ring):
    budget = 6
    inter = SeqSet.full()
    for f in ring.generate(budget):
        zs = ring.zero_set(f)
        if zs.contains(INF):
            inter = inter.intersection(zs)
    assert inter.contains(INF)
    assert not any(inter.contains(n) for n in range(budget))


def test_vanishing_ideal_at_inf_prime_up_to_budget(ring):
    verdict, witness = ring.is_prime_bounded(ring.vanishing_I([INF]), 6)
    assert verdict and witness is None


def test_vanishing_at_point_not_prime_with_zero_divisors():
    ring = SequenceRing(make_zmod(4))
    verdict, witness = ring.is_prime_bounded(ring.vanishing_I([0]), 2)
    assert not verdict
    f, g = witness
    assert ring.vanishing_I([0]).member(ring.mul(f, g))


def test_chi_of_clopen(ring):
    u = SeqSet.cofinite([0, 2])
    f = ring.chi(u)
    assert f.value_at(0) == 1 and f.value_at(1) == 0
    assert f.value_at(INF) == 0 and f.tail == 0


def test_discretization_injective_not_surjective(ring):
    seen = set()
    for f in ring.generate(3):
        d = discretize(f)
        assert in_discretization_image(d)
        assert d not in seen
        seen.add(d)
    chi_d = chi_of_inf(ring.algebra)
    assert not in_discretization_image(chi_d)
    assert chi_d not in seen


def test_image_of_vanishing_ideal_not_prime_downstairs():
    # the image of I(inf) inside the discretized ring loses primality:
    # f, g both fail continuity at inf, yet their product lands in the image
    alg = make_zmod(2)
    dring = DiscretizedRing(alg)

    def in_image_of_ideal(h):
        return h.tail == 0 and h.at_inf == 0

    f = DiscretizedFn((), 1, 0)
    g = DiscretizedFn((), 0, 1)
    product = dring.mul(f, g)
    assert in_image_of_ideal(product)
    assert not in_image_of_ideal(f) and not in_image_of_ideal(g)
    # and the image is still an ideal: it absorbs ring multiplication
    for h in dring.generate(2):
        assert in_image_of_ideal(dring.mul(product, h))
