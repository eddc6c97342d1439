import pytest

from quasiring.algebra import make_table, make_zmod
from quasiring import ideals
from quasiring.errors import CrossCheckFailed, NotProper
from quasiring.funcspace import FunctionRing
from quasiring.ideals import (
    MULTIPLICATIVE,
    RING,
    all_ideals_bruteforce,
    classify_primes,
    family_sets,
    generate_ideal,
    ideal_lattice,
    is_prime,
    prime_radical,
    principal_ideal,
    vanishing_ideal,
)
from quasiring.topology import discrete_space, sierpinski_space


@pytest.fixture
def d2z3():
    return FunctionRing(discrete_space(2), make_zmod(3))


@pytest.fixture
def d2z4():
    return FunctionRing(discrete_space(2), make_zmod(4))


def test_generate_ideal_closure(d2z3):
    i = generate_ideal(d2z3, [(0, 1)], mode=RING)
    # (0,1) generates everything vanishing at the first point
    assert i.elements == frozenset({(0, 0), (0, 1), (0, 2)})


def test_principal_ideal_multiplicative_vs_ring(d2z3):
    m = principal_ideal(d2z3, (0, 1), mode=MULTIPLICATIVE)
    r = principal_ideal(d2z3, (0, 1), mode=RING)
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
    whole = generate_ideal(d2z3, list(d2z3), mode=RING)
    with pytest.raises(NotProper):
        is_prime(whole)


def test_point_ideal_not_prime_with_zero_divisors(d2z4):
    verdict, witness = is_prime(vanishing_ideal(d2z4, {0}, mode=RING))
    assert not verdict
    f, g = witness
    i = vanishing_ideal(d2z4, {0}, mode=RING).elements
    assert d2z4.mul(f, g) in i and f not in i and g not in i


def test_lattice_matches_bruteforce_small():
    for mode in (MULTIPLICATIVE, RING):
        ring = FunctionRing(discrete_space(2), make_zmod(2))
        lat = ideal_lattice(ring, mode=mode)
        assert lat.complete
        assert {i.elements for i in lat.ideals} == all_ideals_bruteforce(
            ring, mode=mode)


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
    union = lat.find(i0.elements | i1.elements)
    assert union is not None and union.is_proper()
    assert union.meta["is_prime"]


def test_mult_only_algebra_lattice():
    mul = [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    ring = FunctionRing(discrete_space(2), make_table(mul, zero=0, unit=1))
    lat = ideal_lattice(ring)
    assert lat.mode == MULTIPLICATIVE
    assert lat.complete
    assert {i.elements for i in lat.ideals} == all_ideals_bruteforce(
        ring, mode=MULTIPLICATIVE)


def test_prime_radical_is_nilpotents_for_z4_constants():
    # constants over one quasi-component: the ring is a copy of Z_4, whose
    # single prime {0,2} makes the radical the nilpotent pair
    ring = FunctionRing(sierpinski_space(), make_zmod(4))
    lat = classify_primes(ideal_lattice(ring, mode=RING))
    assert [p.elements for p in lat.primes()] == [frozenset({(0,), (2,)})]
    assert prime_radical(lat) == frozenset({(0,), (2,)})


def test_lattice_oracle_disagreement_raises(d2z3, monkeypatch):
    # the subset-scan cross-check must survive `python -O`
    monkeypatch.setattr(ideals, "all_ideals_bruteforce",
                        lambda ring, side, mode: {frozenset({ring.theta})})
    with pytest.raises(CrossCheckFailed):
        ideal_lattice(d2z3, mode=RING)


def test_family_sets_incidence(d2z3):
    lat = classify_primes(ideal_lattice(d2z3, mode=RING))
    fam = family_sets(lat)
    for i in lat.ideals:
        for u in fam.clopens:
            assert (u in fam.U_I[i]) == (fam.chi_of[u] in i)
    # the empty clopen's chi is the identity, absent from every proper prime
    empty = frozenset()
    assert fam.P_u[empty] == frozenset(
        p for p in fam.P if not p.is_proper())
