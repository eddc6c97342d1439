"""End-to-end acceptance suite.

Each test covers one acceptance criterion, enforces its time bound, and
prints a single pass/fail line (visible with ``pytest -v`` or ``-s``).
"""

import sys
import time
from contextlib import contextmanager

from quasiring.algebra import make_zmod, zero_divisors
from quasiring.funcspace import FunctionRing
from quasiring.ideals import (
    RING,
    classify_primes,
    elements_of,
    ideal_lattice,
    is_prime,
    prime_radical,
    subset_scan,
    vanishing_ideal,
)
from quasiring.sequence import (
    SequenceRing,
    chi_of_inf,
    discretize,
    in_discretization_image,
)
from quasiring.sets import INF, SeqSet
from quasiring.topology import SequenceSpace, discrete_space
from quasiring.verify import (
    Context,
    EXPECTED_FAIL_NOTES,
    FAIL,
    GALOIS_SUITE,
    HYPOTHESIS_UNMET,
    PASS,
    run_campaign,
    run_checker,
)
from quasiring.verify.fuzz import campaign_specs
from quasiring.verify.report import random_instance
from quasiring.zariski import compare_T1_TZ_T

from test_funcspace import pointwise


@contextmanager
def criterion(number, description, bound):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:2d}: {status} ({elapsed:.2f}s) "
              f"- {description}", file=sys.stderr)
        if status == "PASS":
            assert elapsed < bound, (
                f"criterion {number} exceeded its {bound}s bound: {elapsed:.2f}s")


def test_criterion_01_cardinality():
    with criterion(1, "|C(discrete 2, Z_3)| = 9", 1.0):
        assert len(FunctionRing(discrete_space(2), make_zmod(3))) == 9


def test_criterion_02_point_ideal_not_prime_z4():
    with criterion(2, "I(z1) not prime in C(discrete 2, Z_4)", 1.0):
        ring = FunctionRing(discrete_space(2), make_zmod(4))
        ideal = vanishing_ideal(ring, {0}, mode=RING)
        verdict, witness = is_prime(ideal)
        assert not verdict
        f, g = witness
        assert pointwise(ring, "mul", f, g) in ideal
        assert f not in ideal and g not in ideal
        # the scan is deterministic, so the witness reproduces
        assert is_prime(vanishing_ideal(ring, {0}, mode=RING))[1] == witness


def test_criterion_03_two_point_ideal_not_prime():
    with criterion(3, "I({z1,z2}) not prime in C(discrete 3, Z_2)", 1.0):
        ring = FunctionRing(discrete_space(3), make_zmod(2))
        verdict, witness = is_prime(vanishing_ideal(ring, {0, 1}, mode=RING))
        assert not verdict and witness is not None


def test_criterion_04_full_classification():
    with criterion(4, "n proper min-max point primes for n<=3, p in {2,3}",
                   60.0):
        for n in (1, 2, 3):
            for p in (2, 3):
                ring = FunctionRing(discrete_space(n), make_zmod(p))
                lat = classify_primes(ideal_lattice(ring, mode=RING))
                primes = lat.primes()
                assert len(primes) == n
                point_ideals = {vanishing_ideal(ring, c, mode=RING).elements
                                for c in ring.classes}
                assert {q.elements for q in primes} == point_ideals
                assert all(q.meta["is_min_max"] for q in primes)
                assert prime_radical(lat) == frozenset({ring.theta})
                if len(ring) <= 16:
                    oracle = {elements_of(ring, b)
                              for b in subset_scan(ring, mode=RING)}
                    assert {i.elements for i in lat.ideals} == oracle


def test_criterion_05_zero_divisor_regime():
    with criterion(5, "Z_4 prime inventory and nilpotent radical by oracle",
                   10.0):
        ring = FunctionRing(discrete_space(2), make_zmod(4))
        expected = {
            frozenset(f for f in ring if f[0] in (0, 2)),
            frozenset(f for f in ring if f[1] in (0, 2)),
        }
        # independent subset-scan oracle for the complete prime inventory
        oracle_primes = set()
        for bits in subset_scan(ring, mode=RING):
            elems = elements_of(ring, bits)
            if len(elems) == len(ring):
                continue
            ok = True
            for f in ring:
                for g in ring:
                    if (pointwise(ring, "mul", f, g) in elems
                            and f not in elems and g not in elems):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                oracle_primes.add(elems)
        assert oracle_primes == expected
        lat = classify_primes(ideal_lattice(ring, mode=RING))
        assert {q.elements for q in lat.primes()} == expected
        nilpotents = frozenset(f for f in ring
                               if pointwise(ring, "mul", f, f) == ring.theta)
        assert len(nilpotents) == 4
        assert prime_radical(lat) == nilpotents


def test_criterion_06_galois_topology_suite():
    with criterion(6, "Galois/topology suite over 200 random instances",
                   120.0):
        result = run_campaign(seed=0, instances=200, checkers=GALOIS_SUITE)
        assert result.failures == []
        assert set(result.summary) <= {PASS, HYPOTHESIS_UNMET,
                                       "BUDGET_EXCEEDED"}
        for spec in campaign_specs(0, 200):
            space, algebra = random_instance(spec)
            if isinstance(space, SequenceSpace) or zero_divisors(algebra):
                continue
            ring = FunctionRing(space, algebra)
            t1_tz, _, _ = compare_T1_TZ_T(ring)
            assert t1_tz.verdict == "equal"


def test_criterion_07_sequence_space_behaviors():
    with criterion(7, "sequence-space behaviors at prefix budget 6", 10.0):
        ring = SequenceRing(make_zmod(2))
        ideal = ring.vanishing_I([INF])
        for f in ring.generate(4):
            assert ideal.member(f) == (f.tail == 0)
        assert not ring.exists_fn_vanishing_only_at_inf()
        only_inf = SeqSet(frozenset(), False, True)
        assert all(ring.zero_set(f) != only_inf for f in ring.generate(5))
        inter = SeqSet.full()
        for f in ring.generate(6):
            zs = ring.zero_set(f)
            if zs.contains(INF):
                inter = inter.intersection(zs)
        assert inter.contains(INF)
        assert not any(inter.contains(n) for n in range(6))
        verdict, _ = ring.is_prime_bounded(ideal, 6)
        assert verdict
        chi_d = chi_of_inf(ring.algebra)
        assert not in_discretization_image(chi_d)
        assert all(discretize(f) != chi_d for f in ring.generate(4))


def test_criterion_08_characteristic_function_calculus():
    with criterion(8, "L59 items 1-19, T21, T22 on the two stated rings",
                   30.0):
        ids = [f"L59.{k}" for k in range(1, 20)]
        char2 = Context(discrete_space(3), make_zmod(2), mode=RING)
        for cid in ids:
            assert run_checker(cid, char2).verdict == PASS, cid
        z4 = Context(discrete_space(2), make_zmod(4), mode=RING)
        for cid in ids:
            assert run_checker(cid, z4).verdict in (PASS, HYPOTHESIS_UNMET), cid
        assert run_checker("T21", char2).verdict == PASS
        assert run_checker("T22", char2).verdict == PASS
        assert run_checker("T22", z4).verdict in (PASS, HYPOTHESIS_UNMET)


def test_criterion_09_semi_local_case():
    with criterion(9, "C(discrete 3, Z_5): maximal ideals are the three I(z)",
                   30.0):
        ring = FunctionRing(discrete_space(3), make_zmod(5))
        lat = classify_primes(ideal_lattice(ring, mode=RING))
        maximal = [i for i in lat.ideals
                   if i.is_proper() and i.meta.get("is_maximal")]
        point_ideals = {vanishing_ideal(ring, c, mode=RING).elements
                        for c in ring.classes}
        assert len(maximal) == 3
        assert {m.elements for m in maximal} == point_ideals


def test_criterion_10_documented_discrepancy():
    with criterion(10, "T26 documented FAIL; T27/T28 PASS on same instance",
                   5.0):
        ctx = Context(discrete_space(3), make_zmod(2), mode=RING)
        r = run_checker("T26", ctx)
        assert r.verdict == FAIL
        assert r.witness is not None
        assert r.note == EXPECTED_FAIL_NOTES["T26"]
        assert run_checker("T27", ctx).verdict == PASS
        assert run_checker("T28", ctx).verdict == PASS
