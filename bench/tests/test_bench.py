"""Tests of the benchmark's own parts: seeded inputs, oracles, spans.

    python3 -m pytest bench/tests -q
"""

import itertools
import os
import subprocess
import sys
import time

import pytest

import inputs
import oracles
from spans import Recorder

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def zmod_tables(n):
    mul = [[a * b % n for b in range(n)] for a in range(n)]
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    return mul, add


# -- inputs ----------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(inputs.BATCHES))
def test_same_seed_gives_identical_bytes(workload):
    for seed in (inputs.DEFAULT_SEEDS[workload],
                 inputs.HELD_OUT_SEEDS[workload]):
        for index in (0, 3):
            assert (inputs.batch_bytes(workload, seed, index)
                    == inputs.batch_bytes(workload, seed, index))
    assert inputs.batch_bytes(workload, 1, 0) != inputs.batch_bytes(
        workload, 2, 0)


def test_inputs_identical_across_processes():
    code = ("import sys, hashlib; sys.path.insert(0, sys.argv[1]); "
            "import inputs; print(hashlib.sha256(b''.join("
            "inputs.batch_bytes(w, 5, 1) for w in sorted(inputs.BATCHES)))"
            ".hexdigest())")
    runs = {subprocess.run([sys.executable, "-c", code, BENCH],
                           capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONHASHSEED": str(h)}
                           ).stdout for h in (1, 2)}
    assert len(runs) == 1


def test_batches_keep_their_shape_across_seeds():
    for workload, make in inputs.BATCHES.items():
        a, b = make(1, 0), make(2, 0)
        assert len(a) == len(b), workload
    fuzz = inputs.fuzz_batch(3, 0)
    for item in fuzz:
        space = item["space"]
        if space[0] == "opens":
            assert inputs.components(space[1], space[2]) == item["components"]
        size = item["algebra"][1] ** item["components"]
        cap = (inputs.FUZZ_RING_CAP if item["algebra"][0] == "zmod"
               else inputs.FUZZ_TABLE_RING_CAP)
        assert size <= cap


def test_analyze_block_shapes_stay_within_their_limits():
    for kind, sizes, n in inputs._ANALYZE_SLOTS:
        if kind == "blocks":
            assert 9 <= sum(sizes) <= 11
            assert 300 <= inputs.open_count(sizes) <= 700
            assert n ** len(sizes) <= 2 ** 18


def test_glued_blocks_have_one_component_per_block():
    import random
    rng = random.Random(0)
    for sizes in [(1,), (2, 1), (4, 3, 1), (2, 2, 2, 2, 1)]:
        n, sets = inputs.glued_blocks(rng, sizes)
        assert n == sum(sizes)
        assert inputs.components(n, sets) == len(sizes)


# -- oracles against a subset scan -----------------------------------------

SMALL = [(q, n) for q in (1, 2, 3, 4) for n in range(2, 17) if n ** q <= 16]


@pytest.mark.parametrize("q,n", SMALL)
def test_ring_mode_closed_forms(q, n):
    mul, add = zmod_tables(n)
    elems, m, a = oracles.product_ring(mul, q, add)
    found = oracles.subset_scan(elems, m, a)
    primes = oracles.primes_by_scan(elems, m, found)
    want = oracles.ring_mode_counts(q, n)
    assert len(found) == want["ideals"]
    assert len(primes) == want["primes"]
    assert len(frozenset.intersection(*primes)) == want["radical_size"]
    if oracles.is_prime_number(n):
        assert primes == oracles.point_ideals(q, n)


@pytest.mark.parametrize("q,n", SMALL)
def test_multiplicative_closed_forms(q, n):
    mul, _ = zmod_tables(n)
    elems, m, _ = oracles.product_ring(mul, q)
    found = oracles.subset_scan(elems, m)
    primes = oracles.primes_by_scan(elems, m, found)
    want = oracles.multiplicative_counts(q, n)
    assert len(found) == want["ideals"]
    assert len(primes) == want["primes"]
    assert len(frozenset.intersection(*primes)) == want["radical_size"]


def test_dedekind_values():
    assert oracles.multiplicative_counts(4, 2)["ideals"] == 167
    assert oracles.multiplicative_counts(4, 2)["primes"] == 15
    assert oracles.multiplicative_counts(5, 2)["ideals"] == 7580
    assert oracles.multiplicative_counts(5, 2)["primes"] == 31
    assert oracles.multiplicative_counts(3, 4)["ideals"] == 979


def test_subset_scan_matches_engine_on_random_tables():
    import random
    from quasiring import discrete_space, FunctionRing, make_table
    from quasiring.ideals import ideal_lattice
    rng = random.Random(4)
    for q, m, unit in [(2, 3, True), (2, 4, True), (2, 3, False),
                       (4, 2, False)]:
        mul = inputs.random_table(rng, m, unit)
        ring = FunctionRing(discrete_space(q),
                            make_table(mul, unit=1 if unit else None))
        lat = ideal_lattice(ring, "right", "multiplicative")
        elems, op, _ = oracles.product_ring(mul, q)
        assert {i.elements for i in lat.ideals} == oracles.subset_scan(
            elems, op)


def test_analyze_expectations():
    assert oracles.analyze_expectations([1, 1, 1], 2)["comparisons"] == {
        "T1_vs_TZ": "equal", "TZ_vs_T": "equal", "T1_vs_T": "equal"}
    coarse = oracles.analyze_expectations([2, 1], 3)
    assert coarse["quasi_components"] == 2
    assert coarse["elements"] == 9
    assert coarse["comparisons"]["T1_vs_T"] == "first-strictly-coarser"
    assert oracles.analyze_expectations([2, 1], 4)["comparisons"] is None


# -- spans -----------------------------------------------------------------

def test_self_time_subtracts_children():
    rec = Recorder()
    with rec.span("outer"):
        time.sleep(0.02)
        with rec.span("inner"):
            time.sleep(0.03)
        with rec.span("inner"):
            time.sleep(0.01)
    own, total = rec.totals()
    assert total["outer"] == pytest.approx(
        own["outer"] + total["inner"], abs=1e-9)
    assert own["inner"] == pytest.approx(total["inner"], abs=1e-9)
    assert 0.015 < own["outer"] < total["outer"]
    assert [s[3] for s in rec.spans] == [-1, 0, 0]


def test_install_wraps_and_uninstall_restores():
    from quasiring import discrete_space, make_zmod, topology
    from quasiring.verify import checkers
    original = topology.discrete_space
    rec = Recorder()
    rec.install()
    try:
        assert topology.discrete_space is not original
        assert checkers.quasi_component is topology.quasi_component
        ctx = checkers.Context(discrete_space(2), make_zmod(2))
        report = checkers.run_checker("L38", ctx)
    finally:
        rec.uninstall()
    assert topology.discrete_space is original
    names = {s[0] for s in rec.spans}
    assert {"verify.check.L38", "funcspace.ring_build",
            "algebra.build"} <= names
    assert rec.counts[f"verdict.{report.verdict}"] == 1
    assert all(s[2] is not None for s in rec.spans)
