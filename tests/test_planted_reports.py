"""Every checker's report on five planted contexts, against a golden.

The default fuzz campaign has no FAIL report, so its digest cannot see a
changed FAIL witness.  These contexts fail many checkers on purpose; the
golden ``planted_reports.jsonl`` holds every ``checker_ids()`` report on
each, one sorted-key JSON line per report (``to_dict()`` minus
``elapsed``).  After checking that a changed witness is intended, rewrite
it with ``PYTHONPATH=src python tests/test_planted_reports.py --write``
from the repository root.
"""

import dataclasses
import json
import sys
from functools import cached_property
from pathlib import Path

from quasiring.algebra import make_zmod
from quasiring.ideals import (
    MULTIPLICATIVE,
    RIGHT,
    RING,
    Ideal,
    IdealLattice,
    classify_primes,
    family_sets,
    ideal_lattice,
)
from quasiring.topology import discrete_space
from quasiring.verify import FAIL, checker_ids, run_checker
from quasiring.verify.checkers import Context

from test_context import PlantedContext

GOLDEN = Path(__file__).resolve().parent / "planted_reports.jsonl"

#: in C(discrete 3, Z_2), the vanishing ideal of point 0 with χ_{1,2} added
PRIME = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)]


def _with(ring, mode, extra: int):
    """The classified lattice of the ring on the right side, plus the
    bitset `extra`, which must be no ideal."""
    bits = {i.bits for i in ideal_lattice(ring, RIGHT, mode).ideals}
    assert extra not in bits
    order = sorted(bits | {extra}, key=lambda b: (b.bit_count(), b))
    return classify_primes(IdealLattice(
        ring, tuple(Ideal(ring, b, RIGHT, mode) for b in order), RIGHT, mode))


def _bits(ring, tuples) -> int:
    return sum(1 << ring.index(f) for f in tuples)


class PlantedPrimeContext(Context):
    """The ring-mode lattice of C(discrete 3, Z_2) plus the PRIME set,
    marked prime by hand; its U_I lacks the clopen {0}, whose χ it holds."""

    def __init__(self):
        super().__init__(discrete_space(3), make_zmod(2), RIGHT, RING)

    @cached_property
    def lattice(self):
        lat = _with(self.ring, RING, _bits(self.ring, PRIME))
        lat.find(_bits(self.ring, PRIME)).meta["is_prime"] = True
        return lat

    @cached_property
    def families(self):
        fam = family_sets(self.lattice)
        planted = _bits(self.ring, PRIME)
        assert fam.U[planted] >> 0b001 & 1
        return dataclasses.replace(
            fam, U={**fam.U, planted: fam.U[planted] & ~(1 << 0b001)})


class PlantedUnitContext(Context):
    """C(discrete 2, Z_2) in ring mode, whose U_I of I(z) also holds the
    empty clopen for each point z in `planted_points`, so its X_I holds the
    identity."""

    planted_points = (0,)

    def __init__(self):
        super().__init__(discrete_space(2), make_zmod(2), RIGHT, RING)

    @cached_property
    def families(self):
        fam = family_sets(self.lattice)
        U = dict(fam.U)
        for z in self.planted_points:
            U[self.vanishing(frozenset({z}))] |= 1
        return dataclasses.replace(fam, U=U)


class PlantedUnitsContext(PlantedUnitContext):
    planted_points = (0, 1)


class PlantedMultiplicativeContext(Context):
    """The multiplicative lattice of C(discrete 2, Z_3) plus the set
    {f : f(0) ≠ 1}, which absorbs nothing but which the classifier calls
    prime (its complement is closed under products)."""

    def __init__(self):
        super().__init__(discrete_space(2), make_zmod(3), RIGHT,
                         MULTIPLICATIVE)

    @cached_property
    def lattice(self):
        ring = self.ring
        planted = _bits(ring, [f for f in ring.elements if f[0] != 1])
        lat = _with(ring, MULTIPLICATIVE, planted)
        assert lat.find(planted).meta["is_prime"]
        return lat


CONTEXTS = {"planted": PlantedContext, "planted_prime": PlantedPrimeContext,
            "planted_unit": PlantedUnitContext,
            "planted_units": PlantedUnitsContext,
            "planted_multiplicative": PlantedMultiplicativeContext}

#: the checkers each context is built to fail, beyond whatever else it fails
MUST_FAIL = {
    "planted": {"L34", "L48", "L59", "L59.2", "L59.9", "L59.11", "L59.14",
                "L59.15", "L59.16", "L75", "T35"},
    "planted_prime": {"L49", "L52", "L53", "L54", "L57", "L58", "L59.17",
                      "L59.19", "L61"},
    "planted_unit": {"L61"},
    "planted_units": {"L61"},
    "planted_multiplicative": {"L34", "L43"},
}


def reports(name: str) -> list:
    """Every checker's report on a fresh context of CONTEXTS[name], as
    sorted-key JSON lines, ``elapsed`` removed, the name as the instance."""
    ctx = CONTEXTS[name]()
    out = []
    for cid in checker_ids():
        d = run_checker(cid, ctx, name).to_dict()
        d.pop("elapsed")
        out.append(json.dumps(d, sort_keys=True))
    return out


def test_planted_reports_match_the_golden():
    golden = GOLDEN.read_text().splitlines()
    got = []
    for name in CONTEXTS:
        lines = reports(name)
        failing = {json.loads(x)["checker"] for x in lines
                   if json.loads(x)["verdict"] == FAIL}
        assert MUST_FAIL[name] <= failing, name
        got += lines
    for want, have in zip(golden, got):
        assert have == want
    assert len(got) == len(golden) == len(CONTEXTS) * len(checker_ids())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_planted_reports.py --write")
    GOLDEN.write_text("".join(line + "\n" for name in CONTEXTS
                              for line in reports(name)))
