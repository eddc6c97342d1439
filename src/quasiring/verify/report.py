"""Report and instance-description types for the checker registry."""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..algebra import AlgebraTable, make_table, make_zmod
from ..topology import (
    ExplicitSpace,
    SequenceSpace,
    discrete_space,
    disjoint_union,
    sierpinski_space,
    validate_topology,
)

PASS = "PASS"
FAIL = "FAIL"
HYPOTHESIS_UNMET = "HYPOTHESIS_UNMET"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"
SKIPPED_INFINITE = "SKIPPED-INFINITE"


def serialize(obj):
    """Witness serialization: plain JSON-friendly structures."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (frozenset, set)):
        return sorted(serialize(x) for x in obj)
    if isinstance(obj, (tuple, list)):
        return [serialize(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): serialize(v) for k, v in obj.items()}
    if hasattr(obj, "sorted_elements"):        # Ideal
        return {"elements": serialize(obj.sorted_elements()),
                "side": obj.side, "mode": obj.mode}
    return repr(obj)


@dataclass
class TheoremReport:
    checker_id: str
    instance: str
    verdict: str
    witness: object = None
    note: str = ""
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        return {
            "checker": self.checker_id,
            "instance": self.instance,
            "verdict": self.verdict,
            "witness": serialize(self.witness),
            "note": self.note,
            "elapsed": round(self.elapsed, 6),
        }


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic description of a (space, algebra) pair.

    The same seed and parameters always rebuild the identical instance.
    """

    seed: int = 0
    space_kind: str = "explicit-random"   # explicit-random | discrete-n | sierpinski-sum | sequence
    algebra_kind: str = "zmod-n"          # zmod-n | table
    max_points: int = 6
    max_carrier: int = 6

    def describe(self) -> str:
        return (f"{self.space_kind}/{self.algebra_kind}"
                f"(seed={self.seed},pts<={self.max_points},car<={self.max_carrier})")


def random_instance(spec: InstanceSpec):
    """(Space, AlgebraTable), deterministic from the spec."""
    rng = random.Random(spec.seed)
    if spec.space_kind == "sequence":
        space = SequenceSpace()
    elif spec.space_kind == "discrete-n":
        space = discrete_space(rng.randint(1, spec.max_points))
    elif spec.space_kind == "sierpinski-sum":
        pairs = rng.randint(1, max(1, spec.max_points // 2))
        space = sierpinski_space()
        for _ in range(pairs - 1):
            space = disjoint_union(space, sierpinski_space())
    elif spec.space_kind == "explicit-random":
        n = rng.randint(1, spec.max_points)
        subbasis = [frozenset(p for p in range(n) if rng.random() < 0.5)
                    for _ in range(rng.randint(0, n + 2))]
        space = validate_topology(n, subbasis, auto_close=True)
    else:
        raise ValueError(f"unknown space kind {spec.space_kind!r}")

    if spec.algebra_kind == "zmod-n":
        algebra = make_zmod(rng.randint(2, spec.max_carrier))
    elif spec.algebra_kind == "table":
        algebra = _random_table(rng, rng.randint(2, spec.max_carrier))
    else:
        raise ValueError(f"unknown algebra kind {spec.algebra_kind!r}")
    return space, algebra


def _random_table(rng: random.Random, m: int) -> AlgebraTable:
    """Random magma with absorbing 0; a unit row/column half the time."""
    unit = 1 if m >= 2 and rng.random() < 0.5 else None
    mul = [[0] * m for _ in range(m)]
    for a in range(1, m):
        for b in range(1, m):
            mul[a][b] = rng.randrange(m)
    if unit is not None:
        for a in range(m):
            mul[unit][a] = a
            mul[a][unit] = a
    return make_table(mul, zero=0, unit=unit, name=f"table{m}-r")
