"""Seeded randomized campaigns over the checker registry."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ideals import MULTIPLICATIVE, RING
from .checkers import Context, GREEN_SUITE, run_checker
from .report import FAIL, InstanceSpec, TheoremReport, random_instance

DEFAULT_INSTANCES = 200
DEFAULT_MAX_POINTS = 4
DEFAULT_MAX_CARRIER = 4

_SPACE_KINDS = ("explicit-random", "discrete-n", "sierpinski-sum")
_ALGEBRA_KINDS = ("zmod-n", "table")


@dataclass
class CampaignResult:
    seed: int
    instances: int
    reports: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def failures(self) -> list[TheoremReport]:
        return [r for r in self.reports if r.verdict == FAIL]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "instances": self.instances,
            "summary": dict(sorted(self.summary.items())),
            "failures": [r.to_dict() for r in self.failures],
        }


def campaign_specs(seed: int, instances: int):
    """Deterministic instance descriptions: kinds cycle, seeds derive."""
    for k in range(instances):
        yield InstanceSpec(
            seed=seed * 1_000_003 + k,
            space_kind=_SPACE_KINDS[k % len(_SPACE_KINDS)],
            algebra_kind=_ALGEBRA_KINDS[k % len(_ALGEBRA_KINDS)],
            max_points=DEFAULT_MAX_POINTS,
            max_carrier=DEFAULT_MAX_CARRIER,
        )


def run_campaign(seed: int = 0, instances: int = DEFAULT_INSTANCES,
                 checkers=None) -> CampaignResult:
    """Run the suite over seeded random instances, in both ideal modes.

    Aggregation is sorted by (checker, instance) so the result is independent
    of execution order.
    """
    ids = list(checkers) if checkers is not None else list(GREEN_SUITE)
    result = CampaignResult(seed, instances)
    for spec in campaign_specs(seed, instances):
        space, algebra = random_instance(spec)
        modes = [MULTIPLICATIVE]
        if algebra.add is not None:
            modes.append(RING)
        for mode in modes:
            ctx = Context(space, algebra, mode=mode, seed=spec.seed)
            label = f"{spec.describe()}/{mode}"
            for cid in ids:
                result.reports.append(run_checker(cid, ctx, label))
    result.reports.sort(key=lambda r: (r.checker_id, r.instance))
    summary = {}
    for r in result.reports:
        summary[r.verdict] = summary.get(r.verdict, 0) + 1
    result.summary = summary
    return result
