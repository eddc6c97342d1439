"""Digest of the default fuzz campaign's reports.

Runs ``run_campaign(seed=0, instances=200)`` (the default ``quasiring
fuzz``), serializes every report with ``to_dict()`` minus ``elapsed``, one
sorted-key JSON line per report in the campaign's (checker, instance)
order, and prints the sha256 of those lines with the report count per
verdict.  With ``--check`` it exits 1 when the digest differs from the one
committed in ``fuzz_digest.txt`` next to this script, or when any report
is a FAIL.  After checking that a changed digest is intended, rewrite
``fuzz_digest.txt`` with ``--write``.

Standard library only.  Run it from the repository root as
``PYTHONPATH=src python tests/fuzz_digest.py [--check | --write]``.  It is
not a test module, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

from quasiring.verify import run_campaign

PINNED = Path(__file__).resolve().parent / "fuzz_digest.txt"
CAMPAIGN = "run_campaign(seed=0, instances=200)"


def campaign_digest() -> tuple[str, Counter]:
    """(sha256 hex, report count per verdict) of the default campaign."""
    result = run_campaign(seed=0, instances=200)
    h = hashlib.sha256()
    for report in result.reports:
        d = report.to_dict()
        d.pop("elapsed")
        h.update(json.dumps(d, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest(), Counter(r.verdict for r in result.reports)


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"], ["--write"]):
        sys.exit("usage: fuzz_digest.py [--check | --write]")
    digest, verdicts = campaign_digest()
    count = sum(verdicts.values())
    verdicts.setdefault("FAIL", 0)
    counts = ", ".join(f"{n} {v}" for v, n in sorted(verdicts.items()))
    print(f"{digest}  {count} reports: {counts}")
    if argv == ["--write"]:
        PINNED.write_text(f"{digest}  {CAMPAIGN}, {count} reports\n")
        print(f"wrote {PINNED.name}")
    if argv != ["--check"]:
        return 0
    pinned = PINNED.read_text().split()[0]
    if digest != pinned:
        print(f"digest differs from {PINNED.name}: {pinned}", file=sys.stderr)
        return 1
    return 1 if verdicts["FAIL"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
