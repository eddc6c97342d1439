"""Digest of the default fuzz campaign's reports.

Runs ``run_campaign(seed=0, instances=200)`` (the default ``quasiring
fuzz``), serializes every report with ``to_dict()`` minus ``elapsed``, one
sorted-key JSON line per report in the campaign's (checker, instance)
order, and prints the sha256 of those lines.  With ``--check`` it exits 1
when the digest differs from the one committed in ``fuzz_digest.txt``
next to this script, or when any report is a FAIL.

Standard library only.  Run it from the repository root as
``PYTHONPATH=src python tests/fuzz_digest.py [--check]``.  It is not a test
module, so the tier-1 suite does not collect it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from quasiring.verify import run_campaign

PINNED = Path(__file__).resolve().parent / "fuzz_digest.txt"


def campaign_digest() -> tuple[str, int, int]:
    """(sha256 hex, report count, FAIL count) of the default campaign."""
    result = run_campaign(seed=0, instances=200)
    h = hashlib.sha256()
    for report in result.reports:
        d = report.to_dict()
        d.pop("elapsed")
        h.update(json.dumps(d, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest(), len(result.reports), len(result.failures)


def main(argv: list[str]) -> int:
    digest, count, failures = campaign_digest()
    print(f"{digest}  {count} reports, {failures} FAIL")
    if "--check" not in argv:
        return 0
    pinned = PINNED.read_text().split()[0]
    if digest != pinned:
        print(f"digest differs from {PINNED.name}: {pinned}", file=sys.stderr)
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
