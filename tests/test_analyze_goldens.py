"""`quasiring analyze --json` on the spec corpus, against goldens.

Each spec ``tests/specs/<name>.qr`` has a golden ``<name>.analyze.json``:
the command's JSON payload with every ``elapsed`` field removed, written
with sorted keys.  The test reruns the command in-process and compares the
text byte for byte.  After checking that a changed output is intended,
rewrite the goldens with ``PYTHONPATH=src python tests/test_analyze_goldens.py
--write`` from the repository root.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from quasiring.cli import main

SPECS = Path(__file__).resolve().parent / "specs"


def _without_elapsed(value):
    if isinstance(value, dict):
        return {k: _without_elapsed(v) for k, v in value.items()
                if k != "elapsed"}
    if isinstance(value, list):
        return [_without_elapsed(v) for v in value]
    return value


def analyze_json(spec: Path) -> str:
    """The golden text of `analyze --json` on one spec file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", str(spec), "--json"])
    payload = {"exit_code": code, **_without_elapsed(json.loads(out.getvalue()))}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def golden_of(spec: Path) -> Path:
    return spec.with_name(f"{spec.stem}.analyze.json")


SPEC_FILES = sorted(SPECS.glob("*.qr"))


def test_corpus_covers_every_golden():
    assert {golden_of(s) for s in SPEC_FILES} == set(
        SPECS.glob("*.analyze.json"))


@pytest.mark.parametrize("spec", SPEC_FILES, ids=lambda s: s.stem)
def test_analyze_matches_the_golden(spec):
    assert analyze_json(spec) == golden_of(spec).read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_analyze_goldens.py --write")
    for spec in SPEC_FILES:
        golden_of(spec).write_text(analyze_json(spec))
    print(f"wrote {len(SPEC_FILES)} goldens under {SPECS}")
