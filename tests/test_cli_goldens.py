"""The CLI's `--json` output on the spec corpus, against goldens.

Each spec ``tests/specs/<name>.qr`` has one golden per command,
``<name>.<command>.json``, for ``analyze``, ``ideals`` and ``check all``;
``generate.json`` holds ``generate --primes 3``.  A golden is the command's
JSON payload with every ``elapsed`` field removed and the exit code added,
written with sorted keys.  The test reruns the command in-process and
compares the text byte for byte.  After checking that a changed output is
intended, rewrite the goldens with ``PYTHONPATH=src python
tests/test_cli_goldens.py --write`` from the repository root.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from quasiring import ideals
from quasiring.cli import main

SPECS = Path(__file__).resolve().parent / "specs"

#: command name -> its arguments before the spec file
COMMANDS = {"analyze": ["analyze"], "ideals": ["ideals"],
            "check": ["check", "all"]}


def _without_elapsed(value):
    if isinstance(value, dict):
        return {k: _without_elapsed(v) for k, v in value.items()
                if k != "elapsed"}
    if isinstance(value, list):
        return [_without_elapsed(v) for v in value]
    return value


def cli_json(argv: list) -> str:
    """The golden text of the command `argv` run with `--json`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--json"])
    payload = {"exit_code": code, **_without_elapsed(json.loads(out.getvalue()))}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


#: case id -> (the command's arguments, its golden file)
CASES = {
    f"{command}-{spec.stem}": ([*argv, str(spec)],
                               spec.with_name(f"{spec.stem}.{command}.json"))
    for spec in sorted(SPECS.glob("*.qr"))
    for command, argv in COMMANDS.items()
}
CASES["generate"] = (["generate", "--primes", "3"], SPECS / "generate.json")


def test_corpus_covers_every_golden():
    assert {golden for _, golden in CASES.values()} == set(
        SPECS.glob("*.json"))


@pytest.mark.parametrize("case", CASES)
def test_cli_matches_the_golden(case):
    argv, golden = CASES[case]
    assert cli_json(argv) == golden.read_text()


def test_the_corpus_twice_in_one_process(monkeypatch):
    """Every case, then every case again: the second round builds no
    lattice pass, reading what the first kept on the rings' cores, and both
    rounds match the goldens byte for byte."""
    passes, build = [], ideals._enumerated_lattice

    def counted(*args):
        passes.append(args)
        return build(*args)
    monkeypatch.setattr(ideals, "_enumerated_lattice", counted)
    for built in (True, False):
        passes.clear()
        for argv, golden in CASES.values():
            assert cli_json(argv) == golden.read_text(), argv
        assert bool(passes) == built


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_goldens.py --write")
    for argv, golden in CASES.values():
        golden.write_text(cli_json(argv))
    print(f"wrote {len(CASES)} goldens under {SPECS}")
