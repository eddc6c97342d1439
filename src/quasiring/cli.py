"""Command-line front end.

    quasiring <command> [spec-file] [--json] [--seed N] [--instances K]
                        [--budget B]

Commands:

* ``analyze``  — quasi-components, the clopen count (2^q for q components),
  and topology comparisons for every ring bound in the spec file.
* ``ideals``   — ideal lattice, prime classification, and prime radical.
* ``check``    — run checkers by id (``quasiring check T34 spec.qr``); ids may
  also come from ``check`` directives in the spec file, and ``all`` runs the
  whole registry.
* ``generate`` — build a ring with a prescribed prime inventory
  (``--primes N --algebra zmod:2``); needs no spec file.
* ``fuzz``     — seeded randomized campaign over the checker registry.

The spec file argument may be ``-`` for stdin.  Exit codes: 0 when every
verdict is PASS or HYPOTHESIS_UNMET, 1 on any FAIL, 2 on usage or parse
errors, 3 when a budget was exceeded.  ``--budget``, else the environment
variable QUASIRING_BUDGET, overrides the default enumeration budget.

``analyze``, ``ideals`` and ``check`` read each ring of the spec file
through one ``Context`` built under that budget; every finite ring is built
before any output, so a ring past the budget stops the command with exit 3.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .algebra import make_zmod, zero_divisors
from .dsl import parse_spec
from .errors import (
    BudgetExceeded,
    QuasiringError,
    UnknownChecker,
    ZeroDivisorHypothesis,
)
from .funcspace import DEFAULT_ENUM_BUDGET
from .ideals import classify_primes, ideal_lattice, prime_radical
from .verify import (
    BUDGET_EXCEEDED,
    FAIL,
    Context,
    checker_ids,
    generate_prescribed_ring,
    run_campaign,
    run_checker,
    serialize,
)
from .zariski import compare_T1_TZ_T

SCHEMA = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("QUASIRING_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise QuasiringError(f"QUASIRING_BUDGET={env!r} is not an integer")
    return DEFAULT_ENUM_BUDGET


def _read_spec(args):
    if args.spec_file is None:
        raise QuasiringError(f"the {args.command} command needs a spec file")
    if args.spec_file == "-":
        text = sys.stdin.read()
    else:
        with open(args.spec_file, encoding="utf-8") as fh:
            text = fh.read()
    return parse_spec(text)


def _contexts(spec, budget: int, seed: int) -> list:
    """(name, Context) per ring of the spec.  Each finite ring is built
    here, so one past the budget stops the command before it reports
    anything."""
    out = []
    for name, d in spec.ring_defs.items():
        ctx = Context(spec.spaces[d.space], spec.algebras[d.algebra],
                      budget=budget, seed=seed)
        if not ctx.is_sequence:
            ctx.ring
        out.append((name, ctx))
    return out


# -- commands ---------------------------------------------------------------

def cmd_analyze(args) -> tuple[dict, int]:
    rings = []
    for name, ctx in _contexts(_read_spec(args), _budget(args), args.seed):
        if ctx.is_sequence:
            rings.append({
                "ring": name,
                "backend": "sequence",
                "note": "symbolic backend: points are N plus the limit; "
                        "quasi-components are singletons",
            })
            continue
        classes = ctx.ring.classes
        entry = {
            "ring": name,
            "points": ctx.space.point_count,
            "elements": len(ctx.ring.elements),
            "quasi_components": serialize(classes),
            "clopen_count": 2 ** len(classes),
        }
        if zero_divisors(ctx.algebra):
            entry["topology_comparisons"] = None
            entry["note"] = ("zero divisors in the value algebra; "
                             "zero-set topology not formed")
        else:
            t1_tz, tz_t, t1_t = compare_T1_TZ_T(ctx.ring)
            entry["topology_comparisons"] = {
                "T1_vs_TZ": t1_tz.verdict, "TZ_vs_T": tz_t.verdict,
                "T1_vs_T": t1_t.verdict}
        rings.append(entry)
    return {"schema": SCHEMA, "command": "analyze", "rings": rings}, EXIT_OK


def cmd_ideals(args) -> tuple[dict, int]:
    rings = []
    code = EXIT_OK
    for name, ctx in _contexts(_read_spec(args), _budget(args), args.seed):
        if ctx.is_sequence:
            rings.append({
                "ring": name,
                "backend": "sequence",
                "note": "symbolic backend: ideal lattice is infinite; "
                        "use the check command for its bounded properties",
            })
            continue
        lat = ideal_lattice(ctx.ring, mode=ctx.mode, budget=ctx.budget)
        if not lat.complete:
            rings.append({"ring": name, "mode": ctx.mode, "complete": False,
                          "ideal_count": len(lat.ideals)})
            code = EXIT_BUDGET
            continue
        classify_primes(lat)
        radical = prime_radical(lat)
        rings.append({
            "ring": name,
            "mode": ctx.mode,
            "complete": True,
            "ideal_count": len(lat.ideals),
            "ideals": [
                {"elements": serialize(i.sorted_elements()),
                 "proper": i.is_proper(),
                 "is_prime": i.meta.get("is_prime"),
                 "is_maximal": i.meta.get("is_maximal"),
                 "is_minimal_prime": i.meta.get("is_minimal_prime"),
                 "is_min_max": i.meta.get("is_min_max")}
                for i in lat.ideals],
            "primes": [serialize(p.sorted_elements()) for p in lat.primes()],
            "prime_radical": serialize(radical),
        })
    return {"schema": SCHEMA, "command": "ideals", "rings": rings}, code


def cmd_check(args) -> tuple[dict, int]:
    spec = _read_spec(args)
    budget = _budget(args)
    ids = list(args.ids) + list(spec.checks)
    if not ids or "all" in ids:
        ids = checker_ids()
    else:
        known = set(checker_ids())   # ``_split_args`` checked args.ids
        bad = [i for i in spec.checks if i not in known]
        if bad:
            raise UnknownChecker(f"unknown checker id(s): {', '.join(bad)}")
    reports = []
    for name, ctx in _contexts(spec, budget, args.seed):
        for cid in ids:
            reports.append(run_checker(cid, ctx, instance=name))
    summary = {}
    for r in reports:
        summary[r.verdict] = summary.get(r.verdict, 0) + 1
    code = EXIT_OK
    if summary.get(BUDGET_EXCEEDED):
        code = EXIT_BUDGET
    if summary.get(FAIL):
        code = EXIT_FAIL
    return {"schema": SCHEMA, "command": "check",
            "reports": [r.to_dict() for r in reports],
            "summary": dict(sorted(summary.items()))}, code


def cmd_generate(args) -> tuple[dict, int]:
    if args.primes is None:
        raise QuasiringError("generate needs --primes N")
    if args.primes < 1:
        raise QuasiringError(f"--primes must be at least 1, got {args.primes}")
    m = re.fullmatch(r"zmod:(\d+)", args.algebra)
    if m is None or int(m.group(1)) < 2:
        raise QuasiringError(
            f"unsupported --algebra {args.algebra!r}; use zmod:N with N >= 2")
    algebra = make_zmod(int(m.group(1)))
    try:
        ring, inv = generate_prescribed_ring(args.primes, algebra,
                                             budget=_budget(args))
    except ZeroDivisorHypothesis as exc:
        return {"schema": SCHEMA, "command": "generate",
                "primes": args.primes, "algebra": args.algebra,
                "refused": str(exc),
                "witness": serialize(exc.witness)}, EXIT_FAIL
    return {"schema": SCHEMA, "command": "generate",
            "primes": args.primes, "algebra": args.algebra,
            "ring_elements": len(ring.elements),
            "proper_primes": inv["proper_primes"],
            "prime_ideals": [serialize(p.sorted_elements())
                             for p in inv["primes"]],
            "all_point_ideals": inv["all_point_ideals"],
            "all_min_max": inv["all_min_max"],
            "prime_radical": serialize(inv["prime_radical"]),
            "verified": inv["verified"]}, EXIT_OK


def cmd_fuzz(args) -> tuple[dict, int]:
    result = run_campaign(seed=args.seed, instances=args.instances)
    code = EXIT_FAIL if result.failures else EXIT_OK
    return {"schema": SCHEMA, "command": "fuzz",
            **result.to_dict()}, code


# -- rendering --------------------------------------------------------------

def _render_text(payload: dict) -> str:
    lines = []
    cmd = payload.get("command")
    if cmd in ("analyze", "ideals"):
        for entry in payload["rings"]:
            lines.append(f"ring {entry['ring']}")
            for key, value in entry.items():
                if key == "ring":
                    continue
                lines.append(f"  {key}: {value}")
    elif cmd == "check":
        reports = payload["reports"]
        if not reports:
            lines.append("0 checks")
        width = max((len(r["checker"]) for r in reports), default=8)
        for r in reports:
            line = f"{r['checker']:<{width}}  {r['verdict']:<18} {r['instance']}"
            if r["witness"] is not None:
                line += f"  witness={json.dumps(r['witness'])}"
            if r["note"]:
                line += f"  # {r['note']}"
            lines.append(line)
        lines.append("summary: " + json.dumps(payload["summary"]))
    elif cmd == "generate":
        for key, value in payload.items():
            if key in ("schema", "command"):
                continue
            lines.append(f"{key}: {value}")
    elif cmd == "fuzz":
        lines.append(f"seed {payload['seed']}, "
                     f"{payload['instances']} instances")
        lines.append("summary: " + json.dumps(payload["summary"]))
        for f in payload["failures"]:
            lines.append(f"FAIL {f['checker']} on {f['instance']}: "
                         f"witness={json.dumps(f['witness'])}")
    return "\n".join(lines) + "\n"


# -- entry point ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quasiring",
        description="Rings of continuous functions over finite spaces: "
                    "analysis, ideal classification, and statement checking.")
    p.add_argument("command",
                   choices=["analyze", "ideals", "check", "generate", "fuzz"])
    p.add_argument("args", nargs="*",
                   help="checker ids (for check) and/or a spec file; "
                        "'-' reads the spec from stdin")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--primes", type=int, default=None)
    p.add_argument("--algebra", default="zmod:2")
    return p


def _split_args(arguments) -> tuple[list, str | None]:
    """(checker ids, spec file) from the positional arguments.

    An argument that names an existing file, or "-" for stdin, is the spec
    file; any other is a checker id when it is registered or "all".  When no
    argument names a file, the last one that is not an id is taken as the
    spec file, so reading it reports the missing path.
    """
    known = set(checker_ids()) | {"all"}
    specs = [a for a in arguments if a == "-" or os.path.isfile(a)]
    if not specs:
        specs = [a for a in arguments if a not in known][-1:]
    ids = [a for a in arguments if a not in specs]
    unknown = [a for a in ids if a not in known]
    if unknown:
        raise UnknownChecker(f"unknown checker id(s): {', '.join(unknown)}")
    if len(specs) > 1:
        raise QuasiringError(f"unexpected arguments {specs[1:]}")
    return ids, (specs[0] if specs else None)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_intermixed_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handler = {
        "analyze": cmd_analyze,
        "ideals": cmd_ideals,
        "check": cmd_check,
        "generate": cmd_generate,
        "fuzz": cmd_fuzz,
    }[args.command]
    try:
        args.ids, args.spec_file = _split_args(args.args)
        payload, code = handler(args)
    except BudgetExceeded as exc:
        print(f"quasiring: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (QuasiringError, FileNotFoundError) as exc:
        print(f"quasiring: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.as_json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        sys.stdout.write(_render_text(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
