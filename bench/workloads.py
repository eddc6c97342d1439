"""The benchmark's operations: calls into the engine's public API, and the
oracle checks on what those calls return.

An operation is one user request: for ``fuzz`` one (instance, mode) context
through the whole ``GREEN_SUITE``; for ``ideals`` one ring's lattice,
classification, radical and families, or one ``generate_prescribed_ring``
call; for ``analyze`` one spec's analysis.  ``run`` does the engine work and
is timed; ``check`` compares the result with the oracles and is not.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass, field

import oracles
from quasiring import algebra as q_algebra
from quasiring import dsl, errors, funcspace, ideals, topology, zariski
from quasiring.verify import checkers, generator

# the exceptions run_checker turns into HYPOTHESIS_UNMET or BUDGET_EXCEEDED
# (its own _Unmet aside); forcing a context property catches the same ones
_CONTEXT_EXCEPTIONS = (errors.BudgetExceeded, errors.IncompleteLattice,
                       errors.MissingAddition, errors.MissingUnit)


@dataclass
class Checked:
    payload: object                       # digest input, no timings in it
    decided: int = 1                      # outcomes that are not budget cut
    outcomes: int = 1
    problems: list = field(default_factory=list)   # oracle disagreements


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _span(rec, name):
    return rec.span(name) if rec is not None else nullcontext()


def build_space(desc):
    kind = desc[0]
    if kind == "discrete":
        return topology.discrete_space(desc[1])
    if kind == "sierpinski":
        space = topology.sierpinski_space()
        for _ in range(desc[1] - 1):
            space = topology.disjoint_union(space, topology.sierpinski_space())
        return space
    return topology.validate_topology(desc[1], desc[2], auto_close=True)


def build_algebra(desc):
    if desc[0] == "zmod":
        return q_algebra.make_zmod(desc[1])
    _, m, mul, unit = desc
    return q_algebra.make_table(mul, zero=0, unit=1 if unit else None,
                                name=f"table{m}")


def _lattice_problems(lat, q, n, mode, radical=None) -> list:
    """Closed-form checks for C(Z, Z_n) with q quasi-components."""
    primes = [i for i in lat.ideals if i.meta.get("is_prime")]
    if mode == ideals.RING:
        want = oracles.ring_mode_counts(q, n)
    else:
        want = oracles.multiplicative_counts(q, n)
    got = {"ideals": len(lat.ideals), "primes": len(primes),
           "radical_size": len(radical) if radical is not None else None}
    if radical is None:
        del want["radical_size"]
    return [f"{k}: got {got[k]}, want {want[k]}"
            for k in want if got[k] != want[k]]


# -- fuzz ------------------------------------------------------------------

def fuzz_ops(batch):
    """(item, mode) pairs; instances with addition run in both modes."""
    for item in batch:
        yield item, ideals.MULTIPLICATIVE
        if item["algebra"][0] == "zmod":
            yield item, ideals.RING


def fuzz_run(op, rec):
    item, mode = op
    ctx = checkers.Context(build_space(item["space"]),
                           build_algebra(item["algebra"]), mode=mode,
                           seed=item["seed"])
    shared = {}
    # the shared context work gets its own spans, so it is not charged to
    # whichever checker touches it first
    for part in ("ring", "lattice", "families"):
        with _span(rec, f"verify.context_{part}"):
            try:
                getattr(ctx, part)
            except _CONTEXT_EXCEPTIONS as exc:
                shared[part] = type(exc).__name__
    label = f"fuzz/{mode}/{item['seed']}"
    reports = [checkers.run_checker(cid, ctx, label)
               for cid in checkers.GREEN_SUITE]
    return ctx, shared, reports


def fuzz_check(op, raw) -> Checked:
    item, mode = op
    ctx, shared, reports = raw
    problems = [f"{r.checker_id} FAIL" for r in reports if r.verdict == "FAIL"]
    if len(ctx.ring.classes) != item["components"]:
        problems.append(f"quasi-components: got {len(ctx.ring.classes)}, "
                        f"want {item['components']}")
    if item["algebra"][0] == "zmod" and "lattice" not in shared:
        problems += _lattice_problems(ctx.lattice, item["components"],
                                      item["algebra"][1], mode)
    rows = []
    for r in reports:
        row = r.to_dict()
        row.pop("elapsed")
        rows.append(row)
    budget = sum(r.verdict == "BUDGET_EXCEEDED" for r in reports)
    return Checked(rows, len(reports) - budget, len(reports), problems)


# -- ideals ----------------------------------------------------------------

def ideals_run(item, rec):
    if item["kind"] == "generate":
        return generator.generate_prescribed_ring(
            item["primes"], build_algebra(item["algebra"]))
    space = build_space(item["space"])
    algebra = build_algebra(item["algebra"])
    ring = funcspace.FunctionRing(space, algebra)
    lat = ideals.ideal_lattice(ring, ideals.RIGHT, item["mode"],
                               budget=funcspace.DEFAULT_ENUM_BUDGET)
    radical = families = None
    if lat.complete:
        ideals.classify_primes(lat)
        radical = ideals.prime_radical(lat)
        if algebra.unit is not None:
            families = ideals.family_sets(lat)
    return ring, lat, radical, families


def _sets(family):
    return sorted(sorted(s) for s in family)


def ideals_check(item, raw) -> Checked:
    if item["kind"] == "generate":
        ring, inv = raw
        k, p = item["primes"], item["algebra"][1]
        primes = {i.elements for i in inv["primes"]}
        problems = []
        if inv["proper_primes"] != k:
            problems.append(f"proper primes: got {inv['proper_primes']}, "
                            f"want {k}")
        if primes != oracles.point_ideals(k, p):
            problems.append("primes are not the point ideals")
        if inv["prime_radical"] != frozenset({ring.theta}):
            problems.append("prime radical is not trivial")
        return Checked({"primes": _sets(primes),
                        "radical": sorted(inv["prime_radical"])},
                       problems=problems)
    ring, lat, radical, families = raw
    if not lat.complete:
        return Checked({"complete": False, "ideals": len(lat.ideals)},
                       decided=0)
    q = item["components"]
    problems = []
    if len(ring.classes) != q:
        problems.append(f"quasi-components: got {len(ring.classes)}, "
                        f"want {q}")
    found = {i.elements for i in lat.ideals}
    primes = {i.elements for i in lat.ideals if i.meta.get("is_prime")}
    if item["algebra"][0] == "zmod":
        problems += _lattice_problems(lat, q, item["algebra"][1],
                                      item["mode"], radical)
    else:
        elems, mul, _ = oracles.product_ring(item["algebra"][2], q)
        want = oracles.subset_scan(elems, mul)
        if found != want:
            problems.append(f"ideals: got {len(found)}, subset scan "
                            f"{len(want)}")
        else:
            want_primes = oracles.primes_by_scan(elems, mul, want)
            want_radical = (frozenset.intersection(*want_primes)
                            if want_primes else None)
            if primes != want_primes:
                problems.append("primes disagree with the subset scan")
            elif radical != want_radical:
                problems.append("prime radical disagrees with the scan")
    payload = {
        "ideals": _sets(found),
        "primes": _sets(primes),
        "maximal": _sets(i.elements for i in lat.ideals
                         if i.meta.get("is_maximal")),
        "radical": sorted(radical) if radical is not None else None,
        "P": (_sets(i.elements for i in families.P)
              if families is not None else None),
    }
    return Checked(payload, problems=problems)


# -- analyze ---------------------------------------------------------------

def analyze_run(item, rec):
    spec = dsl.parse_spec(item["text"])
    out = []
    for name, d in spec.ring_defs.items():
        space = spec.spaces[d.space]
        algebra = spec.algebras[d.algebra]
        try:
            ring = funcspace.FunctionRing(space, algebra)
        except errors.BudgetExceeded as exc:
            out.append({"budget": str(exc)})
            continue
        entry = {
            "elements": len(ring.elements),
            "quasi_components": topology.quasi_component_partition(space),
            "clopen_sets": topology.clopen_family(space),
            "comparisons": None,
        }
        if not q_algebra.zero_divisors(algebra):
            entry["comparisons"] = zariski.compare_T1_TZ_T(ring)
        out.append(entry)
    return out


def _comparison(c):
    return {"verdict": c.verdict,
            "only_in_first": sorted(c.only_in_first or ()),
            "only_in_second": sorted(c.only_in_second or ())}


def analyze_check(item, raw) -> Checked:
    want = oracles.analyze_expectations(item["blocks"], item["zmod"])
    problems, payload = [], []
    undecided = sum("budget" in entry for entry in raw)
    for entry in raw:
        if "budget" in entry:
            payload.append(entry)
            continue
        comps = entry["comparisons"]
        got = {"quasi_components": len(entry["quasi_components"]),
               "clopen_sets": len(entry["clopen_sets"]),
               "elements": entry["elements"],
               "comparisons": None if comps is None else {
                   "T1_vs_TZ": comps[0].verdict, "TZ_vs_T": comps[1].verdict,
                   "T1_vs_T": comps[2].verdict}}
        problems += [f"{k}: got {got[k]}, want {want[k]}"
                     for k in want if got[k] != want[k]]
        payload.append({
            "quasi_components": _sets(entry["quasi_components"]),
            "clopen_sets": _sets(entry["clopen_sets"]),
            "elements": entry["elements"],
            "comparisons": (None if comps is None
                            else [_comparison(c) for c in comps]),
        })
    return Checked(payload, len(raw) - undecided, len(raw), problems)


WORKLOADS = {
    "fuzz": (fuzz_ops, fuzz_run, fuzz_check),
    "ideals": (iter, ideals_run, ideals_check),
    "analyze": (iter, analyze_run, analyze_check),
}
