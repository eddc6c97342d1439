"""quasiring benchmark: three seeded single-process workloads.

    python3 bench/run.py --workload fuzz|ideals|analyze --seed N \
                         --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

A run builds seeded input batches (``inputs.py``) and runs them through the
engine (``workloads.py``), one operation at a time in a closed loop with one
client, until ``--seconds`` have passed (at least three batches).  Every
output is checked against the independent oracles in ``oracles.py``.  Times
are scaled to a fixed reference speed of the host (``Run.batch``).

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` each batch runs once untraced and
once under the span recorder (``spans.py``), and the object carries the
per-layer metrics instead.  ``--workload all`` runs the three workloads, each
in its own process, and prints one row of end-to-end metrics per workload.
The engine is imported from ``src/`` next to this directory; the benchmark
refuses to run without it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOAD_NAMES = ("fuzz", "ideals", "analyze")
MIN_BATCHES = 3
SETUP_REPEATS = 7
# time of one `reference_loop` on the 2-vCPU Xeon the benchmark was written
# on, in its fast phase; every reported time is scaled to this speed
REFERENCE_S = 1.1e-3

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("decided_ratio", "fraction"),
              ("peak_rss_mb", "MB")]
CHECKERS_TRACED = ["L34", "L38", "L39", "L40", "L59", "L69", "L70", "L71",
                   "T13", "T35"]
# per-layer metric -> span name; self time unless listed as inclusive
SELF_TIME = {
    "topology.build_s": "topology.build",
    "topology.quasi_components_s": "topology.quasi_components",
    "topology.clopens_s": "topology.clopens",
    "topology.clopen_base_s": "topology.clopen_base",
    "topology.compare_s": "topology.compare",
    "algebra.build_s": "algebra.build",
    "funcspace.ring_build_s": "funcspace.ring_build",
    "ideals.lattice_s": "ideals.lattice",
    "ideals.classify_s": "ideals.classify",
    "ideals.radical_s": "ideals.radical",
    "ideals.families_s": "ideals.families",
    "zariski.closed_family_s": "zariski.closed_family",
    **{f"verify.check.{c}_s": f"verify.check.{c}" for c in CHECKERS_TRACED},
}
# parsing includes the auto-close of `opens` spaces it triggers; the context
# spans and generate_prescribed_ring cover the shared work they cause
INCLUSIVE = {
    "dsl.parse_s": "dsl.parse",
    "verify.context_ring_s": "verify.context_ring",
    "verify.context_lattice_s": "verify.context_lattice",
    "verify.context_families_s": "verify.context_families",
    "verify.generate_s": "verify.generate",
}
COUNTS = ["funcspace.ring_elements", "ideals.lattice_ideals",
          "zariski.closed_sets"]
UNITS = {**{k: "s" for k in [*SELF_TIME, *INCLUSIVE, "verify.body_s",
                             "trace.overhead_s"]},
         **{k: "count" for k in [*COUNTS, "verify.verdicts"]},
         "verify.unmet_ratio": "fraction", "verify.budget_ratio": "fraction"}


def import_engine():
    """Put the checkout's src/ first on the path and import the engine from
    there, never from an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import quasiring
    except ImportError as exc:
        sys.exit(f"bench: cannot import quasiring from {SRC}: {exc}")
    if not os.path.abspath(quasiring.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: quasiring resolved to {quasiring.__file__}, "
                 f"not to {SRC}")


def reference_loop() -> int:
    """Fixed pure-Python work of the kind the engine does (tuples, dicts,
    frozensets, integer arithmetic); its time tracks the host's speed."""
    seen, counts = set(), {}
    for i in range(2000):
        key = (i % 17, i % 5)
        counts[key] = counts.get(key, 0) + 1
        seen.add(frozenset((i % 7, i % 11)))
    return len(seen) + len(counts)


def reference_s(repeats: int = 1) -> float:
    """Median time of `repeats` reference loops, in seconds."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup_seconds(workload: str, seed: int) -> float:
    """Seconds from process start to inputs ready, in a fresh process, at
    the reference speed (see `Run.batch`)."""
    before = reference_s(5)
    start = time.time()
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    elapsed = float(done.stdout.split()[-1]) - start
    return elapsed * 2 * REFERENCE_S / (before + reference_s(5))


def setup_probe(workload: str, seed: int):
    import_engine()
    import inputs
    import workloads  # noqa: F401  (imports every engine module it drives)
    inputs.BATCHES[workload](seed, 0)
    print(repr(time.time()))


def quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Run:
    """One workload run: batches, per-slot latencies, oracle outcomes.

    Every batch of a workload has the same slots (``inputs.py``), so an
    operation is known by its slot: its position in the batch.  Each batch
    runs its operations in a seeded random order, so that the repetitions of
    one slot fall at scattered moments of the run.
    """

    def __init__(self, workload: str, seed: int):
        import inputs
        import workloads
        self.workload, self.seed = workload, seed
        self.make_batch = inputs.BATCHES[workload]
        self.ops, self.run_op, self.check = workloads.WORKLOADS[workload]
        self.digest = workloads.digest
        self.slot_ms, self.digests = {}, {}
        self.host_factors = []
        self.attempted = self.failed = self.wrong = 0
        self.decided = self.outcomes = 0

    def batch(self, index: int, rec=None, record=True) -> float:
        """Run batch `index`; returns its engine time at the reference
        speed.

        The host's speed drifts by up to 2x for seconds to minutes at a time
        (with no steal time reported, and CPU time equal to wall time), so
        each operation's time is scaled by REFERENCE_S over the mean of the
        reference loops timed just before and just after it.
        """
        ops = list(self.ops(self.make_batch(self.seed, index)))
        order = list(range(len(ops)))
        random.Random(f"order:{self.workload}:{self.seed}:{index}"
                      ).shuffle(order)
        refs, times = [], []
        for n in order:
            op = ops[n]
            # every operation starts from an empty collector, so the
            # collections inside it do not depend on the ones before it
            gc.collect()
            refs.append(reference_s())
            if rec is not None:
                rec.op = f"{index}.{n}"
                span = rec.open("op")
            start = time.perf_counter()
            try:
                raw = self.run_op(op, rec)
            except Exception:
                raw = None
                if record:
                    traceback.print_exc(file=sys.stderr)
            times.append(time.perf_counter() - start)
            if rec is not None:
                rec.close(span)
            if not record:
                continue
            self.attempted += 1
            if raw is None:
                self.failed += 1
                if index == 0:
                    self.digests[n] = "raised"
                continue
            checked = self.check(op, raw)
            self.decided += checked.decided
            self.outcomes += checked.outcomes
            if checked.problems:
                self.failed += 1
                self.wrong += len(checked.problems)
                print(f"bench: wrong output in batch {index} op {n}: "
                      f"{checked.problems}", file=sys.stderr)
            if index == 0:
                self.digests[n] = self.digest(checked.payload)
        refs.append(reference_s())
        busy = 0.0
        for i, n in enumerate(order):
            scaled = times[i] * 2 * REFERENCE_S / (refs[i] + refs[i + 1])
            busy += scaled
            if record:
                self.slot_ms.setdefault(n, []).append(scaled * 1000)
        self.host_factors.append(statistics.median(refs) / REFERENCE_S)
        return busy

    def batch0_digests(self) -> list:
        return [self.digests[n] for n in sorted(self.digests)]

    def slot_medians_ms(self) -> list:
        """Each slot's median latency over the run's batches."""
        return [statistics.median(times)
                for _, times in sorted(self.slot_ms.items())]


def changed_outputs(workload: str, seed: int, digests: list):
    """Operations of batch 0 whose digest differs from the recorded one;
    None when no digest was recorded for this seed."""
    path = os.path.join(HERE, "digests.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh).get(workload, {}).get(str(seed))
    if recorded is None:
        return None
    return (sum(a != b for a, b in zip(recorded, digests))
            + abs(len(recorded) - len(digests)))


def run_untraced(run: Run, seconds: float) -> dict:
    """Batches until `seconds` have passed; the set-up probes run between
    the first batches (the rest after the last), so that they sample the
    host's speed across the run rather than at one moment."""
    walls, setups = [], []
    start = time.perf_counter()
    last = 0.0
    while (len(walls) < MIN_BATCHES
           or time.perf_counter() - start + last <= seconds):
        if len(setups) < SETUP_REPEATS:
            setups.append(setup_seconds(run.workload, run.seed))
        t0 = time.perf_counter()
        walls.append(run.batch(len(walls)))
        last = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(run.workload, run.seed))
    return {"walls": walls, "setups": setups, "rss_mb": rss_mb}


def run_traced(run: Run, seconds: float) -> tuple:
    """Each batch untraced then traced (order alternating), so the tracing
    overhead is measured on identical work."""
    from spans import Recorder
    rec = Recorder()
    overheads = []
    start = time.perf_counter()
    last = 0.0
    index = 0
    while index < 2 or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        times = {}
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                rec.install()
                try:
                    times[True] = run.batch(index, rec, record=False)
                finally:
                    rec.uninstall()
            else:
                times[False] = run.batch(index)
        overheads.append(times[True] - times[False])
        index += 1
        last = time.perf_counter() - t0
    return layer_metrics(rec, index, overheads), rec


def layer_metrics(rec, batches: int, overheads: list) -> dict:
    self_by, total_by = rec.totals()
    out = {}
    for metric, span in SELF_TIME.items():
        out[metric] = self_by[span] / batches
    for metric, span in INCLUSIVE.items():
        out[metric] = total_by[span] / batches
    out["verify.body_s"] = sum(v for k, v in self_by.items()
                               if k.startswith("verify.check.")) / batches
    for metric in COUNTS:
        out[metric] = rec.counts[metric] / batches
    verdicts = sum(v for k, v in rec.counts.items()
                   if k.startswith("verdict."))
    out["verify.verdicts"] = verdicts / batches
    out["verify.unmet_ratio"] = (rec.counts["verdict.HYPOTHESIS_UNMET"]
                                 / verdicts if verdicts else 0.0)
    out["verify.budget_ratio"] = (rec.counts["verdict.BUDGET_EXCEEDED"]
                                  / verdicts if verdicts else 0.0)
    out["trace.overhead_s"] = statistics.median(overheads)
    return out


def run_workload(args) -> int:
    import_engine()
    run = Run(args.workload, args.seed)
    if args.trace:
        metrics, rec = run_traced(run, args.seconds)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        rec.write(os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.jsonl"))
        units = UNITS
        samples = {}
    else:
        measured = run_untraced(run, args.seconds)
        per_slot = run.slot_medians_ms()
        setups = measured["setups"]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(per_slot) / 1000,
            "op_p50_ms": statistics.median(per_slot),
            "op_p90_ms": quantile(per_slot, 0.9),
            "decided_ratio": run.decided / max(run.outcomes, 1),
            "peak_rss_mb": measured["rss_mb"],
        }
        units = dict(END_TO_END)
        samples = {"setup_s": len(setups),
                   "wall_s": len(measured["walls"]),
                   "op_p50_ms": len(per_slot), "op_p90_ms": len(per_slot),
                   "decided_ratio": run.outcomes, "peak_rss_mb": 1}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": samples, "wrong_outputs": run.wrong,
        "error_ratio": run.failed / max(run.attempted, 1),
        "host_factor": statistics.median(run.host_factors),
        "slot_ms": run.slot_medians_ms(),
        "changed_outputs": changed_outputs(args.workload, args.seed,
                                           run.batch0_digests()),
        "digests": run.batch0_digests(),
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run.wrong == 0 and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one row of metrics per workload."""
    code = 0
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"], capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            sys.stderr.write(done.stderr)
            print(f"{workload}: failed with exit code {done.returncode}")
            code = 1
            continue
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2].split(" ", 1)[1])
        cells = [f"{k}={m['value']:.6g} {m['unit']} "
                 f"(n={detail['samples'][k]})"
                 for k, m in result["metrics"].items()]
        cells += [f"error_ratio={detail['error_ratio']:.6g} fraction "
                  f"(n={result['attempted']})",
                  f"wrong_outputs={detail['wrong_outputs']} count",
                  f"changed_outputs={detail['changed_outputs']} count"]
        print(f"{workload:8s} " + "  ".join(cells))
        if not result["correct"]:
            code = 1
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
