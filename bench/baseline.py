"""Record the benchmark's baseline: machine, metrics, spreads and digests.

    python3 bench/baseline.py --seeds 0-9 --seconds 40

Runs every workload once per seed with tracing off, once on its held-out
seed (for the digests only) and once with tracing on (first seed), computes
each end-to-end metric's median and quartile spread (interquartile distance
over median) across seeds, times the ROADMAP's
reference lattice C(discrete 3, Z_5) in ring mode, and writes
``baseline.json`` and the batch-0 output digests ``digests.json`` next to
this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: float, trace: int):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2].split(" ", 1)[1]), json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def machine() -> dict:
    model = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version()}


def reference_lattice_s() -> float:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from quasiring import FunctionRing, discrete_space, make_zmod
    from quasiring.ideals import RIGHT, RING, ideal_lattice
    ring = FunctionRing(discrete_space(3), make_zmod(5))
    start = time.perf_counter()
    ideal_lattice(ring, RIGHT, RING)
    return time.perf_counter() - start


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--workloads", default="fuzz,ideals,analyze")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    out = {"machine": machine(), "seconds": args.seconds, "seeds": seeds,
           "workloads": {}}
    digests = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            detail, result = bench(workload, seed, args.seconds, 0)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output")
            runs.append(result["metrics"])
            digests.setdefault(workload, {})[str(seed)] = detail["digests"]
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()},
                  flush=True)
        summary = {}
        for name, first in runs[0].items():
            values = [r[name]["value"] for r in runs]
            summary[name] = {"unit": first["unit"],
                             "median": statistics.median(values),
                             "spread": spread(values), "values": values}
            print(f"  {name}: median {summary[name]['median']:.6g} "
                  f"{first['unit']}, spread {summary[name]['spread']:.3f}",
                  flush=True)
        held_out = inputs.HELD_OUT_SEEDS[workload]
        detail, _ = bench(workload, held_out, args.seconds, 0)
        digests[workload][str(held_out)] = detail["digests"]
        _, traced = bench(workload, seeds[0], args.seconds, 1)
        out["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer": {k: v["value"]
                          for k, v in traced["metrics"].items()},
        }
    out["reference_lattice_d3_z5_s"] = reference_lattice_s()
    print("C(discrete 3, Z_5) ring-mode lattice:",
          round(out["reference_lattice_d3_z5_s"], 3), "s")
    with open(os.path.join(HERE, "baseline.json"), "w",
              encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(HERE, "digests.json"), "w",
              encoding="utf-8") as fh:
        json.dump(digests, fh, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
