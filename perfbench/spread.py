"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--first-seed 0] [workload ...]

Runs ``run.py --trace 0`` once for each of RUNS seeds (one process after
another) for each workload, with ``run_seconds`` from BENCHMARK.json, and
prints for every end-to-end metric its median, the distance between its
first and third quartile as a share of the median, and the metric's
bound.  For ``wall_s`` and ``setup_s`` it also prints the same spread of
the times before rescaling to the reference speed (``raw``), taken from
each run's record, and it prints how long each run took.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
RUNS = 10


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spread of the metrics")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        raw = {"wall_s": [], "setup_s": []}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, timeout=600, check=True)
            took = time.perf_counter() - start
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            record = json.loads(
                (HERE / "out" / f"result-{workload}-s{seed}-t0.json")
                .read_text("utf-8"))
            raw["wall_s"].append(
                statistics.median(p["raw_s"] for p in record["passes"]))
            raw["setup_s"].append(statistics.median(record["setups_s"]))
            print(f"{workload:10s} seed {seed:3d}  {took:6.1f} s  "
                  f"correct {result['correct']}", flush=True)
        for name, vals in values.items():
            med, share = spread(vals)
            print(f"{workload:10s} {name:14s} median {med:10.4f}  "
                  f"spread {share:6.3f}  bound {bounds[name]}  "
                  f"min {min(vals):.4f} max {max(vals):.4f}", flush=True)
        for name, vals in raw.items():
            med, share = spread(vals)
            print(f"{workload:10s} {name:14s} raw    {med:10.4f}  "
                  f"spread {share:6.3f}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
