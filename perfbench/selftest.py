"""Self-test of the traced run.

    python3 perfbench/selftest.py [--seed N] [workload ...]

Runs ``run.py --trace 1`` twice per workload with the same seed, one
process after the other, and checks that

- both runs are correct, which includes that the time outside every span
  is at least 0 and a small share of the traced wall;
- every count repeats exactly: each ``*.calls``, ``exactlin.elim.*``,
  ``exactlin.mul.dense_ops``, ``*.unique_ratio`` and ``trace.spans``;
- in each run, the self time of every layer, rebuilt from the span table
  the run wrote (each span's duration less its children's and its
  probe's), matches the reported one, every child span lies inside its
  parent, and the rebuilt self times plus ``trace.untraced_s`` add up to
  ``trace.wall_s``.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".unique_ratio", ".max_rows", ".max_cols",
                  ".max_nnz", ".nnz_ratio", ".dense_ops", ".spans")


def metric_name(layer: str) -> str:
    return {"report.json": "report.json_s",
            "trace.probe": "trace.probe_s"}.get(layer, f"{layer}.self_s")


def traced_run(workload: str, seed: int) -> tuple[dict, list[str]]:
    """One traced run: its result, and the problems its span table shows."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    run = json.loads(proc.stdout.strip().splitlines()[-1])
    m = {k: v["value"] for k, v in run["metrics"].items()}
    self_s, root_s, problems = spans.self_times_from_table(
        HERE / "out" / f"spans-{workload}-s{seed}.jsonl")
    wall = m["trace.wall_s"]
    tolerance = 1e-6 + 1e-9 * len(self_s) * wall
    for layer, seconds in self_s.items():
        reported = m[metric_name(layer)]
        if abs(seconds - reported) > tolerance:
            problems.append(f"{layer}: {seconds:.9f} s from the span table,"
                            f" {reported:.9f} s reported")
    if abs(root_s + m["trace.untraced_s"] - wall) > tolerance:
        problems.append(f"root spans {root_s:.9f} s plus untraced "
                        f"{m['trace.untraced_s']:.9f} s, traced wall "
                        f"{wall:.9f} s")
    total = sum(self_s.values()) + m["trace.untraced_s"]
    if abs(total - wall) > tolerance:
        problems.append(f"rebuilt self times + untraced = {total:.9f} s, "
                        f"traced wall = {wall:.9f} s")
    if not run["correct"]:
        problems.append("not correct")
    return run, problems


def check(workload: str, seed: int) -> list[str]:
    runs, problems = [], []
    for i in range(2):
        run, found = traced_run(workload, seed)
        runs.append(run)
        problems += [f"run {i}: {p}" for p in found]
    first, second = (r["metrics"] for r in runs)
    for name in sorted(first):
        if name.endswith(COUNT_SUFFIXES) and \
                first[name]["value"] != second.get(name, {}).get("value"):
            problems.append(f"{name}: {first[name]['value']} then "
                            f"{second.get(name, {}).get('value')}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="self-test of the trace")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("workloads", nargs="*",
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workloads:
        problems = check(workload, args.seed)
        ok = ok and not problems
        print(f"{workload:10s} {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"    {p}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
