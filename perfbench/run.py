"""Time-to-verdict benchmark for comodcheck.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload's documents are generated
from the seed (see ``workloads.py``) and run one after another in this
process, each as ``comodcheck check <file> --json --seed <s>``: a closed
loop with one client and no threads.  Every check is judged against its
known answer and every payload against its golden copy.

``--trace 0`` repeats the document set while another pass fits in
``--seconds`` and reports the end-to-end metrics, with every time rescaled
to the reference speed measured by ``harness.SpeedSampler``.  ``--trace 1``
runs the set once untraced and once with every layer wrapped in spans
(``spans.py``), and reports the per-layer metrics.  The last line of
stdout is the JSON result; the lines before it give each metric with its
sample count and raw value, and the environment.  A record of the run is
written to ``perfbench/out/``.

Exit code 0 when the run completed (``correct`` says whether every
answer held); 2 when the package sources are missing.
"""

from __future__ import annotations

import sys
import time

PROCESS_START = time.perf_counter()
# The modules a fresh interpreter holds before this file imports anything.
STARTUP_MODULES = frozenset(sys.modules)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH_MODULES = frozenset({"harness", "spans", "workloads"})
SETUP_REPEATS = 21
# Per-document wall-time limits, each at least four times the slowest
# document of its workload, and a limit for the whole process.
DOC_LIMIT_S = {"corpus": 20.0, "forall": 100.0, "coherence": 30.0,
               "raw": 30.0}
RUN_LIMIT_S = 170.0
# Largest share of the traced wall that may lie outside every span: only
# the harness's own work around ``cli.main`` should.
UNTRACED_SHARE = 0.02
# Speed samples this long before and after a document rescale its time.
SPEED_WINDOW_S = 0.5


def setup(workload: str, seed: int, clock):
    """Fresh import of the package, then the workload's inputs on disk.

    Every module imported since the interpreter started is dropped first,
    except the benchmark's own, so each set-up imports what ``comodcheck``
    needs from the standard library as a fresh process would.  Returns
    (seconds, cli module, docs with their paths)."""
    for name in [m for m in sys.modules
                 if m not in STARTUP_MODULES and m not in BENCH_MODULES]:
        del sys.modules[name]
    gc.collect()
    start = clock()
    cli = importlib.import_module("comodcheck.cli")
    docs = workloads.generate(workload, seed, SRC / "comodcheck" / "corpus")
    work = OUT / f"{workload}-s{seed}"
    work.mkdir(parents=True, exist_ok=True)
    placed = [(doc, work / doc.filename) for doc in docs]
    for path, doc in {path: doc for doc, path in placed}.items():
        path.write_text(doc.text, encoding="utf-8")
        path.with_suffix(".expected.json").write_text(
            json.dumps(doc.answers, indent=1) + "\n", encoding="utf-8")
    return clock() - start, cli, placed


class Tally:
    """Checks attempted and failed, documents drifted, problems seen."""

    def __init__(self):
        self.checks = self.failed = self.drifted = self.docs = 0
        self.problems: list[str] = []

    def add(self, doc, verdict):
        checks, failed, drifted, problem = verdict
        self.docs += 1
        self.checks += checks
        self.failed += failed
        self.drifted += drifted
        if problem and len(self.problems) < 20:
            self.problems.append(f"{doc.key}: {problem}")

    def skip(self, doc):
        self.add(doc, (len(doc.answers), len(doc.answers), True,
                       "not run: the run's time limit was reached"))


def run_pass(cli, placed, golden, tally, workload, clock=time.perf_counter):
    """Run the document set once; returns (seconds, start, end) for each
    document, or None when the run's time limit cut the pass short."""
    times = []
    for i, (doc, path) in enumerate(placed):
        left = RUN_LIMIT_S - (time.perf_counter() - PROCESS_START)
        if left < 1.0:
            for rest, _ in placed[i:]:
                tally.skip(rest)
            return None
        begin = time.perf_counter()
        elapsed, rc, payload, fault = harness.run_doc(
            cli, path, doc.runner_seed, min(DOC_LIMIT_S[workload], left),
            clock)
        times.append((elapsed, begin, time.perf_counter()))
        tally.add(doc, harness.judge(doc, rc, payload, fault, golden))
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, cli, placed, golden, tally, sampler):
    """End-to-end timings: repeat the set while another pass fits in
    ``args.seconds`` (at least once).  Each document's time is rescaled by
    the speed sampled from SPEED_WINDOW_S before it to as long after."""
    passes = []
    start = time.perf_counter()
    while True:
        docs = run_pass(cli, placed, golden, tally, args.workload,
                        sampler.clock)
        if docs is None:
            break
        passes.append(docs)
        now = time.perf_counter()
        typical = statistics.median(sum(d[0] for d in p) for p in passes)
        if now - start + typical > args.seconds or \
                now - PROCESS_START + typical > RUN_LIMIT_S:
            break
    if not passes:
        passes = [[(RUN_LIMIT_S, 0.0, 0.0)]]
    scaled = [[t * sampler.factor(b - SPEED_WINDOW_S, e + SPEED_WINDOW_S)
               for t, b, e in docs] for docs in passes]
    walls = [sum(docs) for docs in scaled]
    raw_walls = [sum(d[0] for d in docs) for docs in passes]
    doc_ms = [t * 1000.0 for docs in scaled for t in docs]
    p90 = statistics.quantiles(doc_ms, n=10)[8] if len(doc_ms) > 1 \
        else doc_ms[0]
    notes = {
        "wall_s": f"median of {len(walls)} passes; raw "
                  f"{statistics.median(raw_walls):.4g} s",
        "doc_ms.p50": f"n={len(doc_ms)}",
        "doc_ms.p90": f"n={len(doc_ms)}, "
                      f"{sum(1 for x in doc_ms if x > p90)} beyond"}
    metrics = {"wall_s": metric(statistics.median(walls), "s"),
               "doc_ms.p50": metric(statistics.median(doc_ms), "ms"),
               "doc_ms.p90": metric(p90, "ms")}
    return metrics, notes, list(zip(raw_walls, walls))


def traced(args, cli, placed, golden, tally):
    """Per-layer metrics: one untraced pass, then one traced pass."""
    untraced = run_pass(cli, placed, golden, tally, args.workload)
    tracer = spans.Tracer()
    tracer.install()
    times = run_pass(cli, placed, golden, tally, args.workload)
    if untraced is None or times is None:
        return None, ["the run's time limit cut the traced run short"]
    wall = sum(t[0] for t in times)
    problems = []
    untraced_s = wall - tracer.root_s
    if not 0.0 <= untraced_s <= UNTRACED_SHARE * wall:
        problems.append(f"untraced time {untraced_s:.6f} s is outside "
                        f"0..{UNTRACED_SHARE:g} of the traced wall "
                        f"{wall:.6f} s")
    e = tracer.elim
    m = {}
    for layer, seconds in tracer.self_s.items():
        key = "report.json_s" if layer == "report.json" else \
            "trace.probe_s" if layer == "trace.probe" else f"{layer}.self_s"
        m[key] = metric(seconds, "s")
    for name in ("exactlin.bareiss", "exactlin.rref_mod", "exactlin.mul",
                 "comod.cotensor", "comod.is_injective",
                 "indexed.forall_data", "coalg.pullback"):
        m[f"{name}.calls"] = metric(tracer.count(name), "count")
    m["exactlin.assemble.calls"] = metric(
        tracer.layer_calls("exactlin.assemble"), "count")
    for key in ("max_rows", "max_cols", "max_nnz"):
        m[f"exactlin.elim.{key}"] = metric(e[key], "count")
    m["exactlin.elim.nnz_ratio"] = metric(
        e["nnz"] / e["cells"] if e["cells"] else 0.0, "ratio")
    m["exactlin.mul.dense_ops"] = metric(tracer.dense_ops, "count")
    for name in ("comod.cotensor", "comod.is_injective"):
        m[f"{name}.unique_ratio"] = metric(tracer.unique_ratio(name),
                                           "ratio")
    m["trace.overhead_ratio"] = metric(wall / sum(t[0] for t in untraced),
                                       "ratio")
    m["trace.untraced_s"] = metric(untraced_s, "s")
    m["trace.wall_s"] = metric(wall, "s")
    m["trace.spans"] = metric(len(tracer.span_name), "count")
    tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.jsonl")
    return m, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "comodcheck" / "__init__.py").is_file():
        print(f"error: no comodcheck sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # The traced run measures its own spans; a sampler would land in them.
    sampler = None if args.trace else harness.SpeedSampler()
    clock = sampler.clock if sampler else time.perf_counter
    if sampler:
        sampler.start()
    begin = time.perf_counter()
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, cli, placed = setup(args.workload, args.seed, clock)
        setups.append(seconds)
    setup_factor = sampler.factor(begin, time.perf_counter()) \
        if sampler else 1.0
    golden = json.loads(
        (HERE / "golden" / f"{args.workload}.json").read_text("utf-8"))
    env = harness.environment(ROOT, SRC, sys.modules["comodcheck"], args)
    tally = Tally()
    problems, notes, passes = [], {}, []
    env["first_document_at_s"] = time.perf_counter() - PROCESS_START
    if args.trace:
        metrics, problems = traced(args, cli, placed, golden, tally)
    else:
        metrics, notes, passes = measure(args, cli, placed, golden, tally,
                                         sampler)
        sampler.stop()
        metrics["setup_s"] = metric(
            statistics.median(setups) * setup_factor, "s")
        notes["setup_s"] = f"median of {len(setups)} set-ups; raw " \
                           f"{statistics.median(setups):.4g} s"
        metrics["peak_rss_mb"] = metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB")
        env["speed_samples"] = len(sampler.samples)
        env["speed_factor"] = sampler.factor()
        env["reference_median_s"] = statistics.median(
            t for _, t in sampler.samples)
    problems = tally.problems + problems
    correct = metrics is not None and not problems
    failed_ratio = tally.failed / tally.checks if tally.checks else 1.0
    summary = {"failed_ratio": failed_ratio, "json_drift": tally.drifted,
               "documents": tally.docs, "problems": problems}
    for name, m in sorted((metrics or {}).items()):
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'failed_ratio':32s} {failed_ratio:.6g} ratio  "
          f"({tally.failed} of {tally.checks} checks)")
    print(f"{'json_drift':32s} {tally.drifted} count  "
          f"(of {tally.docs} documents)")
    for problem in problems:
        print(f"problem: {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    record = {"env": env, "summary": summary, "metrics": metrics,
              "notes": notes, "setups_s": setups,
              "setup_factor": setup_factor,
              "passes": [{"raw_s": raw, "scaled_s": scaled}
                         for raw, scaled in passes]}
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json") \
        .write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": max(tally.checks, 1),
                      "failed": tally.failed, "metrics": metrics or {}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
