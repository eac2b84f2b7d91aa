"""Running one document through the CLI, and judging its output.

A document runs as ``comodcheck check <file> --json --seed <s>`` through
``cli.main`` in this process, with stdout and stderr captured and a
wall-time limit enforced by ``SIGALRM``.  Its output is judged twice:
against the known answers of ``workloads`` (verdict, value and the
independently derived dims of every check) and against the golden payload
captured at the commit that introduced the benchmark, with ``millis``
zeroed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import signal
import statistics
import time
import traceback
from fractions import Fraction
from pathlib import Path

MILLIS = re.compile(r'"millis": [-+0-9.eE]+')


class DocTimeout(BaseException):
    """Raised by the alarm when a document overruns its limit."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise DocTimeout()


def reference():
    """Fixed pure-Python work in the program's mix: Fraction and big-int
    arithmetic, list and dict traffic.  About 2.7 ms on the VM where the
    benchmark was written."""
    acc = Fraction(0)
    row = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(80)]
    for i in range(80):
        acc += row[i] * row[(i * 7) % 80]
    big = 3 ** 200
    table = {}
    for i in range(3000):
        big = (big * 7 + i) // 5
        table[i & 63] = table.get(i & 63, 0) + (big & 255)
    return acc, table


# Median time of ``reference()`` over 20 runs on the VM where the benchmark
# was written: rescaled times are what that VM measures at that speed.
REFERENCE_S = 0.0027
# CPU time between two speed samples.
PERIOD_S = 0.1


class SpeedSampler:
    """Samples the machine's speed while the benchmark runs.

    Every PERIOD_S of process CPU time a ``SIGPROF`` handler times one
    ``reference()``, with the garbage collector off so that the size of the
    program's heap does not slow the sample.  A stretch of wall time is
    rescaled by the median of REFERENCE_S / sample over the samples taken
    in it, which cancels the drift in speed of a shared machine.
    ``busy_s`` is the time spent in the handler, which document times
    exclude.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self.busy_s = 0.0

    def _tick(self, signum, frame):
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append((start, took))
        self.busy_s += took

    def clock(self) -> float:
        """perf_counter without the time spent in the handler."""
        busy = self.busy_s
        return time.perf_counter() - busy

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def factor(self, since: float = float("-inf"),
               until: float = float("inf")) -> float:
        """Median of REFERENCE_S / sample over the samples in the span
        (over all samples when the span holds fewer than three)."""
        took = [t for s, t in self.samples if since <= s <= until]
        if len(took) < 3:
            took = [t for _, t in self.samples]
        return statistics.median(REFERENCE_S / t for t in took) if took \
            else 1.0


def run_doc(cli, path: Path, runner_seed: int, limit_s: float,
            clock=time.perf_counter):
    """Run one document; returns (seconds, exit code, stdout, fault).

    ``fault`` is None, "timeout", or the traceback of an exception that
    escaped ``cli.main``; the exit code is None when there is a fault.
    """
    global _armed
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    rc, fault = None, None
    start = clock()
    try:
        _armed = True
        signal.setitimer(signal.ITIMER_REAL, max(limit_s, 0.001))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["check", str(path), "--json",
                           "--seed", str(runner_seed)])
    except DocTimeout:
        fault = "timeout"
    except (Exception, SystemExit):
        fault = traceback.format_exc()
    finally:
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = clock() - start
        signal.signal(signal.SIGALRM, previous)
    if fault is None and rc == 2:
        fault = "exit 2: " + err.getvalue().strip()
    return elapsed, rc, out.getvalue(), fault


def normalize(payload: str) -> str:
    """The payload with every ``millis`` value set to 0."""
    return MILLIS.sub('"millis": 0', payload)


def _matches(report: dict, want: dict) -> bool:
    return (report.get("check") == want["check"]
            and report.get("refs") == want["refs"]
            and report.get("verdict") == want["verdict"]
            and report.get("value") == want["value"]
            and all((report.get("dims") or {}).get(k) == v
                    for k, v in want.get("dims", {}).items()))


def judge(doc, rc, payload: str, fault, golden: dict):
    """Returns (checks, failed checks, drifted, problem or None)."""
    n = len(doc.answers)
    drift = normalize(payload) != golden.get(doc.key) if payload \
        else True
    if fault is not None:
        return n, n, drift, fault.strip().splitlines()[-1]
    if rc != doc.expected_rc:
        return n, n, drift, f"exit {rc}, expected {doc.expected_rc}"
    try:
        reports = json.loads(payload)
    except ValueError:
        return n, n, drift, "payload is not JSON"
    failed = sum(1 for i, want in enumerate(doc.answers)
                 if i >= len(reports) or not _matches(reports[i], want))
    problem = f"{failed} checks differ from the known answers" \
        if failed else None
    if drift and problem is None:
        problem = "payload differs from the golden payload"
    return n, failed, drift, problem


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the package's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((src / "comodcheck").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".cd"):
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, src: Path, comodcheck, args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(root),
        "source_sha256": source_digest(src),
        "backend": getattr(comodcheck, "BACKEND", None),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
