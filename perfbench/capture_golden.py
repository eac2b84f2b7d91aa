"""Capture the golden payloads that ``json_drift`` compares against.

    python3 perfbench/capture_golden.py [workload ...]

Runs every document any seed can produce (``workloads.pool``) through
``comodcheck check --json`` and stores each payload with ``millis`` zeroed
in ``perfbench/golden/<workload>.json``.  A document whose output differs
from its known answer stops the capture: a golden payload must never
record a wrong verdict.  Rerun only on the commit that defines the
benchmark's baseline.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import harness  # noqa: E402
import workloads  # noqa: E402
from comodcheck import cli  # noqa: E402


def capture(workload: str, work: Path) -> dict:
    golden = {}
    for doc in workloads.pool(workload, SRC / "comodcheck" / "corpus"):
        path = work / doc.filename
        path.write_text(doc.text, encoding="utf-8")
        elapsed, rc, payload, fault = harness.run_doc(cli, path,
                                                      doc.runner_seed, 120.0)
        _, failed, _, problem = harness.judge(doc, rc, payload, fault, {})
        if failed:
            raise SystemExit(f"{doc.key}: {problem}")
        golden[doc.key] = harness.normalize(payload)
        print(f"{doc.key:40s} {elapsed:8.3f} s", flush=True)
    return golden


def main(argv) -> int:
    names = argv or list(workloads.WORKLOADS)
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for workload in names:
            golden = capture(workload, Path(tmp))
            out = HERE / "golden" / f"{workload}.json"
            out.parent.mkdir(exist_ok=True)
            out.write_text(json.dumps(golden, indent=0, sort_keys=True)
                           + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
