"""Byte-identity of the default ``check --json`` payload on the corpus.

Every corpus document runs in-process through ``cli.main`` under every
seed the golden file ``perfbench/golden/corpus.json`` holds for it (keys
``corpus/<stem>@<seed>``, seeds 0-15, the seeds the benchmark runs), and
its payload, with ``millis`` zeroed, must equal the golden payload.  The
golden file is only read here; when it is missing, or holds no seed for a
document, the tests fail.
"""

import contextlib
import io
import json
import re
from importlib import resources
from pathlib import Path

import pytest

from comodcheck import cli

GOLDEN = (Path(__file__).resolve().parents[1] / "perfbench" / "golden"
          / "corpus.json")
CORPUS = resources.files("comodcheck") / "corpus"
NAMES = sorted(p.name for p in CORPUS.iterdir() if p.name.endswith(".cd"))
MILLIS = re.compile(r'"millis": [-+0-9.eE]+')


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", NAMES)
def test_corpus_payload_matches_golden(golden, name):
    stem = Path(name).stem
    prefix = f"corpus/{stem}@"
    seeds = sorted(int(key[len(prefix):]) for key in golden
                   if key.startswith(prefix))
    assert seeds, name
    for seed in seeds:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["check", str(CORPUS / name), "--json",
                      "--seed", str(seed)])
        payload = MILLIS.sub('"millis": 0', out.getvalue())
        assert payload == golden[f"corpus/{stem}@{seed}"], (name, seed)
