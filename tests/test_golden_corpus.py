"""Byte-identity of the default ``check --json`` payload on the corpus.

Every corpus document runs in-process through ``cli.main`` under seeds 0-3
and its payload, with ``millis`` zeroed, must equal the golden payload
stored in ``perfbench/golden/corpus.json`` under
``corpus/<stem>@<seed>``.  The golden file is only read here; when it is
missing the tests fail.
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
SEEDS = range(4)
MILLIS = re.compile(r'"millis": [-+0-9.eE]+')


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", NAMES)
def test_corpus_payload_matches_golden(golden, name):
    stem = Path(name).stem
    for seed in SEEDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["check", str(CORPUS / name), "--json",
                      "--seed", str(seed)])
        payload = MILLIS.sub('"millis": 0', out.getvalue())
        assert payload == golden[f"corpus/{stem}@{seed}"], (name, seed)
