"""Run the suite from a checkout without installing the package.

``pythonpath`` in ``pyproject.toml`` puts ``src/`` on this process's
``sys.path``; the CLI tests start ``python -m comodcheck.cli`` in child
processes, which find the package through ``PYTHONPATH`` set here.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def src_on_child_path(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
