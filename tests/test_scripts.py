"""The scripts under ``scripts/`` import, and the report judges runs from
what ``emnav simulate`` writes."""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def scripts_path(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_script_imports(scripts_path, name):
    assert callable(importlib.import_module(name).main)


def test_outcome_reads_the_summary(scripts_path, tmp_path):
    compare = importlib.import_module("compare")
    base = json.loads(compare.ROBUSTNESS_BASE.read_text())
    short = {**base, "name": "short", "duration": 0.3}
    assert compare.outcome(short, tmp_path).startswith("bounded, not settled")
    kicked = {**short, "name": "kicked", "disturbances": [
        {"type": "impulse", "time": 0.0, "magnitude": 1e307}]}
    assert compare.outcome(kicked, tmp_path) == "integration failure (agent 0) at t=0.00s"
    assert (tmp_path / "kicked.json").exists()
