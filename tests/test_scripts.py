"""The scripts under ``scripts/`` import, and the report judges runs from
what ``emnav simulate`` writes."""

from __future__ import annotations

import importlib
import json
import subprocess
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


def test_outcome_judges_both_channels(scripts_path, tmp_path):
    # A pendulum that falls on beta alone leaves alpha at zero: the verdict
    # reads every angle, not alpha's.
    compare = importlib.import_module("compare")
    base = json.loads(compare.ROBUSTNESS_BASE.read_text())
    agent = {**base["agents"][0], "initial": {"beta": 0.6}}
    fallen = {**base, "name": "fallen", "duration": 0.3, "agents": [agent]}
    assert compare.outcome(fallen, tmp_path).startswith("diverges")


def test_bench_copies_the_checkout_without_ignored_files(scripts_path, tmp_path):
    # The change side of scripts/bench.py: tracked files (with uncommitted
    # edits) and untracked ones come along; ignored ones, such as a stale
    # __pycache__, and tracked files deleted in the checkout do not.
    bench = importlib.import_module("bench")
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    files = {"tracked.py": "x = 1\n", "pkg/edited.py": "y = 2\n",
             "gone.py": "z = 3\n", ".gitignore": "__pycache__/\n"}
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run(["git", "-C", str(repo), "add", "."], check=True)
    (repo / "pkg/edited.py").write_text("y = 3\n")
    (repo / "gone.py").unlink()
    (repo / "pkg/new.py").write_text("w = 4\n")
    (repo / "pkg/__pycache__").mkdir()
    (repo / "pkg/__pycache__/edited.cpython-311.pyc").write_bytes(b"stale")
    bench._copy_checkout(repo, dest)
    copied = sorted(str(p.relative_to(dest)) for p in dest.rglob("*") if p.is_file())
    assert copied == [".gitignore", "pkg/edited.py", "pkg/new.py", "tracked.py"]
    assert (dest / "pkg/edited.py").read_text() == "y = 3\n"
