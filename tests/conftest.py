"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from emnav import sim
from emnav.dynamics import PendulumParams
from emnav.magmodel import get_model

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(scope="session")
def octomag():
    return get_model("octomag8")


@pytest.fixture(scope="session")
def navion():
    return get_model("navion3")


@pytest.fixture
def params():
    return PendulumParams()


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture(scope="session")
def bundled_runs():
    """Every bundled ``simulate`` scenario, run once at ``sim.PLANT_DT``.

    Maps the scenario name to its trace and the wall time of the run.  Tests
    that rerun a scenario (determinism, step halving) compare against these
    first runs.
    """
    runs = {}
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        if data.get("kind", "simulate") != "simulate":
            continue
        start = time.perf_counter()
        trace = sim.run_scenario(sim.scenario_from_dict(data))
        runs[path.stem] = {"trace": trace, "wall": time.perf_counter() - start}
    return runs
