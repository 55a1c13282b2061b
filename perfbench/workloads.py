"""The benchmark's four workloads, generated from a seed.

Each workload is a list of ``(command, config)`` invocations of the
``emnav`` front end; one workload run performs all of them in order.  The
configs are written out as JSON files and the program sees only those files.
The base configs are copies of bundled scenarios, kept here so that an edit
to ``scenarios/`` does not silently change the benchmark.

The seed draws the alloc-bench tasks and the simulations' initial tilts.
The workspace grids are fixed; the seed is recorded but moves nothing there.
``DEFAULT_SEED`` is the seed whose outputs were recorded as the reference
under ``perfbench/reference/``.

Why each workload (see DESIGN.md for the metric interaction map):

- ``sim_multi_torque``: the heaviest user path (two pendulum agents, stacked
  torque allocation, 2400 ticks).  Plant integration and allocation dominate,
  so per-tick work shows here first.
- ``sim_field_disturb``: the other paradigm.  One actuator-only agent,
  field alignment, the slowest DARE and the largest export share.  A change
  to torque allocation alone should leave it unchanged.
- ``workspace_grid``: ``emnav workspace`` on a 21^3 single-agent grid and a
  41x41 two-agent plane.  It runs no simulation, control or dynamics code,
  so it isolates the magnetic model and the workspace margins.
- ``alloc_sweep``: ``emnav alloc-bench`` on random tasks.  Here zeta*, the
  realized field and the norms are the output, so it shows any cost that a
  simulator-only optimisation shifts onto diagnostics.
"""

from __future__ import annotations

import copy
import json
import random
from pathlib import Path

DEFAULT_SEED = 0

_PENDULUM_CONTROLLER = {
    "q_diag": [20.0, 40.0, 1.0, 1.0],
    "r_weight": 25.0,
    "k_i": -1.0,
    "integral_enabled": True,
    "anti_windup_limit": 0.05,
}

_MULTI_TORQUE_ASYNC = {
    "name": "multi_torque_async",
    "kind": "simulate",
    "model": "octomag8",
    "paradigm": "torque",
    "strategy": "multi_torque",
    "emns": "octomag",
    "duration": 12.0,
    "seed": 0,
    "plant": {"dipole_magnitude": 1.85},
    "agents": [
        {
            "position": [-0.0325, 0.0, 0.0],
            "polarity": 1,
            "initial": {"alpha": 0.05},
            "setpoint": {"type": "circle", "radius": 0.05, "frequency": 0.1,
                         "phase": 0.0},
            "controller": _PENDULUM_CONTROLLER,
        },
        {
            "position": [0.0325, 0.0, 0.0],
            "polarity": 1,
            "initial": {"alpha": 0.05},
            "setpoint": {"type": "circle", "radius": 0.05, "frequency": 0.2,
                         "phase": 0.0},
            "controller": _PENDULUM_CONTROLLER,
        },
    ],
}

_DISTURB_FIELD_INTEGRAL = {
    "name": "disturb_field_integral",
    "kind": "simulate",
    "model": "octomag8",
    "paradigm": "field",
    "strategy": "field_alignment",
    "emns": "octomag",
    "duration": 10.0,
    "seed": 0,
    "field_magnitude": 0.065,
    "plant": {"eta": 0.002, "damping": 0.005},
    "agents": [
        {
            "position": [0.0, 0.0, 0.0],
            "pendulum_attached": False,
            "setpoint": {"type": "constant", "alpha": 0.0, "beta": 0.0},
            "controller": {
                "q_diag": [1e-09, 1e-09],
                "r_weight": 1.0,
                "k_i": 0.7,
                "integral_enabled": True,
            },
            "integral_windows": [[4.0, 10.0]],
        }
    ],
    "disturbances": [
        {"type": "torque_bias", "time": 1.0, "agent": 0, "channel": "alpha",
         "magnitude": 0.001}
    ],
}

_WORKSPACE_BASE = {
    "kind": "workspace",
    "model": "octomag8",
    "current_limit": 16.0,
    "tasks": {
        "torque-box": {"tau_bar": 0.002},
        "fixed-field": {"field_magnitude": 0.025},
    },
    "plant": {"dipole_magnitude": 2.0, "magnet_offset": 0.02},
}

_ALLOC_BENCH = {
    "kind": "alloc_bench",
    "name": "alloc_sweep",
    "model": "octomag8",
    "samples": 1000,
    "seed": 0,
    "tau_bar": 0.002,
    "position_radius": 0.04,
    "max_tilt": 0.3,
    "dipole_magnitude": 0.5,
}


def _sim_multi_torque(rng: random.Random, seed: int) -> list:
    cfg = copy.deepcopy(_MULTI_TORQUE_ASYNC)
    cfg["seed"] = seed
    for agent in cfg["agents"]:
        agent["initial"] = {
            "alpha": rng.uniform(0.03, 0.07),
            "beta": rng.uniform(-0.02, 0.02),
        }
    return [("simulate", cfg)]


def _sim_field_disturb(rng: random.Random, seed: int) -> list:
    cfg = copy.deepcopy(_DISTURB_FIELD_INTEGRAL)
    cfg["seed"] = seed
    cfg["agents"][0]["initial"] = {
        "alpha": rng.uniform(-0.02, 0.02),
        "beta": rng.uniform(-0.02, 0.02),
    }
    return [("simulate", cfg)]


def _workspace_grid(rng: random.Random, seed: int) -> list:
    cube = copy.deepcopy(_WORKSPACE_BASE)
    cube["name"] = "grid_cube"
    # 21^3 = 9261 points at 4 mm around the array centre, one agent.
    cube["grid"] = {"x": [-0.04, 0.04], "y": [-0.04, 0.04], "z": [-0.04, 0.04],
                    "spacing": 0.004}
    plane = copy.deepcopy(_WORKSPACE_BASE)
    plane["name"] = "grid_plane"
    # The bundled two-agent plane at 2 mm: 41 x 41 = 1681 points.
    plane["grid"] = {"x": [0.01, 0.09], "y": [-0.04, 0.04], "z": [0.0, 0.0],
                     "spacing": 0.002}
    plane["second_agent"] = [-0.0325, 0.0, 0.0]
    return [("workspace", cube), ("workspace", plane)]


def _alloc_sweep(rng: random.Random, seed: int) -> list:
    cfg = copy.deepcopy(_ALLOC_BENCH)
    cfg["seed"] = seed
    return [("alloc-bench", cfg)]


_GENERATORS = {
    "sim_multi_torque": _sim_multi_torque,
    "sim_field_disturb": _sim_field_disturb,
    "workspace_grid": _workspace_grid,
    "alloc_sweep": _alloc_sweep,
}

WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int) -> list:
    """The ``(command, config)`` invocations of one run of ``workload``."""
    return _GENERATORS[workload](random.Random(seed), seed)


def write_configs(invocations: list, directory: Path) -> list:
    """Write each config to ``directory/<name>.json``; the ``(command, path)`` pairs."""
    directory.mkdir(parents=True, exist_ok=True)
    config_paths = []
    for command, cfg in invocations:
        path = directory / f"{cfg['name']}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        config_paths.append((command, str(path)))
    return config_paths


def run_invocations(main, config_paths: list, out) -> list:
    """Call the front end ``main`` once per ``(command, path)``; the exit codes.

    ``main`` is ``emnav.cli.main`` (or a wrapper around it); every invocation
    writes its artifacts into ``out``, as ``emnav COMMAND --config PATH --out
    OUT`` would.
    """
    return [main([command, "--config", path, "--out", str(out)])
            for command, path in config_paths]
