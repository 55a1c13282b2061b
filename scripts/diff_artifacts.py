#!/usr/bin/env python3
"""Compare the bundled configs' artifacts between a base commit and this tree.

    python3 scripts/diff_artifacts.py [--base HEAD]

The base commit is extracted with ``scripts/bench.py``'s ``_extract`` (local,
nothing is fetched); the change is the checkout holding this script,
uncommitted edits included.  Each tree runs its own ``scenarios/*.json``,
then the ``VARIANTS`` below, through ``python3 -m emnav <kind>`` into a
temporary directory, and every artifact is compared byte for byte.  The
variants are runs of 2 s or less of bundled configs with the features no
bundled scenario runs: impulses (two on one tick, and on beta), overlapping
``torque_bias`` windows, ``measurement_tilt``, an off-grid
``release_time``, two integral windows, ``loop_latency``,
``measurement_noise_std`` and an actuator-only agent beside a pendulum
agent.  They are written once, from this checkout's configs, and both trees
run the same files.  For each trace CSV that differs, the largest deviation
in its angle columns (alpha, beta, phi, theta) is printed, then the largest
in its other columns (currents, tau, b) with that column's name; for each
JSON artifact that differs, the largest deviation of its numbers with its
path.

Exits 1 if an angle deviates by more than 1e-8 rad, if any other artifact
differs or is written by one tree only, or if a config exits with another
code on the two trees; else 0.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench import REPO, _env, _extract

ANGLE_TOL = 1e-8  # rad
ANGLES = ("alpha", "beta", "phi", "theta")

#: name: (bundled config, top-level keys to set, per-agent keys to set).
VARIANTS = {
    "variant_torque_events": ("single_torque", {
        "duration": 1.5,
        "disturbances": [
            {"type": "impulse", "time": 0.5, "magnitude": 0.05},
            {"type": "impulse", "time": 0.5, "channel": "beta", "magnitude": -0.03},
            {"type": "impulse", "time": 0.9, "channel": "beta", "magnitude": 0.02},
            {"type": "torque_bias", "time": 0.2, "duration": 0.6, "magnitude": 2e-4},
            {"type": "torque_bias", "time": 0.5, "magnitude": -1e-4},
            {"type": "torque_bias", "time": 0.3, "duration": 0.2,
             "channel": "beta", "magnitude": 1e-4},
            {"type": "measurement_tilt", "time": 0.7, "channel": "beta",
             "magnitude": 0.01},
            {"type": "measurement_tilt", "time": 1.1, "magnitude": -0.005},
        ],
    }, [{}]),
    "variant_multi_latency_noise": ("multi_torque_async", {
        "duration": 2.0,
        "emns": {"control_rate": 200.0, "current_limit": 16.0,
                 "current_bandwidth": 26.4, "loop_latency": 0.01},
        "measurement_noise_std": 1e-4,
        "disturbances": [
            {"type": "impulse", "time": 1.0, "agent": 1, "channel": "beta",
             "magnitude": 0.02},
            {"type": "impulse", "time": 1.0, "agent": 0, "magnitude": -0.02},
            {"type": "torque_bias", "time": 0.4, "duration": 1.0, "agent": 1,
             "magnitude": 1e-4},
        ],
    }, [
        {"integral_windows": [[0.2, 0.9], [1.2, 1.9]]},
        {"release_time": 0.3333, "pendulum_attached": False,
         "controller": {"q_diag": [20.0, 1.0], "r_weight": 25.0}},
    ]),
    "variant_field_actuator": ("disturb_field_integral", {
        "duration": 2.0,
        "disturbances": [
            {"type": "impulse", "time": 0.25, "channel": "beta", "magnitude": 0.1},
            {"type": "impulse", "time": 0.25, "magnitude": -0.05},
            {"type": "torque_bias", "time": 0.5, "magnitude": 5e-4},
            {"type": "torque_bias", "time": 0.75, "duration": 0.5,
             "magnitude": 5e-4},
            {"type": "measurement_tilt", "time": 1.3, "magnitude": 0.01},
        ],
    }, [{"integral_windows": [[0.6, 1.4], [1.5, 2.0]], "release_time": 0.1037}]),
}


def _write_variants(out: Path) -> list:
    """Write ``VARIANTS`` into ``out`` from this checkout's bundled configs."""
    out.mkdir()
    paths = []
    for name, (base, top, per_agent) in VARIANTS.items():
        config = json.loads((REPO / "scenarios" / f"{base}.json").read_text())
        config.update(top, name=name)
        for agent, keys in zip(config["agents"], per_agent):
            agent.update(keys)
        paths.append(out / f"{name}.json")
        paths[-1].write_text(json.dumps(config, indent=2))
    return paths


def _run_configs(tree: Path, out: Path, variants: list) -> dict:
    """Run every bundled config of ``tree``, then ``variants``, into ``out``;
    exit code by name."""
    out.mkdir()
    codes = {}
    for config in sorted((tree / "scenarios").glob("*.json")) + variants:
        kind = json.loads(config.read_text()).get("kind", "simulate")
        codes[config.name] = subprocess.run(
            [sys.executable, "-m", "emnav", kind.replace("_", "-"),
             "--config", str(config), "--out", str(out)],
            cwd=tree, env=_env(tree), capture_output=True,
        ).returncode
    return codes


def _trace_deviations(base: Path, change: Path):
    """Largest |change - base| over the angle columns (alpha, beta, phi,
    theta) of a trace CSV, and over the other columns with the name of the
    one that holds it; the angle deviation is inf on a shape mismatch.
    None if the file is not a trace CSV."""
    with open(base, newline="") as fb, open(change, newline="") as fc:
        rows_b, rows_c = list(csv.reader(fb)), list(csv.reader(fc))
    if not rows_b or not set(ANGLES) <= set(rows_b[0]):
        return None
    if rows_b[0] != rows_c[0] or len(rows_b) != len(rows_c):
        return float("inf"), float("inf"), "shape"
    worst = {name: 0.0 for name in rows_b[0]}
    for rb, rc in zip(rows_b[1:], rows_c[1:]):
        for name, vb, vc in zip(rows_b[0], rb, rc):
            worst[name] = max(worst[name], abs(float(vc) - float(vb)))
    other = max((name for name in worst if name not in ANGLES), key=worst.get)
    return max(worst[name] for name in ANGLES), worst[other], other


def _number_deviation(base, change, path="") -> tuple[float, str]:
    """Largest |change - base| over the numbers of two JSON documents and
    the path of the number that holds it; inf where they differ otherwise
    (keys, lengths, types or any non-number value)."""
    if (isinstance(base, dict) and isinstance(change, dict)
            and base.keys() == change.keys()):
        pairs = [(base[k], change[k], f"{path}.{k}") for k in base]
    elif (isinstance(base, list) and isinstance(change, list)
          and len(base) == len(change)):
        pairs = [(b, c, f"{path}[{i}]")
                 for i, (b, c) in enumerate(zip(base, change))]
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool)
             for v in (base, change)):
        return abs(change - base), path
    else:
        return (0.0 if base == change else float("inf")), path
    return max((_number_deviation(*pair) for pair in pairs), default=(0.0, path))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="emnav-diff-") as tmp:
        tmp = Path(tmp)
        sha = _extract(args.base, tmp / "base")
        trees = {"base": tmp / "base", "change": REPO}
        variants = _write_variants(tmp / "variants")
        codes = {side: _run_configs(tree, tmp / f"out_{side}", variants)
                 for side, tree in trees.items()}
        names = sorted(set(os.listdir(tmp / "out_base"))
                       | set(os.listdir(tmp / "out_change")))
        print(f"base {args.base} = {sha}; change = working tree of {REPO.name}")
        ok = True
        for config in sorted(set(codes["base"]) | set(codes["change"])):
            code_b, code_c = codes["base"].get(config), codes["change"].get(config)
            if code_b != code_c:
                ok = False
                print(f"{config}: exit {code_b} on base, {code_c} on change")
        identical = 0
        for name in names:
            base, change = tmp / "out_base" / name, tmp / "out_change" / name
            if not (base.exists() and change.exists()):
                ok = False
                side = "base" if base.exists() else "change"
                print(f"{name}: written by {side} only")
            elif base.read_bytes() == change.read_bytes():
                identical += 1
                print(f"{name}: byte-identical")
            elif name.endswith(".csv") and (
                    found := _trace_deviations(base, change)) is not None:
                angle, other, column = found
                ok = ok and angle <= ANGLE_TOL
                print(f"{name}: differs, largest angle deviation {angle:.3g} "
                      f"rad; other columns {other:.3g} ({column})")
            else:
                ok = False
                note = ""
                if name.endswith(".json"):
                    deviation, where = _number_deviation(
                        json.loads(base.read_text()), json.loads(change.read_text()))
                    note = f", largest number deviation {deviation:.3g} ({where})"
                print(f"{name}: differs{note}")
        print(f"{identical} of {len(names)} artifacts of "
              f"{len(codes['change'])} configs byte-identical")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
