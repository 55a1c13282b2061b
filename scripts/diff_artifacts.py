#!/usr/bin/env python3
"""Compare the bundled configs' artifacts between a base commit and this tree.

    python3 scripts/diff_artifacts.py [--base HEAD]

The base commit is extracted with ``scripts/bench.py``'s ``_extract``
(local, nothing is fetched); the change is the checkout holding this script,
uncommitted edits included.  Each tree runs its own ``scenarios/*.json``,
then the ``VARIANTS`` below, through ``python3 -m emnav <kind>`` into a
temporary directory, and every artifact is compared byte for byte.  The
variants are runs of 2 s or less of bundled configs with the features no
bundled scenario runs: impulses (two on one tick, and on beta), overlapping
``torque_bias`` windows, ``measurement_tilt``, an off-grid ``release_time``,
two integral windows, ``loop_latency``, ``measurement_noise_std``, an
actuator-only agent beside a pendulum agent, the two-step torque solve (on
octomag8, and at 125 Hz on navion3), ``include_force: false``, a 70 Hz
loop (three plant steps per tick, whose sum rounds off the period), a
polarity -1 agent (under field alignment and one-step torque) and a null
``controller`` (on a pendulum and an actuator-only agent); two
workspace maps whose pseudoinverses take the SVD fallback of
``magmodel.pinv_rank`` (a second agent on a grid point, and tall two-agent
stacks on three coils); a workspace cube, 9^3 points on navion3, whose
lattice varies on all three axes (the bundled maps are a line and a
plane); a workspace config of one task, the torque box alone; a
single-agent octomag8 cube of 9^3 points around the centre with both
tasks, whose fixed-field stacks are the square 8 x 8 [b; g] rows that
``pinv_rank`` inverts directly (no bundled map runs them); and a
two-agent run whose plant diverges, which exits 2 with a trace cut at the
failing tick.  They are written once, from this checkout's configs, and both
trees run the same files.  A loop that holds a coil at the current limit
on most ticks amplifies rounding past any trace bound, so the variants
reach the limit on a few ticks at most.  For each variant and tree the number of ticks on which
a commanded coil current reaches the limit is printed, from one more run of
each simulate variant in that tree (the trace CSV holds the lagged applied
currents, not the commands).

For each CSV or JSON artifact that differs, the largest deviation of its
numbers is printed with the path of the number that holds it (a CSV's row
and column), and for a trace CSV the largest deviation in its angle columns
(alpha, beta, phi, theta).

The exit status follows the "same behaviour" contract.  It is 1 if an angle
deviates by more than 1e-8 rad, if a config exits with another code on the
two trees, if an artifact is written by one tree only, or if two artifacts
differ in more than the values of finite numbers: a key, a length, a column,
a string, a non-finite number or a ``failure`` record against null.  Else it
is 0: other numeric deviations are reported and decide nothing.  Uses only
the standard library; the saturation count runs each tree's own ``emnav``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench import REPO, _env, _extract

ANGLE_TOL = 1e-8  # rad
ANGLES = ("alpha", "beta", "phi", "theta")
_MISSING = object()  # a path that one document lacks

#: name: (bundled config, top-level keys to set, per-agent keys to set).
VARIANTS = {
    # The 5 deg catch and the two tilt steps (a step in a measured angle
    # kicks its rate estimate) command the limit on 12 of the 300 ticks.
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
    # The two agents sit 65 mm apart, so their joint allocation needs large
    # currents: with the bundled weights (r_weight 25), one tick of latency
    # and this noise hold a coil at the limit on most ticks.  At r_weight
    # 2500 and a 0.02 rad catch the commands peak near 11 of 16 A.
    "variant_multi_latency_noise": ("multi_torque_async", {
        "duration": 2.0,
        "emns": {"control_rate": 200.0, "current_limit": 16.0,
                 "current_bandwidth": 26.4, "loop_latency": 0.005},
        "measurement_noise_std": 3e-5,
        "disturbances": [
            {"type": "impulse", "time": 1.0, "agent": 1, "channel": "beta",
             "magnitude": 0.02},
            {"type": "impulse", "time": 1.0, "agent": 0, "magnitude": -0.02},
            {"type": "torque_bias", "time": 0.4, "duration": 1.0, "agent": 1,
             "magnitude": 1e-4},
        ],
    }, [
        {"initial": {"alpha": 0.02},
         "integral_windows": [[0.2, 0.9], [1.2, 1.9]],
         "controller": {"q_diag": [20.0, 40.0, 1.0, 1.0], "r_weight": 2500.0,
                        "k_i": -1.0, "integral_enabled": True,
                        "anti_windup_limit": 0.05}},
        {"release_time": 0.3333, "pendulum_attached": False,
         "controller": {"q_diag": [20.0, 1.0], "r_weight": 2500.0}},
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
    # The allocator branches no bundled scenario takes: the two-step solve
    # and the lever-0 one-step rows.  The 5 deg catch commands the limit on
    # 4 of the 400 ticks.
    "variant_torque_two_step": ("single_torque", {
        "duration": 2.0, "strategy": "torque_two_step"}, [{}]),
    # A 1e200 rad/s kick on agent 1 at 0.1 s: its plant diverges and the run
    # exits 2 at tick 20, its trace cut to 21 ticks (42 rows).
    "variant_multi_diverges": ("multi_torque_inphase", {
        "duration": 0.5,
        "disturbances": [{"type": "impulse", "time": 0.1, "agent": 1,
                          "magnitude": 1e200}],
    }, []),
    "variant_torque_no_force": ("single_torque", {
        "duration": 2.0, "include_force": False}, [{}]),
    # A polarity -1 magnet, which no bundled scenario carries: the field
    # allocator inverts its commanded direction, and the torque rows and
    # the plant take the signed dipole.  A catch tilted on both channels
    # peaks near 15.4 A (field) and 15.2 A (torque) of 16 A.
    "variant_field_polarity": ("single_field", {"duration": 2.0}, [
        {"polarity": -1, "initial": {"alpha": 0.03, "beta": -0.02}}]),
    "variant_torque_polarity": ("single_torque", {"duration": 2.0}, [
        {"polarity": -1, "initial": {"alpha": 0.03, "beta": -0.02}}]),
    # The navion3 stand-off line at 0.12 m under the two-step solve, with
    # the stand-off workspace's plant: 125 Hz, two plant steps per tick.  It
    # commands the limit on 1 of the 250 ticks.
    "variant_navion_two_step": ("single_torque", {
        "duration": 2.0, "strategy": "torque_two_step", "model": "navion3",
        "emns": "navion", "plant": {"dipole_magnitude": 2.0, "magnet_offset": 0.02},
    }, [{"position": [0.0, 0.0, 0.12]}]),
    # A 70 Hz loop, three plant steps of h / 3 per tick, where 3 (h / 3)
    # rounds below h: the driver lag's decay over the tick, read off the
    # grid's last stage time, is then one ulp off exp(-omega h) at the
    # 24.5 Hz bandwidth (not at 26.4 Hz, where the product rounds alike).
    # A 0.03 rad catch peaks near 13.7 of 16 A.
    "variant_field_70hz": ("single_field", {
        "duration": 2.0,
        "emns": {"control_rate": 70.0, "current_limit": 16.0,
                 "current_bandwidth": 24.5},
    }, [{"initial": {"alpha": 0.03}}]),
    # A null controller, which no bundled config writes: each layout's
    # default weights (r_weight 1).  Under field alignment they reach the
    # limit on none of the 400 ticks; the torque paradigm's default holds a
    # coil at the limit on 61-133 of 400 ticks even at a 0.001 rad tilt.
    "variant_default_controller_field": ("single_field", {"duration": 2.0}, [
        {"controller": None, "initial": {"alpha": 0.02}}]),
    "variant_default_controller_actuator": ("disturb_field_p_only", {
        "duration": 2.0}, [{"controller": None}]),
    # The second agent on the grid point (0.03, 0, 0): one singular torque
    # point of 289, its block mixing certified and uncertified entries.
    "variant_workspace_on_point": ("workspace_octomag_2agent", {
        "second_agent": [0.03, 0.0, 0.0]}, []),
    # Two agents' four torque rows on three coils: tall 4 x 3 stacks, every
    # point singular.
    "variant_workspace_tall": ("workspace_navion_standoff", {
        "second_agent": [0.0, 0.0, 0.2]}, []),
    # A 4 cm cube at 5 mm across the stand-off boundary: 729 points, every
    # coordinate column varying, 652 torque-feasible and 100 field-feasible.
    "variant_workspace_cube": ("workspace_navion_standoff", {
        "grid": {"x": [-0.02, 0.02], "y": [-0.02, 0.02], "z": [0.1, 0.14],
                 "spacing": 0.005}}, []),
    # The torque box alone: a config of one task (the bundled ones hold
    # both), its 30 one-agent 2 x 2 Gram matrices inverted in closed form.
    "variant_workspace_torque_only": ("workspace_navion_standoff", {
        "tasks": {"torque-box": {"tau_bar": 0.01}}}, []),
    # One agent on octomag8, a 4 cm cube at 5 mm around the array centre:
    # 729 points, every fixed-field stack the square 8 x 8 [b; g] rows that
    # ``pinv_rank`` inverts directly (the bundled maps stack two agents or
    # run on navion3's 3 x 3 field rows).
    "variant_workspace_octomag_cube": ("workspace_octomag_2agent", {
        "second_agent": None,
        "grid": {"x": [-0.02, 0.02], "y": [-0.02, 0.02], "z": [-0.02, 0.02],
                 "spacing": 0.005}}, []),
}

#: Run with a simulate config's path: prints the number of ticks on which a
#: commanded coil current reaches the current limit, and the tick count.
_COUNT_SATURATED = """\
import json, sys
import numpy as np
from emnav.sim import run_scenario, scenario_from_dict
scenario = scenario_from_dict(json.loads(open(sys.argv[1]).read()))
trace = run_scenario(scenario)
at_limit = np.abs(trace.currents_cmd) >= scenario.emns.current_limit
print(int(np.count_nonzero(at_limit.any(axis=1))), len(trace.t))
"""


def _write_variants(out: Path) -> list:
    """Write ``VARIANTS`` into ``out`` from this checkout's bundled configs."""
    out.mkdir()
    paths = []
    for name, (base, top, per_agent) in VARIANTS.items():
        config = json.loads((REPO / "scenarios" / f"{base}.json").read_text())
        config.update(top, name=name)
        for agent, keys in zip(config.get("agents", []), per_agent):
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


def _saturated_ticks(tree: Path, config: Path) -> str:
    """"<saturated> of <ticks>" for a simulate config run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "-c", _COUNT_SATURATED, str(config)],
        cwd=tree, env=_env(tree), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return "? (the count exited with a failure)"
    return " of ".join(proc.stdout.split())


def _read(path: Path):
    """A JSON artifact's document, or a CSV artifact's rows as dicts by
    column with every number as a float."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as f:
        return [{name: _number(text) for name, text in row.items()}
                for row in csv.DictReader(f)]


def _number(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return text


def _leaves(doc, path: str = "") -> dict:
    """Every scalar of a JSON document (or a CSV's rows) by its path."""
    if isinstance(doc, dict) and doc:
        pairs = [(f"{path}.{key}", value) for key, value in doc.items()]
    elif isinstance(doc, list) and doc:
        pairs = [(f"{path}[{i}]", value) for i, value in enumerate(doc)]
    else:
        return {path: doc}
    leaves = {}
    for sub, value in pairs:
        leaves.update(_leaves(value, sub))
    return leaves


def _is_nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


def _finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _compare(base, change) -> tuple[dict, str | None]:
    """|change - base| by path, for every path that holds a finite number in
    both documents, and the first path where they differ otherwise (a key,
    a length, a type, a non-number value or a non-finite number), or
    None."""
    leaves_b, leaves_c = _leaves(base), _leaves(change)
    deviations, other = {}, None
    for path in {**leaves_b, **leaves_c}:
        vb, vc = leaves_b.get(path, _MISSING), leaves_c.get(path, _MISSING)
        if _finite(vb) and _finite(vc):
            deviations[path] = abs(vc - vb)
        elif other is None and (type(vb) is not type(vc) or (
                vb != vc and not (_is_nan(vb) and _is_nan(vc)))):
            other = path
    return deviations, other


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
        for config in variants:
            if json.loads(config.read_text()).get("kind", "simulate") != "simulate":
                continue
            counts = {side: _saturated_ticks(tree, config)
                      for side, tree in trees.items()}
            print(f"{config.stem}: a coil at the current limit on "
                  f"{counts['change']} ticks (base {counts['base']})")
        failed = []
        for config in sorted(set(codes["base"]) | set(codes["change"])):
            code_b, code_c = codes["base"].get(config), codes["change"].get(config)
            if code_b != code_c:
                failed.append(config)
                print(f"{config}: exit {code_b} on base, {code_c} on change")
        identical = 0
        for name in names:
            base, change = tmp / "out_base" / name, tmp / "out_change" / name
            if not (base.exists() and change.exists()):
                failed.append(name)
                side = "base" if base.exists() else "change"
                print(f"{name}: written by {side} only")
                continue
            if base.read_bytes() == change.read_bytes():
                identical += 1
                print(f"{name}: byte-identical")
                continue
            if base.suffix not in (".csv", ".json"):
                failed.append(name)
                print(f"{name}: differs")
                continue
            deviations, other = _compare(_read(base), _read(change))
            notes = []
            angles = [value for path, value in deviations.items()
                      if path.rsplit(".", 1)[-1] in ANGLES]
            if base.suffix == ".csv" and angles:  # a trace
                notes.append(f"largest angle deviation {max(angles):.3g} rad")
                if max(angles) > ANGLE_TOL:
                    failed.append(name)
            if deviations:
                worst = max(deviations, key=deviations.get)
                notes.append(f"largest number deviation {deviations[worst]:.3g} "
                             f"({worst})")
            if other is not None:
                failed.append(name)
                notes.append(f"differs beyond its numbers at {other}")
            print(f"{name}: differs, " + "; ".join(notes))
        print(f"{identical} of {len(names)} artifacts of "
              f"{len(codes['change'])} configs byte-identical")
        if failed:
            print(f"not the same behaviour: {', '.join(dict.fromkeys(failed))}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
