#!/usr/bin/env python3
"""The paper's comparison in one report, read back from ``emnav`` artifacts.

    python3 scripts/compare.py [--out results/compare]

Each section runs ``emnav`` commands into --out and prints what they wrote:
scenarios (every bundled simulate config; ``wall[s]`` is the command's wall
time, ``rtf`` simulated seconds per wall second), workspace (torque box
against fixed field), alloc-bench (one-step against two-step allocation) and
robustness (latency and noise variants of ``single_torque``, written as
configs into --out; reported, not asserted).  Exits with the largest exit
code among the bundled configs.
"""

import argparse
import csv
import json
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from emnav.cli import main as emnav_main  # noqa: E402

SCENARIOS = REPO / "scenarios"
WORKSPACES = ("workspace_octomag_2agent", "workspace_navion_standoff")
ROBUSTNESS_BASE = SCENARIOS / "single_torque.json"
CONTROL_RATE = 200.0
NOISE_SEED = 12345


def _read(path: Path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh)) if path.suffix == ".csv" else json.load(fh)


def emnav(command: str, config: Path, out: Path, *artifacts: str):
    """Run ``emnav <command> --config <config> --out <out>``; returns the exit
    code, the wall seconds and each named artifact read back from ``out``
    (CSV rows or a JSON document; None if the command did not write it)."""
    paths = [out / name for name in artifacts]
    for path in paths:
        path.unlink(missing_ok=True)
    start = time.perf_counter()
    code = emnav_main([command, "--config", str(config), "--out", str(out)])
    wall = time.perf_counter() - start
    return code, wall, [_read(p) if p.exists() else None for p in paths]


def scenarios(out: Path) -> int:
    header = (f"{'scenario':<26} {'ticks':>6} {'settle[s]':>10} {'rms[rad]':>10} "
              f"{'max|i|[A]':>10} {'steady|i|':>10} {'wall[s]':>8} {'rtf':>6}")
    print(header, "-" * len(header), sep="\n")
    worst = 0
    for path in sorted(SCENARIOS.glob("*.json")):
        data = json.loads(path.read_text())
        if data.get("kind", "simulate") != "simulate":
            continue
        name = data.get("name", "scenario")
        code, wall, (summary,) = emnav("simulate", path, out, f"{name}_summary.json")
        worst = max(worst, code)
        if summary is None:
            print(f"{path.stem:<26} exit {code}, no summary")
            continue
        metrics = summary["metrics"]
        settle = ",".join("-" if s is None else f"{s:.2f}"
                          for s in metrics["settling_time"])
        rms = ",".join(f"{r:.4f}" for r in metrics["rms_tracking_last_quarter"])
        print(f"{summary['scenario']:<26} {summary['ticks']:>6} {settle:>10} "
              f"{rms:>10} {metrics['max_current']:>10.3f} "
              f"{metrics['steady_max_current']:>10.2e} {wall:>8.2f} "
              f"{summary['duration'] / wall:>6.2f}"
              f"{' FAILED' if summary['failure'] else ''}")
    return worst


def workspace(out: Path) -> int:
    worst = 0
    for name in WORKSPACES:
        code, _, (comparison,) = emnav(
            "workspace", SCENARIOS / f"{name}.json", out, f"{name}_comparison.json")
        worst = max(worst, code)
        if comparison is None:
            print(f"{name}: exit {code}, no comparison")
            continue
        counts, standoff = comparison["feasible_count"], comparison["max_standoff"]
        print(f"{name}:")
        print(f"  feasible points  torque {counts['torque']}  field {counts['field']}")
        print(f"  max stand-off z  torque {standoff['torque']['z']}  "
              f"field {standoff['field']['z']}")
        print(f"  field set contained in torque set: "
              f"{comparison['field_contained_in_torque']}")
    return worst


def alloc_bench(out: Path) -> int:
    code, _, (rows, summary) = emnav("alloc-bench", SCENARIOS / "alloc_bench.json",
                                     out, "alloc_bench.csv", "alloc_bench_summary.json")
    if rows is None or summary is None:
        print(f"alloc_bench: exit {code}, no table")
        return code
    ratios = [float(r["norm_i_two_step"]) / float(r["norm_i_one_step"]) for r in rows]
    one_angles = [float(r["angle_one_step_deg"]) for r in rows]
    two_angles = [float(r["angle_two_step_deg"]) for r in rows]
    zetas = [abs(float(r["zeta_star"])) for r in rows]
    print(f"samples: {len(rows)}   ordering violations: {summary['violation_count']}")
    print(f"two-step / one-step current-norm ratio: "
          f"median {statistics.median(ratios):.4f}, max {max(ratios):.4f}")
    print(f"field-dipole angle [deg]: one-step "
          f"{min(one_angles):.3f}..{max(one_angles):.3f}, two-step "
          f"{min(two_angles):.6f}..{max(two_angles):.6f}")
    print(f"|zeta*|: median {statistics.median(zetas):.2e}, max {max(zetas):.2e}")
    return code


def outcome(data: dict, out: Path) -> str:
    """Write the simulate config ``data`` into ``out`` as ``<name>.json``,
    run it through ``emnav simulate`` and judge it from its summary: agent
    0's settling time, and the largest angle of every agent and channel."""
    config = out / f"{data['name']}.json"
    config.write_text(json.dumps(data, indent=2))
    code, _, (summary,) = emnav("simulate", config, out, f"{data['name']}_summary.json")
    if summary is None:
        return f"exit {code}, no summary"
    failure = summary["failure"]
    if failure is not None:
        where = f" (agent {failure['agent']})" if "agent" in failure else ""
        return f"{failure['stage']} failure{where} at t={failure['time']:.2f}s"
    max_angle = summary["metrics"]["max_abs_angle"]
    settle = summary["metrics"]["settling_time"][0]
    if settle is not None:
        return f"settles at {settle:.2f}s (max |angle| {max_angle:.3f} rad)"
    if max_angle < 0.5:
        return f"bounded, not settled (max |angle| {max_angle:.3f} rad)"
    return f"diverges (max |angle| {max_angle:.1f} rad)"


def robustness(out: Path) -> int:
    base = json.loads(ROBUSTNESS_BASE.read_text())
    print("loop latency (extra whole control ticks):")
    for ticks in (0, 1, 2, 4):
        emns = {"control_rate": CONTROL_RATE, "current_limit": 16.0,
                "current_bandwidth": 26.4, "loop_latency": ticks / CONTROL_RATE}
        data = {**base, "name": f"{base['name']}_latency_{ticks}", "emns": emns}
        print(f"  {ticks} ticks: {outcome(data, out)}")
    print("measurement noise (Gaussian angle noise, std in rad):")
    for std in (0.0, 1e-5, 1e-4, 1e-3):
        data = {**base, "name": f"{base['name']}_noise_{std:g}",
                "measurement_noise_std": std, "seed": NOISE_SEED}
        print(f"  std={std:g}: {outcome(data, out)}")
    return 0  # variants characterize the controller; their exit codes decide nothing


SECTIONS = {"scenarios": scenarios, "workspace": workspace,
            "alloc-bench": alloc_bench, "robustness": robustness}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=REPO / "results" / "compare")
    out = parser.parse_args().out
    out.mkdir(parents=True, exist_ok=True)
    worst = 0
    for i, (title, section) in enumerate(SECTIONS.items()):
        print(f"\n== {title} ==" if i else f"== {title} ==")
        worst = max(worst, section(out))
    print(f"artifacts in {out}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
