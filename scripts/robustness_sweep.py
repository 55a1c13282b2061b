#!/usr/bin/env python3
"""Sweep loop latency and measurement noise on the single-agent scenario.

The baseline controller uses raw backward-difference velocity estimates, so
its margins against extra loop delay and angle noise are finite; this sweep
reports where stabilization degrades or fails.  Outcomes are reported, not
asserted: they characterize the controller, they are not contract.
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import numpy as np  # noqa: E402

from emnav.sim import run_scenario, scenario_from_dict  # noqa: E402


def outcome(data: dict) -> str:
    trace = run_scenario(scenario_from_dict(data))
    failure = trace.failure
    if failure is not None:
        where = f" (agent {failure['agent']})" if "agent" in failure else ""
        return f"{failure['stage']} failure{where} at t={failure['time']:.2f}s"
    max_alpha = float(np.max(np.abs(trace.alpha)))
    settle = trace.summary["metrics"]["settling_time"][0]
    if settle is not None:
        return f"settles at {settle:.2f}s (max |alpha| {max_alpha:.3f} rad)"
    if max_alpha < 0.5:
        return f"bounded, not settled (max |alpha| {max_alpha:.3f} rad)"
    return f"diverges (max |alpha| {max_alpha:.1f} rad)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario", type=Path,
        default=REPO / "scenarios" / "single_torque.json",
    )
    args = parser.parse_args()
    base = json.loads(args.scenario.read_text())
    rate = 200.0

    print("loop latency (extra whole control ticks):")
    for ticks in (0, 1, 2, 4):
        data = json.loads(json.dumps(base))
        data["emns"] = {
            "control_rate": rate, "current_limit": 16.0,
            "current_bandwidth": 26.4, "loop_latency": ticks / rate,
        }
        print(f"  {ticks} ticks: {outcome(data)}")

    print("measurement noise (Gaussian angle noise, std in rad):")
    for std in (0.0, 1e-5, 1e-4, 1e-3):
        data = json.loads(json.dumps(base))
        data["measurement_noise_std"] = std
        data["seed"] = 12345
        print(f"  std={std:g}: {outcome(data)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
