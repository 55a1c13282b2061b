#!/usr/bin/env python3
"""Run every bundled simulation scenario and tabulate the outcomes.

Each scenario runs through ``emnav simulate``, which writes its trace CSV and
summary JSON into --out; the table printed to stdout is read back from the
summaries.  ``wall[s]`` is the wall time of the whole command (synthesis,
simulation and export) and ``rtf`` the real-time factor, simulated seconds
per wall second.
"""

import argparse
import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from emnav.cli import main as emnav_main  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=REPO / "results" / "scenarios")
    parser.add_argument(
        "--scenario-dir", type=Path, default=REPO / "scenarios",
        help="directory holding the scenario JSON files",
    )
    args = parser.parse_args()

    header = (
        f"{'scenario':<26} {'ticks':>6} {'settle[s]':>10} {'rms[rad]':>10} "
        f"{'max|i|[A]':>10} {'steady|i|':>10} {'wall[s]':>8} {'rtf':>6}"
    )
    print(header)
    print("-" * len(header))
    worst = 0
    for path in sorted(args.scenario_dir.glob("*.json")):
        data = json.loads(path.read_text())
        if data.get("kind", "simulate") != "simulate":
            continue
        summary_path = args.out / f"{data.get('name', 'scenario')}_summary.json"
        summary_path.unlink(missing_ok=True)
        start = time.perf_counter()
        code = emnav_main(["simulate", "--config", str(path), "--out", str(args.out)])
        wall = time.perf_counter() - start
        worst = max(worst, code)
        if not summary_path.exists():
            print(f"{path.stem:<26} exit {code}, no summary")
            continue
        summary = json.loads(summary_path.read_text())
        metrics = summary["metrics"]
        settle = metrics["settling_time"]
        settle_txt = ",".join("-" if s is None else f"{s:.2f}" for s in settle)
        rms_txt = ",".join(f"{r:.4f}" for r in metrics["rms_tracking_last_quarter"])
        status = " FAILED" if summary["failure"] else ""
        rtf = summary["duration"] / wall
        print(
            f"{summary['scenario']:<26} {summary['ticks']:>6} {settle_txt:>10} "
            f"{rms_txt:>10} {metrics['max_current']:>10.3f} "
            f"{metrics['steady_max_current']:>10.2e} {wall:>8.2f} "
            f"{rtf:>6.2f}{status}"
        )
    print(f"\nartifacts in {args.out}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
