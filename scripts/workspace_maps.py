#!/usr/bin/env python3
"""Generate the bundled feasibility-margin maps and print the comparisons.

Covers the two-agent planar maps on the 8-coil array (torque box vs fixed
field) and the stand-off sweep on the 3-coil array.  Each map runs through
``emnav workspace``, which writes its CSV and JSON artifacts into --out; the
comparisons printed to stdout are read back from them.
"""

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from emnav.cli import main as emnav_main  # noqa: E402

CONFIGS = ("workspace_octomag_2agent", "workspace_navion_standoff")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=REPO / "results" / "workspace")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    for name in CONFIGS:
        config = REPO / "scenarios" / f"{name}.json"
        code = emnav_main(
            ["workspace", "--config", str(config), "--out", str(args.out)]
        )
        if code != 0:
            return code
        comparison = json.loads((args.out / f"{name}_comparison.json").read_text())
        counts = comparison["feasible_count"]
        standoff = comparison["max_standoff"]
        print(f"{name}:")
        print(
            f"  feasible points  torque {counts['torque']}  field {counts['field']}"
        )
        print(
            f"  max stand-off z  torque {standoff['torque']['z']}  "
            f"field {standoff['field']['z']}"
        )
        print(
            f"  field set contained in torque set: "
            f"{comparison['field_contained_in_torque']}"
        )
    print(f"\nartifacts in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
