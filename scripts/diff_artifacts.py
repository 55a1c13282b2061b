#!/usr/bin/env python3
"""Compare the artifacts of every bundled config between a base commit and
this tree.

    python3 scripts/diff_artifacts.py [--base HEAD]

The base commit is extracted with ``scripts/bench.py``'s ``_extract`` (local,
nothing is fetched); the change is the checkout holding this script,
uncommitted edits included.  Each tree runs its own ``scenarios/*.json``
through ``python3 -m emnav <kind>`` into a temporary directory, and every
artifact is compared byte for byte.  For each trace CSV that differs, the
largest deviation in its angle columns (alpha, beta, phi, theta) is printed.

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


def _run_configs(tree: Path, out: Path) -> dict:
    """Run every bundled config of ``tree`` into ``out``; exit code by name."""
    out.mkdir()
    codes = {}
    for config in sorted((tree / "scenarios").glob("*.json")):
        kind = json.loads(config.read_text()).get("kind", "simulate")
        codes[config.name] = subprocess.run(
            [sys.executable, "-m", "emnav", kind.replace("_", "-"),
             "--config", str(config), "--out", str(out)],
            cwd=tree, env=_env(tree), capture_output=True,
        ).returncode
    return codes


def _angle_deviation(base: Path, change: Path) -> float | None:
    """Largest |change - base| over the angle columns of a trace CSV, inf on
    a shape mismatch; None if the file is not a trace CSV."""
    with open(base, newline="") as fb, open(change, newline="") as fc:
        rows_b, rows_c = list(csv.reader(fb)), list(csv.reader(fc))
    if not rows_b or not set(ANGLES) <= set(rows_b[0]):
        return None
    if rows_b[0] != rows_c[0] or len(rows_b) != len(rows_c):
        return float("inf")
    cols = [rows_b[0].index(name) for name in ANGLES]
    return max(
        (abs(float(rc[j]) - float(rb[j]))
         for rb, rc in zip(rows_b[1:], rows_c[1:]) for j in cols),
        default=0.0,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="emnav-diff-") as tmp:
        tmp = Path(tmp)
        sha = _extract(args.base, tmp / "base")
        trees = {"base": tmp / "base", "change": REPO}
        codes = {side: _run_configs(tree, tmp / f"out_{side}")
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
            else:
                deviation = (_angle_deviation(base, change)
                             if name.endswith(".csv") else None)
                if deviation is None:
                    ok = False
                    print(f"{name}: differs")
                else:
                    ok = ok and deviation <= ANGLE_TOL
                    print(f"{name}: differs, largest angle deviation "
                          f"{deviation:.3g} rad")
        print(f"{identical} of {len(names)} artifacts of "
              f"{len(codes['change'])} configs byte-identical")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
