#!/usr/bin/env python3
"""Benchmark the working tree against a base commit in alternating pairs.

    python3 scripts/bench.py --out BENCH.json [--base HEAD] [--pairs 10]
        [--seed 7] [--workloads sim_multi_torque,alloc_sweep]

The base commit is extracted with ``git archive`` into a temporary directory
(local, nothing is fetched); the change is the checkout holding this script,
uncommitted edits included.  Each pair runs ``perfbench/run.py`` of both
trees on one workload and seed, the base first in even pairs and the change
first in odd ones, for the run length BENCHMARK.json declares.

The output file holds, per workload and for every end-to-end metric of
BENCHMARK.json, each side's runs with their median, minimum and quartiles,
the number of pairs the change won (ties count for neither side), whether
that is a gain (wins in at least nine tenths of the pairs and a median gap
wider than the base's interquartile range) and whether the change's median
stays within the metric's bound; the ``failed`` count of every run; and, for
both sides, the Tier-1 wall time and the line count of ``src/``.  Uses only
the standard library.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def _extract(rev: str, dest: Path) -> str:
    """Write the tree of ``rev`` into ``dest``; returns its commit hash."""
    sha = subprocess.run(
        ["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", "--format=tar", sha],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return sha


def _src_lines(tree: Path) -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((tree / "src").rglob("*.py")))


def _env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _tier1(tree: Path) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=_env(tree), capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": round(wall, 2), "exit_code": proc.returncode,
            "result": lines[-1] if lines else ""}


def _perfbench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run: its last JSON line, or the failure."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "metrics": {},
                "error": proc.stderr.strip()[-500:]}
    return json.loads(lines[-1])


def _stats(values: list) -> dict:
    out = {"runs": values}
    values = [v for v in values if v is not None]
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out.update(median=q2, min=min(values), q1=q1, q3=q3, iqr=q3 - q1)
    elif values:
        out.update(median=values[0], min=values[0], q1=values[0], q3=values[0],
                   iqr=0.0)
    return out


def _compare(metric: dict, base_runs: list, change_runs: list) -> dict:
    """Both sides' statistics, the change's wins and the two verdicts."""
    lower = metric["better"] == "lower"
    wins = sum(
        1 for b, c in zip(base_runs, change_runs)
        if b is not None and c is not None and (c < b if lower else c > b)
    )
    base, change = _stats(base_runs), _stats(change_runs)
    row = {"unit": metric["unit"], "better": metric["better"],
           "bound": metric["bound"], "base": base, "change": change,
           "wins": wins, "pairs": len(base_runs)}
    if "median" in base and "median" in change:
        gap = base["median"] - change["median"]
        if not lower:
            gap = -gap
        row["change_over_base"] = change["median"] / base["median"]
        row["gain"] = wins >= 0.9 * len(base_runs) and gap > base["iqr"]
        worse = -gap / abs(base["median"])
        row["within_bound"] = worse <= metric["bound"]
    return row


def main(argv=None) -> int:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = sorted(set(workloads) - set(names))
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {unknown}" if unknown else "--pairs < 1")
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="emnav-bench-") as tmp:
        base_tree = Path(tmp) / "base"
        sha = _extract(args.base, base_tree)
        trees = {"base": base_tree, "change": REPO}
        report = {
            "base": f"{args.base} = {sha}",
            "change": f"working tree of {REPO.name}",
            "seed": args.seed,
            "pairs": args.pairs,
            "seconds": seconds,
            "src_lines": {side: _src_lines(t) for side, t in trees.items()},
            "workloads": {},
        }
        for workload in workloads:
            runs = {"base": [], "change": []}
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    result = _perfbench(trees[side], workload, args.seed, seconds)
                    runs[side].append(result)
                    value = result["metrics"].get("wall_ref_s", {}).get("value")
                    print(f"{workload} pair {pair} {side}: wall_ref_s={value} "
                          f"failed={result['failed']}", file=sys.stderr)
            report["workloads"][workload] = {
                "failed": {s: [r["failed"] for r in rs] for s, rs in runs.items()},
                "correct": {s: all(r["correct"] for r in rs)
                            for s, rs in runs.items()},
                "metrics": {
                    m["name"]: _compare(m, *[
                        [r["metrics"].get(m["name"], {}).get("value")
                         for r in runs[s]] for s in ("base", "change")])
                    for m in spec["end_to_end"]
                },
            }
        report["tier1"] = {side: _tier1(t) for side, t in trees.items()}

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for workload, row in report["workloads"].items():
        for name, m in row["metrics"].items():
            print(f"{workload} {name}: {m['base'].get('median')} -> "
                  f"{m['change'].get('median')} {m['unit']}, "
                  f"{m['wins']}/{m['pairs']} wins, gain={m.get('gain')}, "
                  f"within_bound={m.get('within_bound')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
