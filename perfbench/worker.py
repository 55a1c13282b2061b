"""Runs one workload in a loop inside a single process; started by run.py.

The loop is closed with one client: a run starts when the previous one has
ended, until ``--seconds`` have passed (at least one run).  Each run calls
``emnav.cli.main`` once per invocation of the workload, exactly as the
``emnav`` command would, into a fresh output directory.  With ``--trace 1``
each untraced run is followed by a traced one, so the tracing overhead is
measured on the same machine state.  With ``--trace 0`` each run is timed
with a ``speed.SpeedSampler`` armed, so that its time can also be given at
the reference speed.  Output checks run after the timed loop
and write nothing into the timed runs.

Usage (run.py supplies the arguments and the pinned environment):

    python3 perfbench/worker.py --plan PLAN.json --result RESULT.json
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import checks
import workloads
from speed import SpeedSampler
from tracer import ROOT, Tracer

import emnav.cli  # noqa: E402  (PYTHONPATH points at the checkout's src/)


def _one_run(plan: dict, out: Path, tracer: Tracer | None,
             sampler: SpeedSampler | None) -> dict:
    main = emnav.cli.main
    if tracer is not None:
        tracer.reset()
        tracer.install()
        main = tracer.span(ROOT, main)
    codes, error = [], None
    gc.collect()
    if sampler is not None:
        sampler.start()
    start = time.perf_counter()
    try:
        codes = workloads.run_invocations(main, plan["invocations"], out)
    except Exception:  # a traceback from the program is a failed run
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    run = {"out": str(out), "wall_s": wall, "codes": codes, "error": error,
           "traced": tracer is not None}
    if sampler is not None:
        sampler.stop()
        run.update(wall_s=wall - sampler.spent_s,
                   ref_wall_s=sampler.at_reference(wall),
                   speed=sampler.speed(), speed_samples=len(sampler.durations))
    if tracer is not None:
        tracer.uninstall()
        run["layers"] = tracer.metrics()
        run["layers"]["trace.spans"] = len(tracer.spans)
        tracer.dump(Path(plan["spans_path"]))
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)
    plan = json.loads(args.plan.read_text())
    run_dir = Path(plan["run_dir"])
    tracer = Tracer() if plan["trace"] else None
    sampler = None if plan["trace"] else SpeedSampler()

    runs = []
    loop_start = time.perf_counter()
    while True:
        for t in ((None, tracer) if tracer is not None else (None,)):
            runs.append(_one_run(plan, run_dir / f"run{len(runs):03d}", t,
                                 sampler))
        if time.perf_counter() - loop_start >= plan["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    invocations = [(command, json.loads(Path(path).read_text()))
                   for command, path in plan["invocations"]]
    first_digest = None
    for k, run in enumerate(runs):
        out = Path(run["out"])
        check = checks.check_run(invocations, out, run["codes"])
        if run["error"] is not None:
            check.problems.append("traceback: " + run["error"].strip().splitlines()[-1])
        if not check.problems:
            run_digest = checks.digest(out)
            first_digest = first_digest or run_digest
            if run_digest != first_digest:
                check.problems.append("artifacts differ from the first run's")
            if k == 0 and plan["compare_reference"]:
                check.problems += checks.compare_reference(plan["workload"],
                                                           check.arrays)
        run.update(problems=check.problems, items=check.items,
                   sim_seconds=check.sim_seconds)
        if k == 0:
            run["artifact_bytes"] = sum(
                p.stat().st_size for p in out.rglob("*") if p.is_file())
        shutil.rmtree(out, ignore_errors=True)
    for run in runs:
        if "layers" in run:
            run["layers"]["cli.artifact_bytes"] = runs[0].get("artifact_bytes", 0)

    result = {
        "runs": runs,
        "peak_rss_mb": peak_rss_mb,
        "emnav_file": emnav.cli.__file__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
