"""Self-test of the benchmark itself (not of emnav).

    python3 perfbench/selftest.py

Checks that:
1. every metric BENCHMARK.json names is printed, with the same unit, on every
   workload, traced and untraced, on the default seed with ``--seconds 0``
   (one run each, so the reference comparison is exercised too);
2. a deliberately corrupted output is counted as failed, for each workload's
   checker (on shrunken inputs) and for the reference comparison, and a
   workspace margin is judged as the program defines it (feasible is
   ``fm > 0``; ``-inf`` only where flagged singular);
3. a hook whose target has gone is skipped, and its metrics read null;
4. the speed sampler samples while armed, subtracts its own time and puts
   the previous SIGALRM handler back;
5. the benchmark exits non-zero, printing no result, in a directory that holds
   only BENCHMARK.json and the benchmark's own files.
Exits 0 when all pass.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from emnav.cli import main as emnav_main  # noqa: E402

WORK_DIR = ROOT / ".perfbench_runs" / "selftest"
failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("PASS " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(workloads.DEFAULT_SEED), "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def metrics_present(spec: dict) -> None:
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json lists the workloads that workloads.py generates")
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(ROOT, workload, trace)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{workload} trace={trace}: result line "
                       f"(exit {proc.returncode}: {proc.stderr.strip()[-300:]})")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["correct"] and result["failed"] == 0,
                   f"{workload} trace={trace}: correct, nothing failed")
            got = result["metrics"]
            wrong = [
                m["name"] for m in spec[key]
                if m["name"] not in got
                or got[m["name"]]["unit"] != m["unit"]
                or not isinstance(got[m["name"]]["value"], (int, float))
                or not math.isfinite(got[m["name"]]["value"])
            ]
            expect(not wrong and len(got) == len(spec[key]),
                   f"{workload} trace={trace}: every {key} metric with its unit"
                   + (f" (wrong: {wrong})" if wrong else ""))
            if key == "end_to_end":
                expect(all(v["value"] > 0 for v in got.values()),
                       f"{workload}: end-to-end metrics are positive")


def _shrink(invocations: list) -> list:
    """A tiny variant of a workload, whose outputs the checks can be run on."""
    small = []
    for command, cfg in invocations:
        cfg = copy.deepcopy(cfg)
        if command == "simulate":
            cfg["duration"] = 0.2
            cfg["disturbances"] = [
                dict(ev, time=0.1) for ev in cfg.get("disturbances", [])
            ]
            for agent in cfg["agents"]:
                agent.pop("integral_windows", None)
        elif command == "workspace":
            cfg["grid"]["spacing"] = cfg["grid"]["spacing"] * 5
        else:
            cfg["samples"] = 20
        small.append((command, cfg))
    return small


def _run_small(workload: str) -> tuple[list, Path, list]:
    invocations = _shrink(workloads.generate(workload, 1))
    out = WORK_DIR / workload
    codes = workloads.run_invocations(
        emnav_main, workloads.write_configs(invocations, WORK_DIR), out)
    return invocations, out, codes


def _replace_in(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text, f"{old!r} not in {path.name}"
    path.write_text(text.replace(old, new, 1))


def corrupted_outputs_fail() -> None:
    for workload in workloads.WORKLOADS:
        invocations, out, codes = _run_small(workload)
        expect(not checks.check_run(invocations, out, codes).problems,
               f"{workload}: clean output passes the checks")
        expect(bool(checks.check_run(invocations, out, [1] + codes[1:]).problems),
               f"{workload}: a non-zero exit code counts as failed")
        name = invocations[0][1]["name"]
        if workload.startswith("sim_"):
            trace_csv = out / f"{name}_trace.csv"
            lines = trace_csv.read_text().splitlines()
            fields = lines[5].split(",")
            fields[2] = "nan"
            lines[5] = ",".join(fields)
            trace_csv.write_text("\n".join(lines) + "\n")
            what = "a NaN angle in the trace"
        elif workload == "workspace_grid":
            _replace_in(out / f"{name}_comparison.json",
                        '"field_contained_in_torque": true',
                        '"field_contained_in_torque": false')
            what = "a comparison reporting field-feasible points outside the torque set"
        else:
            _replace_in(out / f"{name}_summary.json",
                        '"violation_count": 0', '"violation_count": 1')
            what = "an alloc-bench violation"
        expect(bool(checks.check_run(invocations, out, codes).problems),
               f"{workload}: {what} counts as failed")

    with np.load(checks.reference_path("sim_field_disturb")) as ref:
        arrays = {key: ref[key].copy() for key in ref.files}
    expect(not checks.compare_reference("sim_field_disturb", arrays),
           "the reference matches itself")
    key = next(iter(arrays))
    arrays[key][7, 0] += 2 * checks.ANGLE_TOL
    expect(bool(checks.compare_reference("sim_field_disturb", arrays)),
           "an angle 2e-8 rad off the reference counts as failed")


def workspace_margins_follow_the_program() -> None:
    """The workspace check reads margins as the program defines them."""
    invocations, out, codes = _run_small("workspace_grid")
    path = out / f"{invocations[0][1]['name']}_field.csv"
    clean = path.read_text().splitlines()
    cases = (
        ("-inf", "0", "singular", True, "a -inf margin flagged singular passes"),
        ("-inf", "0", "", False, "an unflagged -inf margin counts as failed"),
        ("0", "0", "", True, "a margin of exactly 0 read as infeasible passes"),
        ("0", "1", "", False, "a margin of exactly 0 marked feasible counts as failed"),
    )
    for fm, feasible, flag, ok, what in cases:
        fields = clean[1].split(",")
        fields[3:6] = [fm, feasible, flag]
        path.write_text("\n".join([clean[0], ",".join(fields)] + clean[2:]) + "\n")
        problems = checks.check_run(invocations, out, codes).problems
        expect(not problems if ok else bool(problems), f"workspace_grid: {what}")


def missing_hooks_read_null() -> None:
    saved = tracer.HOOKS
    tracer.HOOKS = saved + (("emnav.control", "no_such_function", "control.gone",
                             None),)
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
        tracer.HOOKS = saved
    expect("control.gone" not in t.hooked and "control.dare_solve" in t.hooked,
           "a hook whose target is gone is skipped")
    import emnav.control
    expect(emnav.control.dare_solve.__name__ == "dare_solve",
           "uninstall restores the original functions")
    values = tracer.layer_metrics([], t.hooked - {"control.dare_solve"}, {})
    expect(values["control.dare_solves"] is None
           and values["control.dare_ms_per_solve"] is None
           and values["magmodel.actuation_matrix.calls"] == 0,
           "metrics of a missing hook read null; others still count")


def speed_sampler_samples() -> None:
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.SpeedSampler()
    sampler.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 10 * speed.PERIOD_S:
        speed.kernel()
    wall = time.perf_counter() - start
    sampler.stop()
    expect(len(sampler.durations) >= 5 and 0 < sampler.spent_s < wall
           and 0 < sampler.at_reference(wall) and sampler.speed() > 0,
           "the speed sampler samples while armed and subtracts its own time")
    count = len(sampler.durations)
    time.sleep(3 * speed.PERIOD_S)
    expect(len(sampler.durations) == count
           and signal.getsignal(signal.SIGALRM) == before,
           "the speed sampler stops and restores the previous handler")


def bare_directory_fails() -> None:
    bare = WORK_DIR / "bare"
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _bench(bare, "alloc_sweep", 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the program the benchmark exits non-zero and prints no result")


def main() -> int:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_present(spec)
    corrupted_outputs_fail()
    workspace_margins_follow_the_program()
    missing_hooks_read_null()
    speed_sampler_samples()
    bare_directory_fails()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
