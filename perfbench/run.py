"""The emnav benchmark: one workload, measured end to end or traced by module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it repeat each metric by name with its unit and sample count,
and record the seed and the run environment.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-module ones (see tracer.py).  The
end-to-end times are given at the reference speed of speed.py; the raw wall
times are printed beside them.  The design of the workloads and metrics is
described in DESIGN.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # every run must end within 180 s

END_TO_END = {
    "wall_ref_s": "s",
    "items_per_ref_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# The workload-specific reading of items_per_s, printed for people.
_ITEMS = {
    "sim_multi_torque": "agent-ticks",
    "sim_field_disturb": "agent-ticks",
    "workspace_grid": "grid-point margins",
    "alloc_sweep": "allocation solves",
}


def _pinned_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def _median(values):
    values = list(values)
    if not values or any(v is None for v in values):
        return None
    return statistics.median(values)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _time_setup(invocations: list, env: dict, deadline: float) -> list:
    """``SETUP_REPEATS`` set-ups: ``(raw wall s, s at the reference speed)``."""
    argv = [sys.executable, str(HERE / "setup_probe.py")]
    for command, path in invocations:
        argv += [command, path]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        speed = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((wall, (wall - speed["spent_s"]) * speed["speed"]))
    return times


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "emnav" / "cli.py").is_file():
        return _fail(f"no emnav sources under {ROOT / 'src'}; run from a checkout")

    run_dir = ROOT / ".perfbench_runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    config_paths = workloads.write_configs(
        workloads.generate(args.workload, args.seed), run_dir / "configs")

    env = _pinned_env()
    deadline = started + DEADLINE_S
    setup_times = []
    try:
        if not args.trace:
            setup_times = _time_setup(config_paths, env, deadline)
        plan = {
            "workload": args.workload,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "run_dir": str(run_dir),
            "invocations": config_paths,
            "spans_path": str(run_dir / "spans.jsonl"),
            "compare_reference": args.seed == workloads.DEFAULT_SEED,
        }
        plan_path = run_dir / "plan.json"
        plan_path.write_text(json.dumps(plan, indent=2))
        result_path = run_dir / "result.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--plan", str(plan_path),
             "--result", str(result_path)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return _fail(f"the workload did not finish within {DEADLINE_S:.0f} s")
    except RuntimeError as exc:
        return _fail(str(exc))
    if proc.returncode != 0 or not result_path.is_file():
        return _fail(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(result_path.read_text())
    if not Path(result["emnav_file"]).resolve().is_relative_to(ROOT / "src"):
        return _fail(f"imported emnav from {result['emnav_file']}, not {ROOT / 'src'}")

    runs = result["runs"]
    plain = [r for r in runs if not r["traced"]]
    failed = sum(1 for r in runs if r["problems"])
    wall = _median(r["wall_s"] for r in plain)
    env_info = dict(result["environment"], nproc=os.cpu_count(),
                    src_lines=_src_lines())

    if args.trace:
        traced = [r for r in runs if r["traced"]]
        traced_wall = _median(r["wall_s"] for r in traced)
        values = {name: _median(r["layers"].get(name) for r in traced)
                  for name in PER_LAYER}
        values["trace.overhead_s"] = traced_wall - wall
        values["trace.overhead_share"] = (traced_wall - wall) / wall
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        counts = dict.fromkeys(values, len(traced))
    else:
        values = {
            "wall_ref_s": _median(r["ref_wall_s"] for r in plain),
            "items_per_ref_s": _median(r["items"] / r["ref_wall_s"] for r in plain),
            "setup_s": _median(ref for _, ref in setup_times),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
        counts = {"wall_ref_s": len(plain), "items_per_ref_s": len(plain),
                  "setup_s": len(setup_times), "peak_rss_mb": 1}

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"runs={len(runs)} (closed loop, one client, one thread)")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    for name, value in values.items():
        print(f"# {name} = {value} {units[name]} (median of {counts[name]})")
    if not args.trace:
        print(f"# items are {_ITEMS[args.workload]}; setup_s times fresh "
              "interpreters; peak_rss_mb is the worker's peak")
        print("# times at the reference speed of perfbench/speed.py; the mean "
              f"speed over the runs was {_median(r['speed'] for r in plain)} of it")
        raw_items = _median(r["items"] / r["wall_s"] for r in plain)
        print(f"# raw wall_s = {wall} s, items_per_s = {raw_items} 1/s, setup "
              f"{_median(raw for raw, _ in setup_times)} s (host-speed dependent)")
        if args.workload.startswith("sim_"):
            rtf = _median(r["sim_seconds"] / r["ref_wall_s"] for r in plain)
            print(f"# sim_rtf = {rtf} simulated s per reference s")
        elif args.workload == "workspace_grid":
            print(f"# grid_points_per_s = {values['items_per_ref_s']} per reference s")
        else:
            print(f"# alloc_solves_per_s = {values['items_per_ref_s']} per reference s")
    else:
        print(f"# spans of the last traced run: {plan['spans_path']}")
    print(f"# failed_frac = {failed}/{len(runs)} = {failed / len(runs)}")
    for r in runs:
        for problem in r["problems"]:
            print(f"# FAILED {Path(r['out']).name}: {problem}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
