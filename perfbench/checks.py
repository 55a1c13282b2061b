"""Checks on the artifacts of one workload run.

For any seed: every invocation exits 0; simulation traces are complete and
finite and record no failure; alloc-bench reports no violation; every
workspace point is feasible exactly when its margin is > 0, its margin is
finite unless it is flagged singular (then it is -inf), and the
field-feasible set lies inside the torque-feasible set.  On the default seed the angle traces and workspace
margins are also compared with the reference recorded under
``perfbench/reference/`` (1e-8 rad, 1e-12 A).
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

ANGLE_TOL = 1e-8  # rad; admits a coarser plant step (8e-9) and scipy's DARE (2e-12)
MARGIN_TOL = 1e-12  # A
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class RunCheck:
    """What one run's artifacts showed."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.items = 0  # agent-ticks, grid-point margins or allocation solves
        self.sim_seconds = 0.0
        self.arrays: dict[str, np.ndarray] = {}


def _load_csv(path: Path, columns) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, usecols=columns, ndmin=2)


def _check_simulate(cfg: dict, out: Path, result: RunCheck) -> None:
    name = cfg["name"]
    summary = json.loads((out / f"{name}_summary.json").read_text())
    if summary.get("failure") is not None:
        result.problems.append(f"{name}: failure recorded: {summary['failure']}")
    ticks, agents = int(summary["ticks"]), int(summary["n_agents"])
    trace = _load_csv(out / f"{name}_trace.csv", None)
    if trace.shape[0] != ticks * agents or ticks < 2:
        result.problems.append(f"{name}: {trace.shape[0]} trace rows for "
                               f"{ticks} ticks x {agents} agents")
        return
    if not np.all(np.isfinite(trace)):
        result.problems.append(f"{name}: non-finite values in the trace")
    t = trace[::agents, 0]
    if abs(t[-1] + (t[1] - t[0]) - float(cfg["duration"])) > 1e-9:
        result.problems.append(f"{name}: trace ends at t = {t[-1]}")
    result.items += ticks * agents
    result.sim_seconds += float(cfg["duration"])
    result.arrays[f"{name}.angles"] = trace[:, 2:6]  # alpha, beta, phi, theta


def _load_map(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Margin, feasible column and 'singular' flag of a workspace map CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fm = np.array([float(r["fm"]) for r in rows])
    feasible = np.array([int(r["feasible"]) for r in rows])
    singular = np.array(["singular" in r["flag"].split("+") for r in rows], bool)
    return fm, feasible, singular


def _check_workspace(cfg: dict, out: Path, result: RunCheck) -> None:
    name = cfg["name"]
    feasible = {}
    for slug in ("torque", "field"):
        meta = json.loads((out / f"{name}_{slug}_meta.json").read_text())
        fm, column, singular = _load_map(out / f"{name}_{slug}.csv")
        if fm.size != int(meta["total_points"]) or fm.size == 0:
            result.problems.append(f"{name}_{slug}: {fm.size} rows")
            return
        # The program writes -inf, flagged singular, where the map is
        # rank-deficient; every other margin must be finite.
        if not np.array_equal(singular, fm == -np.inf) or \
                not np.all(np.isfinite(fm[~singular])):
            result.problems.append(f"{name}_{slug}: non-finite margins other "
                                   "than flagged singular points")
        if not np.array_equal(column == 1, fm > 0):
            result.problems.append(f"{name}_{slug}: feasible column is not "
                                   "fm > 0")
        feasible[slug] = column == 1
        result.items += fm.size
        result.arrays[f"{name}.{slug}_fm"] = fm
    comparison = json.loads((out / f"{name}_comparison.json").read_text())
    contained = bool(np.all(~feasible["field"] | feasible["torque"]))
    if not (contained and comparison.get("field_contained_in_torque") is True):
        result.problems.append(f"{name}: field-feasible set not inside the "
                               "torque-feasible set")


def _check_alloc_bench(cfg: dict, out: Path, result: RunCheck) -> None:
    name = cfg["name"]
    summary = json.loads((out / f"{name}_summary.json").read_text())
    samples = int(cfg["samples"])
    if summary.get("violation_count") != 0:
        result.problems.append(
            f"{name}: violation_count = {summary.get('violation_count')}")
    if summary.get("samples") != samples or summary.get("seed") != cfg["seed"]:
        result.problems.append(f"{name}: summary does not match the config")
    norms = _load_csv(out / f"{name}.csv", (1, 2, 3, 4, 5, 6))
    if norms.shape[0] != samples or not np.all(np.isfinite(norms)):
        result.problems.append(f"{name}: bad or non-finite norm rows")
    result.items += 2 * samples  # one-step and two-step solve per sample


_CHECKERS = {
    "simulate": _check_simulate,
    "workspace": _check_workspace,
    "alloc-bench": _check_alloc_bench,
}


def check_run(invocations: list, out: Path, exit_codes: list) -> RunCheck:
    """Check one run's artifacts; problems are collected, never raised."""
    result = RunCheck()
    for (command, cfg), code in zip(invocations, exit_codes):
        if code != 0:
            result.problems.append(f"{cfg['name']}: exit code {code}")
            continue
        try:
            _CHECKERS[command](cfg, out, result)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            result.problems.append(f"{cfg['name']}: unreadable output: {exc!r}")
    if len(exit_codes) != len(invocations):
        result.problems.append("run stopped before every invocation finished")
    return result


def digest(out: Path) -> str:
    """Hash of every artifact, to check that repeated runs are byte-identical."""
    h = hashlib.sha256()
    for path in sorted(out.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.npz"


def compare_reference(workload: str, arrays: dict) -> list[str]:
    """Differences from the recorded default-seed reference, as problems."""
    path = reference_path(workload)
    if not arrays and not path.is_file():
        return []  # alloc_sweep is checked by its invariants only
    if not path.is_file():
        return [f"no reference at {path.name}"]
    problems = []
    with np.load(path) as ref:
        if set(ref.files) != set(arrays):
            return [f"reference holds {sorted(ref.files)}, run gave {sorted(arrays)}"]
        for key in ref.files:
            want, got = ref[key], arrays[key]
            tol = ANGLE_TOL if key.endswith(".angles") else MARGIN_TOL
            if want.shape != got.shape:
                problems.append(f"{key}: shape {got.shape} != reference {want.shape}")
            elif not np.all((got == want) | (np.abs(got - want) <= tol)):
                worst = float(np.nanmax(np.abs(got - want)))
                problems.append(f"{key}: differs from the reference by {worst:.3g}")
    return problems
