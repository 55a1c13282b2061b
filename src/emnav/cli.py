"""Batch command-line front end.

Three subcommands, each reading a JSON config and writing deterministic
artifacts into an output directory:

    emnav simulate   --config scenario.json  --out DIR [--seed N]
    emnav alloc-bench --config bench.json    --out DIR [--seed N]
    emnav workspace  --config workspace.json --out DIR

Exit codes: 0 success; 1 config error: a bad path, malformed JSON, or a
config the schema in ``emnav.config`` rejects (an unknown or missing key, a
wrong type, a non-finite number or an out-of-range value; the message names
the JSON path), or a bad ``--seed``; 2 numerical failure (controller
synthesis, allocation rank deficiency or a diverging plant), with a failure
record written where applicable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import alloc
from .alloc import DegenerateTaskError, RankDeficiencyError, WrenchTask
from .config import ALLOC_BENCH, WORKSPACE, ConfigError
from .control import SynthesisError
from .dynamics import PendulumParams
from .magmodel import DipoleAgent, actuation_matrix
from .sim import run_scenario, scenario_from_dict
from .workspace import max_feasible_standoff, workspace_map

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # Usage problems are config problems; keep exit code 2 reserved for
    # numerical failures.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path: Path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _load_config(path: Path, kind: str) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if data.get("kind", kind) != kind:
        raise ConfigError(
            f"config {path} has kind {data['kind']!r}; this command expects "
            f"{kind!r}"
        )
    return data


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative whole number, as a config's seed."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a non-negative whole number, got {text!r}"
        )
    return int(text)


def cmd_simulate(config_path: Path, out_dir: Path, seed: int | None) -> int:
    data = _load_config(config_path, "simulate")
    if seed is not None:
        data["seed"] = seed
    scenario = scenario_from_dict(data)
    try:
        trace = run_scenario(scenario)
    except ValueError as exc:
        raise ConfigError(f"invalid scenario {config_path}: {exc}") from exc
    except (SynthesisError, RankDeficiencyError) as exc:
        _write_json(
            out_dir / f"{scenario.name}_failure.json",
            {"scenario": scenario.name, "stage": "synthesis", "error": str(exc)},
        )
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2

    trace.to_csv(out_dir / f"{scenario.name}_trace.csv")
    _write_json(out_dir / f"{scenario.name}_summary.json", trace.summary)
    if trace.failure is not None:
        failure = trace.failure
        where = f" (agent {failure['agent']})" if "agent" in failure else ""
        print(
            f"numerical failure: {failure['stage']} failed at "
            f"t={failure['time']:.6g}, tick {failure['tick']}{where}: "
            f"{failure['error']}",
            file=sys.stderr,
        )
        return 2
    return 0


def _field_dipole_angle_deg(field_b: np.ndarray, moment: np.ndarray) -> float:
    nb = float(np.linalg.norm(field_b))
    nm = float(np.linalg.norm(moment))
    if nb == 0.0 or nm == 0.0:
        return math.nan
    cosang = float(field_b @ moment) / (nb * nm)
    return math.degrees(math.acos(max(-1.0, min(1.0, cosang))))


def cmd_alloc_bench(config_path: Path, out_dir: Path, seed: int | None) -> int:
    config = ALLOC_BENCH.read(_load_config(config_path, "alloc_bench"))
    name = config["name"] or config_path.stem
    model = config["model"]
    samples = config["samples"]
    tau_bar = config["tau_bar"]
    radius = config["position_radius"]
    max_tilt = config["max_tilt"]
    dipole = config["dipole_magnitude"]
    try:
        params = PendulumParams(dipole_magnitude=dipole)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if seed is None:
        seed = config["seed"]
    rng = np.random.default_rng(seed)

    rows = []
    violations = []
    for k in range(samples):
        pos = rng.uniform(-radius, radius, size=3)
        alpha, beta = rng.uniform(-max_tilt, max_tilt, size=2)
        direction = rng.uniform(0.0, 2.0 * math.pi)
        magnitude = tau_bar * rng.uniform(0.1, 1.0)
        task = WrenchTask.planar(
            magnitude * math.cos(direction), magnitude * math.sin(direction)
        )
        agent = DipoleAgent(
            p=tuple(pos), alpha=alpha, beta=beta, dipole_magnitude=dipole
        )
        a_mat = actuation_matrix(model, pos)
        # The norm orderings compare the two solvers of the same pure
        # field-torque map, so gradient forces are left out here.
        i_one = alloc.allocate_torque_one_step(
            a_mat, agent, params, task, include_force=False
        ).currents
        i_two = alloc.allocate_torque_two_step(a_mat, agent, task).currents
        b_one = alloc.field_and_gradient(a_mat, i_one)[0]
        b_two = alloc.field_and_gradient(a_mat, i_two)[0]
        norms = [float(np.linalg.norm(v)) for v in (i_one, i_two, b_one, b_two)]
        angle_one = _field_dipole_angle_deg(b_one, agent.moment)
        angle_two = _field_dipole_angle_deg(b_two, agent.moment)
        try:
            zeta = alloc.zeta_star(a_mat, agent, task)
        except DegenerateTaskError:
            zeta = math.nan
        reasons = []
        if norms[0] > norms[1] + 1e-9:
            reasons.append("current_norm_order")
        if norms[2] < norms[3] - 1e-9:
            reasons.append("field_norm_order")
        if abs(angle_two - 90.0) > 1e-6:
            reasons.append("two_step_angle")
        note = "+".join(reasons)
        rows.append((k, *norms, angle_one, angle_two, zeta, note))
        if note:
            violations.append(
                {
                    "sample": k,
                    "position": list(pos),
                    "orientation": [alpha, beta],
                    "task": list(task.tau_c_body),
                    "reasons": reasons,
                }
            )

    csv_path = out_dir / f"{name}.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(
            "sample,norm_i_one_step,norm_i_two_step,norm_b_one_step,"
            "norm_b_two_step,angle_one_step_deg,angle_two_step_deg,"
            "zeta_star,violation\n"
        )
        for row in rows:
            fh.write(
                ",".join(
                    [str(row[0])]
                    + [format(float(v), ".17g") for v in row[1:8]]
                    + [row[8]]
                )
                + "\n"
            )
    _write_json(
        out_dir / f"{name}_summary.json",
        {
            "samples": samples,
            "seed": seed,
            "model": model.name,
            "violation_count": len(violations),
            "violations": violations,
        },
    )
    return 0


_TASK_SLUGS = {"torque-box": "torque", "fixed-field": "field"}


def cmd_workspace(config_path: Path, out_dir: Path) -> int:
    config = WORKSPACE.read(_load_config(config_path, "workspace"))
    name = config["name"] or config_path.stem
    maps = {}
    for kind, task in config["tasks"].items():
        try:
            fmap = workspace_map(
                config["model"], task, config["grid"], config["current_limit"],
                params=config["plant"], orientation=config["orientation"],
                second_agent=config["second_agent"],
            )
        except ValueError as exc:  # numpy's LinAlgError is a ValueError
            raise ConfigError(f"invalid workspace config {config_path}: {exc}") from exc
        slug = _TASK_SLUGS[kind]
        fmap.to_csv(out_dir / f"{name}_{slug}.csv")
        fmap.write_metadata(out_dir / f"{name}_{slug}_meta.json")
        maps[kind] = fmap

    if len(maps) == 2:
        torque = maps["torque-box"]
        fieldm = maps["fixed-field"]
        comparison = {
            "feasible_count": {
                "torque": torque.feasible_count,
                "field": fieldm.feasible_count,
            },
            "max_standoff": {
                slugname: {
                    axis: max_feasible_standoff(fmap, k)
                    for k, axis in enumerate("xyz")
                }
                for slugname, fmap in (("torque", torque), ("field", fieldm))
            },
            "field_contained_in_torque": bool(
                np.all(~fieldm.feasible | torque.feasible)
            ),
        }
        _write_json(out_dir / f"{name}_comparison.json", comparison)
    return 0


def main(argv=None) -> int:
    parser = _Parser(
        prog="emnav",
        description="Batch runner for electromagnetic-navigation studies",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("simulate", "alloc-bench", "workspace"):
        p = sub.add_parser(command)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", required=True, type=Path)
        if command != "workspace":
            p.add_argument("--seed", type=_seed, default=None)
    args = parser.parse_args(argv)

    try:
        args.out.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out, args.seed)
        if args.command == "alloc-bench":
            return cmd_alloc_bench(args.config, args.out, args.seed)
        return cmd_workspace(args.config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
