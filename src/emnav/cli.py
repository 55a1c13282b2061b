"""Batch command-line front end.

Three subcommands, each reading a JSON config and writing deterministic
artifacts into an output directory:

    emnav simulate   --config scenario.json  --out DIR [--seed N]
    emnav alloc-bench --config bench.json    --out DIR [--seed N]
    emnav workspace  --config workspace.json --out DIR

Exit codes: 0 success, 1 config error (bad path, malformed JSON, schema
violation, non-finite number), 2 numerical failure (controller synthesis,
allocation rank deficiency or a diverging plant), with a failure record
written where applicable.
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
from .control import SynthesisError
from .dynamics import PendulumParams
from .magmodel import ActuationModel, DipoleAgent, actuation_matrix, get_model
from .sim import finite, finite_tuple, run_scenario, scenario_from_dict
from .workspace import GridSpec, TaskSet, max_feasible_standoff, workspace_map

__all__ = ["main"]


class ConfigError(ValueError):
    """A problem with a config file (missing, malformed, or invalid)."""


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


def _load_config(path: Path) -> dict:
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
    return data


def _expect_kind(data: dict, expected: str, path: Path) -> None:
    kind = data.get("kind", expected)
    if kind != expected:
        raise ConfigError(
            f"config {path} has kind {kind!r}; this command expects {expected!r}"
        )


def _parse_model(spec) -> ActuationModel:
    if isinstance(spec, str):
        try:
            return get_model(spec)
        except KeyError as exc:
            raise ConfigError(f"unknown model preset {spec!r}") from exc
    try:
        return ActuationModel.from_dict(spec)
    except ValueError as exc:
        raise ConfigError(f"invalid model: {exc}") from exc


def cmd_simulate(config_path: Path, out_dir: Path, seed: int | None) -> int:
    data = _load_config(config_path)
    _expect_kind(data, "simulate", config_path)
    data.pop("kind", None)
    if seed is not None:
        data["seed"] = seed
    try:
        scenario = scenario_from_dict(data)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid scenario {config_path}: {exc}") from exc

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
    data = _load_config(config_path)
    _expect_kind(data, "alloc_bench", config_path)
    name = data.get("name", config_path.stem)
    model = _parse_model(data.get("model", "octomag8"))
    try:
        samples = finite(data.get("samples", 1000), "samples")
        if not samples.is_integer():
            raise ValueError(f"samples must be a whole number, got {samples}")
        samples = int(samples)
        tau_bar = finite(data.get("tau_bar", 0.002), "tau_bar")
        radius = finite(data.get("position_radius", 0.04), "position_radius")
        max_tilt = finite(data.get("max_tilt", 0.3), "max_tilt")
        dipole = finite(data.get("dipole_magnitude", 0.5), "dipole_magnitude")
        params = PendulumParams(dipole_magnitude=dipole)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid alloc-bench config {config_path}: {exc}") from exc
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    if seed is None:
        seed = int(data.get("seed", 0))
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


def _parse_task(kind: str, spec: dict) -> TaskSet:
    if kind == "torque-box":
        return TaskSet(kind, tau_bar=finite(spec["tau_bar"], "tau_bar"))
    if kind == "fixed-field":
        return TaskSet(
            kind,
            field_magnitude=finite(spec["field_magnitude"], "field_magnitude"),
        )
    raise ConfigError(f"unknown task kind {kind!r}")


def cmd_workspace(config_path: Path, out_dir: Path) -> int:
    data = _load_config(config_path)
    _expect_kind(data, "workspace", config_path)
    name = data.get("name", config_path.stem)
    model = _parse_model(data.get("model", "octomag8"))
    try:
        limit = finite(data["current_limit"], "current_limit")
        grid_spec = data["grid"]
        grid = GridSpec(
            *(finite_tuple(grid_spec[axis], f"grid {axis}", 2) for axis in "xyz"),
            spacing=finite(grid_spec["spacing"], "grid spacing"),
        )
        tasks = {
            kind: _parse_task(kind, spec)
            for kind, spec in data["tasks"].items()
        }
        plant = data.get("plant", {})
        params = PendulumParams(**{
            key: finite(plant.get(key, default), f"plant {key}")
            for key, default in (("dipole_magnitude", 0.5), ("magnet_offset", 0.05))
        })
        second = data.get("second_agent")
        if second is not None:
            second = finite_tuple(second, "second_agent", 3)
        orientation = finite_tuple(
            data.get("orientation", (0.0, 0.0)), "orientation", 2
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid workspace config {config_path}: {exc}") from exc
    if not tasks:
        raise ConfigError("workspace config needs at least one task")

    maps = {}
    for kind, task in tasks.items():
        try:
            fmap = workspace_map(
                model, task, grid, limit,
                params=params, orientation=orientation, second_agent=second,
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
            p.add_argument("--seed", type=int, default=None)
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
