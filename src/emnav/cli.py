"""Batch command-line front end.

Three subcommands, each reading a JSON config and writing deterministic
artifacts into an output directory:

    emnav simulate   --config scenario.json  --out DIR [--seed N]
    emnav alloc-bench --config bench.json    --out DIR [--seed N]
    emnav workspace  --config workspace.json --out DIR

Exit codes: 0 success; 1 config error: a bad path, malformed JSON, or a
config the schema in ``emnav.config`` rejects (an unknown or missing key, a
wrong type, a non-finite number, an out-of-range value or, in a built
scenario, a fact such as a ``q_diag`` of the wrong length; the message names
the JSON path), or a bad ``--seed``; 2 numerical failure: in ``simulate``,
every failure after the config is read (synthesis, allocation or a diverging
plant, each classified by its stage); in ``alloc-bench``, a sample whose
torque or field rows the coil array cannot span, a current or field norm
that is not finite, or draws or a solve raising a ``ValueError`` or
``ArithmeticError`` (an SVD that does not converge, an overflow); in
``workspace``, such an error (currents that overflow among them) but a point
on a coil.  It writes a record, the summary's ``failure`` of a simulation
that ran, else ``<name>_failure.json``, and one ``numerical failure:`` line;
numpy does not warn.

``alloc-bench`` draws all its samples at once and solves them in blocks of
``magmodel.BLOCK``: one A(p) evaluation and one stacked pseudoinverse per
solve kind per block.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .alloc import (FIELD_RANK_FAILURE, TORQUE_RANK_FAILURE, ZETA_DEGENERACY,
                    two_step_field)
from .config import ALLOC_BENCH, WORKSPACE, ConfigError
from .control import SynthesisError
from .export import write_csv, write_json as _write_json  # perfbench hooks it
from .magmodel import (BLOCK, SingularPositionError, actuation_matrices,
                       body_frames, pinv_rank)
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
    except SynthesisError as exc:
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


def _draw_samples(
    rng: np.random.Generator, samples: int, radius: float, max_tilt: float,
    tau_bar: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every sample's position (S, 3), tilts (alpha, beta) (S, 2) and
    body-frame torque task (tau_x, tau_y) (S, 2).

    One draw of seven numbers per sample, in the order a sample at a time
    would take them: position, alpha, beta, direction, magnitude fraction.
    """
    lo = np.array([-radius] * 3 + [-max_tilt] * 2 + [0.0, 0.1])
    hi = np.array([radius] * 3 + [max_tilt] * 2 + [2.0 * math.pi, 1.0])
    draws = rng.uniform(lo, hi, size=(samples, 7))
    direction = draws[:, 5]
    magnitude = tau_bar * draws[:, 6]
    torques = np.column_stack(
        [magnitude * np.cos(direction), magnitude * np.sin(direction)]
    )
    return draws[:, :3], draws[:, 3:5], torques


def _angle_deg(fields: np.ndarray, moments: np.ndarray) -> np.ndarray:
    """Angle between each field and moment [deg]; NaN (0/0) where one is
    zero.  A finite pair whose norms' product is 0 or inf (they square
    unscaled) is scaled by each vector's largest entry first."""
    norms = np.linalg.norm(fields, axis=1) * np.linalg.norm(moments, axis=1)
    with np.errstate(invalid="ignore"):
        cosang = np.einsum("bi,bi->b", fields, moments) / norms
    angles = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    for b in np.flatnonzero(~(norms > 0.0) | np.isinf(norms)):
        pair = np.stack([fields[b], moments[b]])
        scale = np.abs(pair).max(axis=1, keepdims=True)
        if np.isfinite(pair).all() and (scale > 0.0).all():
            angles[b] = _angle_deg(*(pair / scale)[:, None])[0]
    return angles


def _solve_block(
    a_mats: np.ndarray, tilts: np.ndarray, torques: np.ndarray, dipole: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One- and two-step torque solves of a block of samples, and what the
    bench reports of them.

    Both solve the pure field-torque map skew(m) A_b: gradient forces are
    left out, so the norm orderings compare two solvers of one map.  Each
    kind takes one stacked ``pinv_rank``.  Returns the seven value columns
    of the CSV, shape (B, 7), and whether each sample's one-step rows and
    field rows have full rank.
    """
    frames = body_frames(tilts[:, 0], tilts[:, 1])
    moments = dipole * frames[:, :, 2]
    a_b = a_mats[:, :3]
    # One step: the lever-0 body-plane rows of torque_rows, dipole * (-e_y; e_x).
    rows = dipole * np.stack([-frames[:, :, 1], frames[:, :, 0]], axis=1)
    pinv_one, rank_one = pinv_rank(rows @ a_b)
    i_one = np.einsum("bnr,br->bn", pinv_one, torques)
    # Two steps: the smallest field b = skew(m)^+ tau, then i = A_b^+ b.
    b_des = two_step_field(rows, torques, dipole)
    pinv_b, rank_b = pinv_rank(a_b)
    i_two = np.einsum("bnr,br->bn", pinv_b, b_des)
    # zeta* = -(A_b^+ b) . u / |u|^2 with u = A_b^+ m, undefined where
    # |u|^2 < ZETA_DEGENERACY; A_b^+ b is the two-step currents.
    u = np.einsum("bnr,br->bn", pinv_b, moments)
    den = np.einsum("bn,bn->b", u, u)
    defined = den >= ZETA_DEGENERACY
    zeta = np.full(den.shape, math.nan)
    zeta[defined] = -np.einsum("bn,bn->b", i_two, u)[defined] / den[defined]
    b_one = np.einsum("brn,bn->br", a_b, i_one)
    b_two = np.einsum("brn,bn->br", a_b, i_two)
    vectors = (i_one, i_two, b_one, b_two)
    values = np.column_stack(
        [np.linalg.norm(v, axis=1) for v in vectors]
        + [_angle_deg(b_one, moments), _angle_deg(b_two, moments), zeta]
    )
    # np.linalg.norm squares without scaling: a finite non-zero vector whose
    # squares overflow or underflow is scaled by its largest entry first.
    norms = values[:, :4]
    for b, j in np.argwhere(np.isinf(norms) | (norms == 0.0)):
        v = vectors[j][b]
        scale = np.abs(v).max()
        if np.isfinite(v).all() and scale > 0.0:
            values[b, j] = scale * np.linalg.norm(v / scale)
    return values, rank_one == 2, rank_b == 3


_RANK_FAILURES = {
    "torque_one_step": TORQUE_RANK_FAILURE.format(" at p = {}"),
    "torque_two_step": FIELD_RANK_FAILURE,
}


def _failure(path: Path, record: dict, where: str) -> int:
    """Write a numerical failure's record and print its one line: exit 2."""
    _write_json(path, record)
    print(f"numerical failure: {record['stage']} failed{where}: {record['error']}",
          file=sys.stderr)
    return 2


def cmd_alloc_bench(config_path: Path, out_dir: Path, seed: int | None) -> int:
    config = ALLOC_BENCH.read(_load_config(config_path, "alloc_bench"))
    name = config["name"] or config_path.stem
    model = config["model"]
    samples = config["samples"]
    if seed is None:
        seed = config["seed"]

    values = np.empty((samples, 7))
    record_path = out_dir / f"{name}_failure.json"
    start = None  # until the draws are taken
    try:
        with np.errstate(all="ignore"):
            positions, tilts, torques = _draw_samples(
                np.random.default_rng(seed), samples, config["position_radius"],
                config["max_tilt"], config["tau_bar"],
            )
            for start in range(0, samples, BLOCK):
                block = slice(start, start + BLOCK)
                values[block], one_ok, two_ok = _solve_block(
                    actuation_matrices(model, positions[block]), tilts[block],
                    torques[block], config["dipole_magnitude"],
                )
                failed = np.flatnonzero(~(one_ok & two_ok))
                if failed.size:
                    # The first failing sample in draw order; within a sample
                    # the one-step solve comes first.
                    k = int(failed[0])
                    strategy = "torque_two_step" if one_ok[k] else "torque_one_step"
                    sample = start + k
                    error = _RANK_FAILURES[strategy].format(
                        tuple(positions[sample].tolist()))
                    return _failure(record_path, {
                        "stage": "allocation", "sample": sample,
                        "strategy": strategy, "error": error,
                    }, f" at sample {sample} ({strategy})")
                # A norm that is not finite overflowed; the angle and zeta*
                # columns are NaN where they are undefined.
                failed = np.flatnonzero(~np.isfinite(values[block, :4]).all(axis=1))
                if failed.size:
                    sample = start + int(failed[0])
                    return _failure(record_path, {
                        "stage": "allocation", "sample": sample,
                        "error": "a current or field norm is not finite",
                    }, f" at sample {sample}")
    except (ValueError, ArithmeticError) as exc:  # LinAlgError is a ValueError
        error = f"{type(exc).__name__}: {exc}"
        if start is None:  # a range too wide to draw from
            return _failure(record_path, {"stage": "sampling", "error": error}, "")
        last = min(start + BLOCK, samples) - 1
        return _failure(record_path, {
            "stage": "allocation", "samples": [start, last], "error": error,
        }, f" in samples {start} to {last}")

    i_one, i_two, b_one, b_two = values[:, :4].T  # to 1e-9 of the larger norm
    flags = {
        "current_norm_order": i_one > i_two + 1e-9 * np.maximum(i_one, i_two),
        "field_norm_order": b_one < b_two - 1e-9 * np.maximum(b_one, b_two),
        "two_step_angle": np.abs(values[:, 5] - 90.0) > 1e-6,
    }
    notes = [""] * samples
    violations = []
    for k in np.flatnonzero(np.any(list(flags.values()), axis=0)).tolist():
        reasons = [reason for reason, flag in flags.items() if flag[k]]
        notes[k] = "+".join(reasons)
        violations.append(
            {
                "sample": k,
                "position": positions[k].tolist(),
                "orientation": tilts[k].tolist(),
                "task": torques[k].tolist() + [0.0],
                "reasons": reasons,
            }
        )

    write_csv(
        out_dir / f"{name}.csv",
        ("sample", "norm_i_one_step", "norm_i_two_step", "norm_b_one_step",
         "norm_b_two_step", "angle_one_step_deg", "angle_two_step_deg",
         "zeta_star", "violation"),
        samples,
        lambda start, stop: [np.arange(start, stop, dtype=float),
                             *values[start:stop].T, notes[start:stop]],
        newline="\n",
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
    tasks = config["tasks"]
    try:
        with np.errstate(all="ignore"):
            fmaps = workspace_map(
                config["model"], list(tasks.values()), config["grid"],
                config["current_limit"], params=config["plant"],
                orientation=config["orientation"],
                second_agent=config["second_agent"],
            )
    except SingularPositionError as exc:
        raise ConfigError(f"invalid workspace config {config_path}: {exc}") from exc
    except (ValueError, ArithmeticError) as exc:  # LinAlgError is a ValueError
        return _failure(out_dir / f"{name}_failure.json", {
            "stage": "workspace", "error": f"{type(exc).__name__}: {exc}",
        }, "")
    maps = dict(zip(tasks, fmaps))
    for kind, fmap in maps.items():
        slug = _TASK_SLUGS[kind]
        fmap.to_csv(out_dir / f"{name}_{slug}.csv")
        fmap.write_metadata(out_dir / f"{name}_{slug}_meta.json")

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
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
