"""Electromagnetic-workspace analysis.

Evaluates the feasibility margin — the coil-current headroom left after
serving a task set — over position grids, for both the torque paradigm
(a box of body-frame tilt torques) and the field paradigm (a fixed field
vector), with single- and two-agent variants.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .alloc import NEAR_CONTACT_DISTANCE, composed_torque_map
from .dynamics import PendulumParams
from .magmodel import (
    RANK_RTOL,
    ActuationModel,
    DipoleAgent,
    actuation_matrix,
    field_matrix,
)

__all__ = [
    "TaskSet",
    "GridSpec",
    "FeasibilityMap",
    "feasibility_margin_torque",
    "feasibility_margin_field",
    "workspace_map",
    "max_feasible_standoff",
]

TASK_KINDS = ("torque-box", "fixed-field")


@dataclass(frozen=True)
class TaskSet:
    """A set of demands the coils must be able to serve at a position.

    ``torque-box``: every body-frame tilt torque with |tau_x|, |tau_y| <=
    ``tau_bar`` and zero body-z component (the z direction is structurally
    unactuated for an axially magnetized body).  ``fixed-field``: the single
    field vector ``field_magnitude * e_z``.
    """

    kind: str
    tau_bar: float = 0.0
    field_magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ValueError(f"task kind must be one of {TASK_KINDS}")
        if self.kind == "torque-box" and not self.tau_bar > 0.0:
            raise ValueError("torque-box task requires tau_bar > 0")
        if self.kind == "fixed-field" and not self.field_magnitude > 0.0:
            raise ValueError("fixed-field task requires field_magnitude > 0")

    def describe(self) -> dict:
        if self.kind == "torque-box":
            return {"kind": self.kind, "tau_bar": self.tau_bar}
        return {"kind": self.kind, "field_magnitude": self.field_magnitude}


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned lattice of evaluation positions.

    Each axis is an inclusive (min, max) interval sampled every ``spacing``
    meters; a degenerate axis (min == max) contributes the single value, so
    lines and planes are expressed naturally.
    """

    x: tuple[float, float]
    y: tuple[float, float]
    z: tuple[float, float]
    spacing: float = 0.002

    def __post_init__(self) -> None:
        if not self.spacing > 0.0:
            raise ValueError("grid spacing must be strictly positive")
        for name in ("x", "y", "z"):
            lo, hi = getattr(self, name)
            object.__setattr__(self, name, (float(lo), float(hi)))

    def axis_values(self, name: str) -> np.ndarray:
        lo, hi = getattr(self, name)
        if hi < lo:
            return np.empty(0)
        count = int(math.floor((hi - lo) / self.spacing + 1e-9)) + 1
        return lo + self.spacing * np.arange(count)

    def positions(self) -> np.ndarray:
        """All lattice points, shape (N, 3), x fastest-varying last axis z."""
        xs = self.axis_values("x")
        ys = self.axis_values("y")
        zs = self.axis_values("z")
        if xs.size == 0 or ys.size == 0 or zs.size == 0:
            return np.empty((0, 3))
        zz, yy, xx = np.meshgrid(zs, ys, xs, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])

    def describe(self) -> dict:
        return {
            "x": list(self.x),
            "y": list(self.y),
            "z": list(self.z),
            "spacing": self.spacing,
        }


@dataclass(frozen=True)
class FeasibilityMap:
    """Feasibility margin sampled over a grid.

    ``fm`` is the current headroom in amps at each point (-inf where the
    torque map is rank-deficient); ``feasible`` is exactly ``fm > 0``;
    ``flags`` carries per-point caveats ("singular", "near-contact").
    """

    grid: GridSpec
    positions: np.ndarray
    fm: np.ndarray
    flags: tuple[str, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def feasible(self) -> np.ndarray:
        return self.fm > 0.0

    @property
    def feasible_count(self) -> int:
        return int(np.count_nonzero(self.feasible))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "z", "fm", "feasible", "flag"])
            feas = self.feasible
            for k in range(self.positions.shape[0]):
                x, y, z = self.positions[k]
                writer.writerow(
                    [
                        format(float(x), ".17g"),
                        format(float(y), ".17g"),
                        format(float(z), ".17g"),
                        format(float(self.fm[k]), ".17g"),
                        int(feas[k]),
                        self.flags[k],
                    ]
                )

    def write_metadata(self, path) -> None:
        payload = dict(self.metadata)
        payload["feasible_count"] = self.feasible_count
        payload["total_points"] = int(self.positions.shape[0])
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _body_torque_map(
    model: ActuationModel,
    position: np.ndarray,
    orientation: tuple[float, float],
    params: PendulumParams,
) -> np.ndarray:
    """Rows mapping coil currents to body-frame (tau_x, tau_y), shape (2, n).

    The body-z row of the rotated torque map is identically zero (the wrench
    is always perpendicular to the dipole axis), so two rows carry the whole
    constraint and their minimum-norm solve matches the full 3-row one.
    """
    agent = DipoleAgent(
        p=tuple(float(c) for c in position),
        alpha=orientation[0],
        beta=orientation[1],
        dipole_magnitude=params.dipole_magnitude,
    )
    world_map = composed_torque_map(model, agent, params)
    return (agent.rotation @ world_map)[:2]


def _torque_margin_from_map(
    body_map: np.ndarray, tau_bar: float, current_limit: float
) -> float:
    """FM for a stacked body torque map: rows come in (tau_x, tau_y) pairs."""
    sigma = np.linalg.svd(body_map, compute_uv=False)
    if sigma[-1] <= RANK_RTOL * sigma[0]:
        return -math.inf
    pinv = np.linalg.pinv(body_map, rcond=RANK_RTOL)
    worst = 0.0
    n_pairs = body_map.shape[0] // 2
    for bits in range(2 ** (2 * n_pairs)):
        vertex = np.array(
            [tau_bar if bits & (1 << k) else -tau_bar for k in range(2 * n_pairs)]
        )
        worst = max(worst, float(np.max(np.abs(pinv @ vertex))))
    return current_limit - worst


def _field_task_vector(model: ActuationModel, magnitude: float) -> np.ndarray:
    """Stacked task for a +z field of the given size.

    Arrays with at least 8 coils serve the full field-plus-zero-gradient
    task; smaller arrays can only be asked for the 3 field components.
    """
    if model.n_coils >= 8:
        task = np.zeros(8)
        task[2] = magnitude
        return task
    return np.array([0.0, 0.0, magnitude])


def _field_rows(model: ActuationModel, position: np.ndarray) -> np.ndarray:
    if model.n_coils >= 8:
        return actuation_matrix(model, position)
    return field_matrix(model, position)


def feasibility_margin_torque(
    model: ActuationModel,
    position,
    *,
    params: PendulumParams,
    tau_bar: float,
    current_limit: float,
    orientation: tuple[float, float] = (0.0, 0.0),
) -> float:
    """Current headroom for the torque-box task at one position [A].

    FM = current_limit - max over the 4 (tau_x, tau_y) box vertices of the
    infinity norm of the minimum-norm current solution.  The maximum over the
    whole box is attained at a vertex because the map is linear and the
    infinity norm convex.  Rank deficiency yields -inf (infeasible-singular).
    """
    if not tau_bar > 0.0:
        raise ValueError("tau_bar must be strictly positive")
    body_map = _body_torque_map(model, np.asarray(position, float), orientation, params)
    return _torque_margin_from_map(body_map, tau_bar, current_limit)


def feasibility_margin_field(
    model: ActuationModel,
    position,
    *,
    field_magnitude: float,
    current_limit: float,
) -> float:
    """Current headroom for holding the field field_magnitude * e_z [A]."""
    if field_magnitude < 0.0:
        raise ValueError("field_magnitude must be non-negative")
    rows = _field_rows(model, np.asarray(position, float))
    task = _field_task_vector(model, field_magnitude)
    currents = np.linalg.pinv(rows, rcond=RANK_RTOL) @ task
    return current_limit - float(np.max(np.abs(currents)))


def _evaluate_points(
    model: ActuationModel,
    task: TaskSet,
    positions: np.ndarray,
    current_limit: float,
    params: PendulumParams,
    orientation: tuple[float, float],
    second_agent: tuple[float, float, float] | None,
) -> np.ndarray:
    fm = np.empty(positions.shape[0])
    if task.kind == "torque-box":
        other_map = None
        if second_agent is not None:
            other_map = _body_torque_map(
                model, np.asarray(second_agent, float), orientation, params
            )
        for k, pos in enumerate(positions):
            body_map = _body_torque_map(model, pos, orientation, params)
            if other_map is not None:
                body_map = np.vstack([body_map, other_map])
            fm[k] = _torque_margin_from_map(body_map, task.tau_bar, current_limit)
    elif second_agent is not None:
        # Two-agent field task: stack only the field rows of both agents.
        # Demanding two fields plus two zero-gradient blocks would exceed
        # the rank of any 8-coil array.
        other_rows = field_matrix(model, np.asarray(second_agent, float))
        one_field = np.array([0.0, 0.0, task.field_magnitude])
        task_vec = np.concatenate([one_field, one_field])
        for k, pos in enumerate(positions):
            rows = np.vstack([field_matrix(model, pos), other_rows])
            currents = np.linalg.pinv(rows, rcond=RANK_RTOL) @ task_vec
            fm[k] = current_limit - float(np.max(np.abs(currents)))
    else:
        task_vec = _field_task_vector(model, task.field_magnitude)
        for k, pos in enumerate(positions):
            rows = _field_rows(model, pos)
            currents = np.linalg.pinv(rows, rcond=RANK_RTOL) @ task_vec
            fm[k] = current_limit - float(np.max(np.abs(currents)))
    return fm


def workspace_map(
    model: ActuationModel,
    task: TaskSet,
    grid: GridSpec,
    current_limit: float,
    *,
    params: PendulumParams | None = None,
    orientation: tuple[float, float] = (0.0, 0.0),
    second_agent: tuple[float, float, float] | None = None,
    workers: int = 1,
) -> FeasibilityMap:
    """Feasibility margin over a grid, optionally with a fixed second agent.

    Two-agent maps stack the second agent's copy of the same task: both
    torque boxes (16 vertices) or both +z field vectors.  For a two-agent
    field task only the field rows are stacked — holding two independent
    fields plus zero gradients everywhere exceeds an 8-coil array's rank.
    Grid points closer than 1 cm to the second agent are flagged
    "near-contact" (dipole superposition is unreliable there).
    """
    if not current_limit > 0.0:
        raise ValueError("current_limit must be strictly positive")
    if task.kind == "torque-box" and params is None:
        raise ValueError("torque-box maps require pendulum params")
    if params is None:
        params = PendulumParams()
    positions = grid.positions()

    if positions.shape[0] == 0:
        fm = np.empty(0)
    elif workers > 1:
        chunks = np.array_split(np.arange(positions.shape[0]), workers)
        chunks = [c for c in chunks if c.size]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    _evaluate_points,
                    [model] * len(chunks),
                    [task] * len(chunks),
                    [positions[c] for c in chunks],
                    [current_limit] * len(chunks),
                    [params] * len(chunks),
                    [orientation] * len(chunks),
                    [second_agent] * len(chunks),
                )
            )
        fm = np.concatenate(parts) if parts else np.empty(0)
    else:
        fm = _evaluate_points(
            model, task, positions, current_limit, params, orientation, second_agent
        )

    flags = []
    for k in range(positions.shape[0]):
        notes = []
        if not np.isfinite(fm[k]):
            notes.append("singular")
        if (
            second_agent is not None
            and np.linalg.norm(positions[k] - np.asarray(second_agent, float))
            < NEAR_CONTACT_DISTANCE
        ):
            notes.append("near-contact")
        flags.append("+".join(notes))

    metadata = {
        "model": model.name,
        "n_coils": model.n_coils,
        "task": task.describe(),
        "current_limit": current_limit,
        "orientation": list(orientation),
        "dipole_magnitude": params.dipole_magnitude,
        "magnet_offset": params.magnet_offset,
        "second_agent": list(second_agent) if second_agent is not None else None,
        "grid": grid.describe(),
    }
    return FeasibilityMap(
        grid=grid,
        positions=positions,
        fm=fm,
        flags=tuple(flags),
        metadata=metadata,
    )


def max_feasible_standoff(fmap: FeasibilityMap, axis: int = 2) -> float | None:
    """Largest coordinate along the given axis among feasible points."""
    feas = fmap.feasible
    if not np.any(feas):
        return None
    return float(np.max(fmap.positions[feas, axis]))
