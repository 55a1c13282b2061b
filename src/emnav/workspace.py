"""Electromagnetic-workspace analysis.

Evaluates the feasibility margin — the coil-current headroom left after
serving a task set — over position grids, for both the torque paradigm
(a box of body-frame tilt torques) and the field paradigm (a fixed field
vector), with single- and two-agent variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .alloc import field_rows
from .dynamics import PendulumParams
from .export import text_lookup, write_csv, write_json
from .magmodel import (
    BLOCK,
    ActuationModel,
    actuation_matrices,
    actuation_matrix,
    pinv_rank,
    torque_rows,
)

__all__ = [
    "TaskSet",
    "GridSpec",
    "FeasibilityMap",
    "workspace_map",
    "max_feasible_standoff",
]

TASK_KINDS = ("torque-box", "fixed-field")

#: Grid points closer than this to the second agent are flagged
#: "near-contact": point-dipole superposition is unreliable there [m].
NEAR_CONTACT_DISTANCE = 0.01

#: Most points one grid may hold, checked from the axis counts before any
#: array is allocated.  A finished map holds 40 B per point and one being
#: built peaks near 100 B per point (positions, meshgrid temporaries,
#: margins, flags, offsets to a second agent; measured with tracemalloc), so
#: a two-task `emnav workspace` run stays near 140 MB at the cap.  The CSV
#: export adds a sorted copy of a column and a text per distinct coordinate
#: (and margin, if at most n/4 are): at 41^3 = 68,921 points, the largest map
#: in use, 1.4 MB for octomag8's torque map and 1.0 MB for its field map.
MAX_GRID_POINTS = 1_000_000


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
    lines and planes are expressed naturally.  A grid of more than
    ``MAX_GRID_POINTS`` points is rejected.
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
        count = math.prod(self._axis_count(name) for name in ("x", "y", "z"))
        if count > MAX_GRID_POINTS:
            raise ValueError(
                f"grid has {count} points, more than the cap of {MAX_GRID_POINTS}"
            )

    def _axis_count(self, name: str) -> int:
        lo, hi = getattr(self, name)
        if hi < lo:
            return 0
        # Clamped so that an axis too long to sample still counts finitely.
        steps = min((hi - lo) / self.spacing, MAX_GRID_POINTS)
        return int(math.floor(steps + 1e-9)) + 1

    def axis_values(self, name: str) -> np.ndarray:
        lo = getattr(self, name)[0]
        return lo + self.spacing * np.arange(self._axis_count(name))

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

    ``fm`` is the current headroom in amps at each point; it is -inf, and
    the point is flagged "singular", wherever the stacked task map (the
    torque or field rows of every agent over the coils) cannot realize the
    task set: for the torque box, where its rank is below its row count;
    for the fixed field, where the one target lies outside its range.
    ``feasible`` is exactly ``fm > 0``; ``flags`` carries per-point caveats
    ("singular", "near-contact").
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
        # A lattice axis holds few distinct coordinates: each is formatted
        # once per map, and the rows share its string; so are the margins of
        # a map where at most a quarter are distinct (a symmetric one), and
        # ``fm`` is formatted inline otherwise.  ``feasible`` is written as
        # text, the bytes "%.17g" gives 1.0 and 0.0.
        rows = self.positions.shape[0]
        axes = [text_lookup(self.positions[:, k]) for k in range(3)]
        margins = text_lookup(self.fm, rows // 4) or (lambda fm: fm)

        def block(start: int, stop: int) -> list:
            fm = self.fm[start:stop]
            return [*(axes[k](self.positions[start:stop, k]) for k in range(3)),
                    margins(fm), list(map(("0", "1").__getitem__, (fm > 0.0).tolist())),
                    self.flags[start:stop]]

        write_csv(path, ("x", "y", "z", "fm", "feasible", "flag"), rows, block)

    def write_metadata(self, path) -> None:
        write_json(path, {**self.metadata, "feasible_count": self.feasible_count,
                          "total_points": int(self.positions.shape[0])})


#: A fixed-field task whose least-squares residual exceeds this fraction of
#: its norm is out of the stack's range.  A reachable task leaves a residual
#: near machine epsilon times the stack's condition number: far below this
#: unless the condition number nears 1e10, where the currents exceed any
#: limit anyway.
_REACH_RTOL = 1.0e-6

_FLAG_LABELS = ("", "singular", "near-contact", "singular+near-contact")


def _check_finite(values: np.ndarray, kind: str, start: int) -> None:
    """Raise FloatingPointError naming the first point of a block (its
    first point at ``start``) with a value that is not finite."""
    bad = np.flatnonzero(~np.isfinite(values).reshape(len(values), -1).all(axis=1))
    if bad.size:
        raise FloatingPointError(f"the {kind} task's currents overflow at grid "
                                 f"point {start + int(bad[0])}")


def _worst_currents(
    model: ActuationModel,
    tasks: list[tuple[str, float]],
    positions: np.ndarray,
    params: PendulumParams | None,
    orientation: tuple[float, float],
    second_agent: tuple[float, float, float] | None,
) -> list[np.ndarray]:
    """Largest coil current each task demands at each position [A].

    One array per (kind, size) pair of ``tasks``, size being tau_bar or the
    field magnitude.  Each point's task rows are a fixed row map W applied
    to its actuation matrix A(p):

    - torque box: the body-frame (tau_x, tau_y) rows, W = (R J M)[:2]
      (``magmodel.torque_rows``, the rows the torque allocations solve
      over); the body-z row is identically zero (the wrench is
      perpendicular to the dipole axis).  W depends only on orientation
      and dipole.  The worst case of |P v|_inf over the box |v_k| <= tau_bar, with P the
      pseudoinverse, is tau_bar * max_i sum_k |P_ik|: the induced infinity
      norm of P (Horn & Johnson, Matrix Analysis, 5.6).
    - fixed field: the first ``alloc.field_rows`` rows of A(p), sliced: the
      field allocation's task, the [b; g] rows with a zero-gradient task for
      one agent on arrays of 8 or more coils, else the field rows.

    W, the target and a second agent's rows, stacked under every point, are
    formed once per task.  A block of ``BLOCK`` points takes one A(p) for
    every task and one ``pinv_rank`` per task (certified normal equations or,
    for a square stack such as one agent's 8 x 8 on octomag8, its inverse;
    an SVD at the points it does not certify) for the rank and the
    pseudoinverse.  A task the stack cannot realize gives +inf:

    - torque box: the box spans the task rows, so every task is realizable
      exactly when the stack's rank equals its row count (two agents' four
      torque rows on three coils fall short).
    - fixed field: the set is one vector, which is realizable exactly when
      the least-squares residual vanishes; a residual above ``_REACH_RTOL``
      of the task's norm marks it out of reach, whatever the rank.

    A demand (torque box) or currents (fixed field) that are not finite
    overflowed: they raise FloatingPointError, naming the first such point,
    before either test, so +inf means a rank or reach failure only.
    """
    a_other = (None if second_agent is None
               else actuation_matrix(model, np.asarray(second_agent, float)))
    plans = []  # kind, W or a field's row count, W A_other, target, size
    for kind, size in tasks:
        if kind == "torque-box":
            rows = torque_rows(*orientation, params.dipole_magnitude,
                               params.magnet_offset)
            task = None
        else:
            rows = field_rows(1 if second_agent is None else 2, model.n_coils)
            task = np.zeros(rows)
            task[2] = size
        other = None
        if a_other is not None:
            other = rows @ a_other if task is None else a_other[:rows]
            if task is not None:
                task = np.concatenate([task, task])
        plans.append((kind, rows, other, task, size))

    worst = [np.empty(positions.shape[0]) for _ in tasks]
    for start in range(0, positions.shape[0], BLOCK):
        a_mats = actuation_matrices(model, positions[start : start + BLOCK])
        for (kind, rows, other, task, size), out in zip(plans, worst):
            stack = rows @ a_mats if task is None else a_mats[:, :rows]
            if other is not None:
                tail = np.broadcast_to(other, (stack.shape[0],) + other.shape)
                stack = np.concatenate([stack, tail], axis=1)
            pinv, rank = pinv_rank(stack)
            block = out[start : start + BLOCK]
            if task is None:
                block[:] = size * np.max(np.sum(np.abs(pinv), axis=2), axis=1)
                _check_finite(block, kind, start)
                block[rank < stack.shape[1]] = math.inf
            else:
                currents = pinv @ task
                _check_finite(currents, kind, start)
                block[:] = np.max(np.abs(currents), axis=1)
                miss = np.einsum("brn,bn->br", stack, currents) - task
                reach = _REACH_RTOL * np.linalg.norm(task)
                block[np.linalg.norm(miss, axis=1) > reach] = math.inf
    return worst


@np.errstate(over="ignore", invalid="ignore")
def workspace_map(
    model: ActuationModel,
    tasks: list[TaskSet],
    grid: GridSpec,
    current_limit: float,
    *,
    params: PendulumParams | None = None,
    orientation: tuple[float, float] = (0.0, 0.0),
    second_agent: tuple[float, float, float] | None = None,
) -> list[FeasibilityMap]:
    """Feasibility margin of each task over a grid, optionally with a fixed
    second agent: one map per task, in their order.

    The grid is evaluated in batches by ``_worst_currents``, one A(p) per
    batch for every task; a second agent stacks its own copy of each task
    under every point.  Grid points closer than 1 cm to the second agent are
    flagged "near-contact" (dipole superposition is unreliable there).
    """
    if not current_limit > 0.0:
        raise ValueError("current_limit must be strictly positive")
    if params is None and any(task.kind == "torque-box" for task in tasks):
        raise ValueError("torque-box maps require pendulum params")
    if params is None:
        params = PendulumParams()
    positions = grid.positions()
    sizes = [(t.kind, t.tau_bar if t.kind == "torque-box" else t.field_magnitude)
             for t in tasks]
    worst = _worst_currents(model, sizes, positions, params, orientation,
                            second_agent)

    near = np.zeros(positions.shape[0], dtype=bool)
    if second_agent is not None:
        offsets = positions - np.asarray(second_agent, float)
        near = np.linalg.norm(offsets, axis=1) < NEAR_CONTACT_DISTANCE
    metadata = {
        "model": model.name,
        "n_coils": model.n_coils,
        "current_limit": current_limit,
        "orientation": list(orientation),
        "dipole_magnitude": params.dipole_magnitude,
        "magnet_offset": params.magnet_offset,
        "second_agent": list(second_agent) if second_agent is not None else None,
        "grid": grid.describe(),
    }
    maps = []
    for task, demand in zip(tasks, worst):
        fm = current_limit - demand
        codes = (~np.isfinite(fm)).astype(int) + 2 * near
        flags = tuple(map(_FLAG_LABELS.__getitem__, codes.tolist()))
        maps.append(FeasibilityMap(grid, positions, fm, flags,
                                   {**metadata, "task": task.describe()}))
    return maps


def max_feasible_standoff(fmap: FeasibilityMap, axis: int = 2) -> float | None:
    """Largest coordinate along the given axis among feasible points."""
    feas = fmap.feasible
    if not np.any(feas):
        return None
    return float(np.max(fmap.positions[feas, axis]))
