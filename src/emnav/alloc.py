"""Current allocation: mapping field or motion objectives to coil currents.

Two control paradigms are supported.  Field alignment commands a field
direction and lets the dipole align with it; the allocation solves for the
minimum-norm currents realizing the commanded field (and, on redundant
arrays, a zero gradient).  Torque/force allocation commands the two tilt
torques about the actuator pivot and solves for the minimum-norm currents
realizing them in the body-frame (tau_x, tau_y) plane:

    (tau_x, tau_y) = W(alpha, beta) @ A(p) @ i,   W = (R J M)[:2],

where W is ``magmodel.torque_rows``: direct magnetic torque on the dipole
plus the pivot torque of the gradient force acting at the magnet's lever
arm, rotated into the body frame.  The body-z torque is identically zero (no
field torques the dipole about its own axis), so the plane is the whole
achievable set and two rows per agent are all the solve needs.

Every strategy is a pure solve over precomputed actuation matrices A(p),
one per agent: the agents sit at fixed positions, so the caller evaluates
A(p) once.  ``torque_allocator`` and ``field_allocator`` build the
allocation of a run from them, the one the simulator calls each tick: what
does not depend on the command (the field task map and its pseudoinverse,
the two-step field rows' pseudoinverse and rank) is taken once.  The
one-step and multi-agent torque solves go through ``solve_torque_gram``: a
Cholesky factor of the Gram matrix where it certifies the map well
conditioned, else ``solve_torque``, one ``magmodel.pinv_rank`` of the
stacked rows (the Moore-Penrose pseudoinverse with the shared
singular-value cutoff) for the rank check and the solution of minimal
2-norm.  The two-step torque solve takes the smallest field realizing the
torque in closed form (``two_step_field``), then the minimum-norm currents
A_b(p)^+ b.  A call returns only the unclamped currents.  The task
residual, a diagnostic no later tick reads, is formed on demand: a call
logs its task map, target and currents in a log of ``magmodel.BLOCK``
solves, whose norms the caller forms at once (``residual_norms``).
``emnav alloc-bench`` solves its samples in blocks itself, one stacked
pseudoinverse per solve kind and ``two_step_field`` over the block, with
its realized fields, norms, angles and zeta* as vectors.
``allocate_torque_one_step``, ``allocate_torque_two_step``,
``allocate_multi_torque`` and ``allocate_field_alignment`` are each one
call of an allocator and its residual, an ``AllocationResult``, on the
values the allocators take: tilts (alpha, beta), the signed dipole magnitude
polarity * |m|, and body-plane torques (tau_x, tau_y) or field angles.  They
are the per-call forms the tests call and the benchmark's tracer hooks by
name, as it hooks ``zeta_star`` and ``field_and_gradient``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .magmodel import (BLOCK, GRAM_COND_BOUND, body_frames, pinv_rank,
                       torque_row_values, torque_rows)


class RankDeficiencyError(RuntimeError):
    """The actuation geometry cannot realize the requested task."""


class DegenerateTaskError(RuntimeError):
    """A quantity is undefined because a defining vector is numerically zero."""


class AllocationResult(NamedTuple):
    """Currents solving an allocation task.

    Attributes:
        currents: Coil currents [A], unclamped (saturation is applied
            downstream by the simulator / hardware model).
        residual_norm: Task-space residual of the solve (2-norm).
    """

    currents: np.ndarray
    residual_norm: float


def residual_norms(maps: np.ndarray, currents: np.ndarray, targets) -> np.ndarray:
    """||T c - v|| of n solves, shape (n,): ``maps`` one T or n, ``currents``
    (n, cols), ``targets`` (n, rows).  One matrix-vector and one dot product
    per solve: each norm has the bits of sqrt(r . r), r = T @ c - v, alone."""
    r = (maps @ currents[..., None])[..., 0] - targets
    return np.sqrt((r[:, None] @ r[..., None])[:, 0, 0])


def _solved(allocator, angles, commands) -> AllocationResult:
    """One call of a built allocator, with its residual: a per-call wrapper."""
    allocate, logged_residuals = allocator
    currents = allocate(angles, commands, 0)
    return AllocationResult(currents, float(logged_residuals(1)[0]))


def field_and_gradient(
    a_mat: np.ndarray, currents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Field b (3,) [T] and packed gradient g (5,) [T/m] that ``currents``
    produce at the point of A(p): the realized [b; g] a report computes on
    demand from a solve's currents."""
    stacked = a_mat @ currents
    return stacked[:3], stacked[3:]


def solve_torque(task_mat: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimum-norm currents realizing tilt torques on one or more agents.

    ``task_mat`` stacks each agent's (2, n_coils) body-plane map (its
    ``torque_rows`` applied to its A(p)) and ``target`` the agents'
    (tau_x, tau_y).  The stacked system is solvable exactly when the agents'
    planes are jointly independent: rank equal to the row count.  One
    ``pinv_rank`` of the stacked map gives both the rank and the
    pseudoinverse; the per-agent blocks are ranked only to explain a
    deficiency (the stacked rank never exceeds the sum of the block ranks).

    Raises:
        RankDeficiencyError: Naming the deficient agent when one agent's own
            rows are singular (the coil array cannot span its torque plane),
            or reporting a coupled deficiency when the stacked rank falls
            short with individually sound agents.
    """
    pinv, rank = pinv_rank(task_mat)
    if rank < task_mat.shape[0]:
        for idx in range(task_mat.shape[0] // 2):
            if pinv_rank(task_mat[2 * idx : 2 * idx + 2])[1] < 2:
                raise RankDeficiencyError(
                    f"agent {idx}: {TORQUE_RANK_FAILURE.format('')}"
                )
        raise RankDeficiencyError(
            "coupled rank deficiency: agents' torque planes are not jointly "
            "independent (stacked rank < 2 per agent)"
        )
    return pinv @ target


@functools.cache
def _gram_solve(n: int):
    """``gram_solve(g, v)``: y = G^-1 v by a Cholesky factor G = L L^T of
    the n x n ``g`` (nested lists; the lower triangle is read), unrolled in
    Python floats and compiled once per n, as ``dynamics`` compiles the
    plant.  None unless every pivot is positive and trace(G) ||L^-1||_F^2,
    a bound on cond(G), is at most ``GRAM_COND_BOUND``."""

    def less(head: str, pairs) -> str:  # head minus the sum of the products
        total = " + ".join(f"{a} * {b}" for a, b in pairs)
        return f"({head} - ({total}))" if total else head

    rows = (", ".join(f"g{i}{j}" for j in range(n)) for i in range(n))
    lines = [f"({',), ('.join(rows)},) = g",
             f"{', '.join(f'v{i}' for i in range(n))}, = v"]
    for j in range(n):  # the factor L, by columns
        pivot = less(f"g{j}{j}", [(f"l{j}{k}", f"l{j}{k}") for k in range(j)])
        lines += [f"d = {pivot}", "if not d > 0.0:", "    return None",
                  f"l{j}{j} = sqrt(d)"]
        for i in range(j + 1, n):
            entry = less(f"g{i}{j}", [(f"l{i}{k}", f"l{j}{k}") for k in range(j)])
            lines.append(f"l{i}{j} = {entry} / l{j}{j}")
    lower = [(i, j) for i in range(n) for j in range(i + 1)]
    for i, j in lower:  # M = L^-1, by rows
        terms = [(f"l{i}{k}", f"m{k}{j}") for k in range(j, i)]
        entry = less(f"{float(i == j)}", terms)
        lines.append(f"m{i}{j} = {entry} / l{i}{i}")
    trace = " + ".join(f"g{i}{i}" for i in range(n))
    frob = " + ".join(f"m{i}{j} * m{i}{j}" for i, j in lower)
    lines += [f"if not ({trace}) * ({frob}) <= {GRAM_COND_BOUND!r}:", "    return None"]
    for i in range(n):  # L z = v
        entry = less(f"v{i}", [(f"l{i}{k}", f"z{k}") for k in range(i)])
        lines.append(f"z{i} = {entry} / l{i}{i}")
    for i in reversed(range(n)):  # L^T y = z
        entry = less(f"z{i}", [(f"l{k}{i}", f"y{k}") for k in range(i + 1, n)])
        lines.append(f"y{i} = {entry} / l{i}{i}")
    lines.append(f"return [{', '.join(f'y{i}' for i in range(n))}]")
    source = "def gram_solve(g, v):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {"sqrt": math.sqrt}
    exec(compile(source, f"<emnav.alloc gram_solve {n}>", "exec"), namespace)
    return namespace["gram_solve"]


def solve_torque_gram(task_mat: np.ndarray, target: list) -> np.ndarray:
    """``solve_torque`` by the normal equations x = T^T (T T^T)^-1 v where
    ``_gram_solve`` certifies them (within about 1e-8 relative of the
    pseudoinverse solve at the bound), else by ``solve_torque`` itself, so
    rank verdicts and errors stay the SVD's.  ``target`` is a list."""
    y = _gram_solve(len(target))((task_mat @ task_mat.T).tolist(), target)
    if y is None:
        return solve_torque(task_mat, np.array(target))
    return np.array(y) @ task_mat


def field_rows(n_agents: int, n_coils: int) -> int:
    """Rows of A(p) in each agent's field task: all eight [b; g] rows for
    one agent on 8 or more coils (the field with no gradient, so an aligned
    dipole feels no stray force), else the three field rows, as more rows
    would overdetermine the task and under-deliver the field."""
    return 8 if n_agents == 1 and n_coils >= 8 else 3


def field_map(a_mats: list[np.ndarray]) -> np.ndarray:
    """The field task map: each agent's ``field_rows`` of its A(p), stacked.
    The stacked least-squares solve trades residuals across agents when the
    tasks exceed the array's span."""
    n_rows = field_rows(len(a_mats), a_mats[0].shape[1])
    return np.vstack([a_mat[:n_rows] for a_mat in a_mats])


def field_allocator(
    a_mats: list[np.ndarray], polarities: list[int], magnitude: float
):
    """The field-alignment allocation of agents at fixed points, built once:
    the pseudoinverse of their ``field_map`` is taken here.  Returns
    ``(allocate, logged_residuals)``.  ``allocate(angles, commands, slot)``
    returns the currents realizing each agent's field of its (u_alpha,
    u_beta) in ``commands``, pointed along the desired dipole axis,
    magnitude * (sin u_alpha cos u_beta, -sin u_beta, cos u_alpha cos u_beta),
    and zero gradient rows; ``angles`` is unread.  It logs them and the
    target, built in Python floats, at ``slot`` of ``BLOCK`` entries:
    ``logged_residuals(n)`` is the ``residual_norms`` of slots below n.
    """
    task_mat = field_map(a_mats)
    pinv = pinv_rank(task_mat)[0]
    padding = [0.0] * (task_mat.shape[0] - 3 * len(a_mats))
    targets, log = (np.empty((BLOCK, size)) for size in task_mat.shape)

    def allocate(angles, commands, slot: int) -> np.ndarray:
        target = []
        for polarity, (u_a, u_b) in zip(polarities, commands):
            if polarity != 1:
                # A polarity -1 magnet aligns antiparallel to the field, so its
                # commanded field direction is inverted: -b(u, v) = b(pi + u, -v).
                u_a, u_b = math.pi + u_a, -u_b
            ca, sa = math.cos(u_a), math.sin(u_a)
            cb, sb = math.cos(u_b), math.sin(u_b)
            target += (magnitude * (sa * cb), magnitude * -sb, magnitude * (ca * cb))
        targets[slot] = target + padding
        return np.matmul(pinv, targets[slot], out=log[slot])

    return allocate, lambda n: residual_norms(task_mat, log[:n], targets[:n])


def allocate_field_alignment(
    a_mat: np.ndarray, u_alpha: float, u_beta: float, magnitude: float
) -> AllocationResult:
    """Minimum-norm currents realizing the field of ``magnitude`` along the
    tilts (u_alpha, u_beta) at the point of A(p), shape (8, n_coils): one
    call of the one-agent ``field_allocator``."""
    return _solved(field_allocator([a_mat], [1], magnitude), (), [(u_alpha, u_beta)])


#: A torque solve's rank failure, formatted with where it fails: "" after an
#: agent's name, or " at p = (x, y, z)": W A(p) must span the torque plane.
TORQUE_RANK_FAILURE = (
    "torque map rank-deficient{}: the coil array cannot span the torque plane "
    "perpendicular to the dipole"
)

#: The two-step solve's rank failure, formatted with the point p: the field
#: rows A_b(p) must span every field vector.
FIELD_RANK_FAILURE = (
    "field rows rank-deficient at p = {}: two-step allocation needs full "
    "field authority"
)

#: ||A_b^+ m||^2 below which zeta* is undefined (no field along the dipole).
ZETA_DEGENERACY = 1.0e-12


def two_step_field(
    rows: np.ndarray, torques: np.ndarray, mag_pol: float
) -> np.ndarray:
    """The smallest field realizing body-plane torques: b = skew(m)^+ tau.

    ``rows`` are the field columns of the lever-0 ``torque_rows``,
    W0 = mag_pol * (-e_y; e_x), shape (..., 2, 3), and ``torques`` the
    (tau_x, tau_y) tasks, shape (..., 2); ``mag_pol`` is the signed dipole
    magnitude.  For a torque perpendicular to m, skew(m)^+ tau_world =
    (tau_world x m) / |m|^2 (skew of a unit vector is a partial isometry),
    and with tau_world = e_x tau_x + e_y tau_y that is W0^T tau / mag_pol^2:
    a field perpendicular to the moment.  It divides by mag_pol twice, since
    the square of a dipole of 1e-300 underflows to 0.
    """
    return np.einsum("...rk,...r->...k", rows, torques) / mag_pol / mag_pol


def torque_allocator(
    a_mats: list[np.ndarray],
    mag_pols: list[float],
    lever: float,
    two_step_at: tuple | None = None,
):
    """The torque allocation of agents at fixed points, built once.

    ``a_mats`` holds each agent's A(p), ``mag_pols`` its polarity * |m| and
    ``lever`` the pivot-to-magnet distance of its ``torque_rows``.  Returns
    ``(allocate, logged_residuals)``, as ``field_allocator`` does; the
    currents realize each agent's (alpha-channel, beta-channel) torques
    (tau_y, tau_x) at its tilts, the leading (alpha, beta) of its entry in
    ``angles``.  A call makes the agents' rows one array and logs their
    product with the stacked A(p), which ``solve_torque_gram`` solves.
    With ``two_step_at``, one agent's point p, it is the two-step solve on
    the rows' field columns W0, which ``lever`` does not enter
    (``two_step_field``, then A_b(p)^+ b), logging W0 for the residual
    ||W0 (A_b c) - v||; the field rows' pseudoinverse and rank are taken
    here, and rank < 3 fails every call.
    """
    a_stack = np.stack(a_mats)  # (agents, 8, n_coils)
    n_rows, n_coils = 2 * len(a_mats), a_stack.shape[2]
    targets, log = np.empty((BLOCK, n_rows)), np.empty((BLOCK, n_coils))
    maps = np.empty((BLOCK, n_rows, n_coils) if two_step_at is None else (BLOCK, 2, 3))
    if two_step_at is not None:  # pure field torque, through A_b^+ (one agent)
        a_b = a_mats[0][:3]
        pinv_b, rank_b = pinv_rank(a_b)
        rank_failure = FIELD_RANK_FAILURE.format(tuple(float(c) for c in two_step_at))

    def allocate(angles, commands, slot: int) -> np.ndarray:
        rows = np.array([torque_row_values(tilts[0], tilts[1], mag_pol, lever)
                         for tilts, mag_pol in zip(angles, mag_pols)])
        targets[slot] = target = [t for out_a, out_b in commands
                                  for t in (out_b, out_a)]
        if two_step_at is None:
            np.matmul(rows, a_stack, out=maps[slot].reshape(-1, 2, n_coils))
            log[slot] = solve_torque_gram(maps[slot], target)
        elif rank_b < 3:
            raise RankDeficiencyError(rank_failure)
        else:
            maps[slot] = w0 = rows[0, :, :3]
            log[slot] = pinv_b @ two_step_field(w0, target, mag_pols[0])
        return log[slot]

    def logged_residuals(n: int) -> np.ndarray:
        mapped = log[:n] if two_step_at is None else (a_b @ log[:n, :, None])[..., 0]
        return residual_norms(maps[:n], mapped, targets[:n])

    return allocate, logged_residuals


def allocate_torque_one_step(
    a_mat: np.ndarray,
    tilts: tuple[float, float],
    mag_pol: float,
    tau: tuple[float, float],
    lever: float,
) -> AllocationResult:
    """One-step minimum-norm currents realizing body-plane torques ``tau`` =
    (tau_x, tau_y) on a dipole of ``tilts`` (alpha, beta) and signed
    magnitude ``mag_pol``, through W A(p), W the ``torque_rows`` at ``lever``
    (the magnet offset, or 0 for the pure field torque): one call of the
    one-agent ``torque_allocator``, which raises ``RankDeficiencyError``
    where W A(p) does not span the torque plane."""
    # The allocator takes the (alpha, beta)-channel torques, (tau_y, tau_x).
    return _solved(torque_allocator([a_mat], [mag_pol], lever), [tilts], [tau[::-1]])


def allocate_torque_two_step(
    a_mat: np.ndarray,
    tilts: tuple[float, float],
    mag_pol: float,
    tau: tuple[float, float],
    p: tuple[float, float, float],
) -> AllocationResult:
    """Two-step torque allocation: the smallest field realizing ``tau``,
    b = skew(m)^+ tau (``two_step_field``, orthogonal to the moment), then
    the minimum-norm currents A_b(p)^+ b: one call of the two-step
    ``torque_allocator``.  ``p`` names the point of a rank failure
    (``RankDeficiencyError`` where rank A_b(p) < 3)."""
    return _solved(torque_allocator([a_mat], [mag_pol], 0.0, p), [tilts], [tau[::-1]])


def zeta_star(
    a_mat: np.ndarray,
    tilts: tuple[float, float],
    mag_pol: float,
    tau: tuple[float, float],
) -> float:
    """Optimal dipole-parallel field shift between one- and two-step solves.

    For the pure field-torque map, the one-step currents equal the two-step
    currents plus zeta* A_b^+ m: shifting the realized field along the
    dipole direction changes no torque but can shrink the current norm.

        zeta* = -(A_b^+ b)^T (A_b^+ m) / ||A_b^+ m||^2,   b = skew(m)^+ tau,

    with the moment m = mag_pol * axis, the third column of ``body_frames``.

    Raises:
        DegenerateTaskError: If ||A_b^+ m||^2 < ZETA_DEGENERACY (no current
            pattern makes field along the dipole; the shift is degenerate).
    """
    rows = torque_rows(tilts[0], tilts[1], mag_pol, 0.0)[:, :3]
    b_two = two_step_field(rows, np.array(tau), mag_pol)
    a_b_pinv = pinv_rank(a_mat[:3])[0]
    u = a_b_pinv @ (mag_pol * body_frames(*tilts)[0, :, 2])
    den = float(u @ u)
    if den < ZETA_DEGENERACY:
        raise DegenerateTaskError(
            "||A_b^+ m|| is numerically zero; the dipole-parallel current "
            "direction is degenerate"
        )
    return -float((a_b_pinv @ b_two) @ u) / den


def allocate_multi_torque(
    a_mats: list[np.ndarray],
    tilts: list[tuple[float, float]],
    mag_pols: list[float],
    taus: list[tuple[float, float]],
    lever: float,
) -> AllocationResult:
    """Minimum-norm currents realizing each agent's (tau_x, tau_y) at once,
    on the stacked body-plane maps: one call of their ``torque_allocator``
    (``solve_torque`` names the agent of a rank failure)."""
    if not len(a_mats) == len(tilts) == len(mag_pols) == len(taus) > 0:
        raise ValueError("a_mats, tilts, mag_pols and taus must be equal-length, "
                         "non-empty")
    return _solved(torque_allocator(a_mats, mag_pols, lever), tilts,
                   [t[::-1] for t in taus])
