"""Current allocation: mapping field or motion objectives to coil currents.

Two control paradigms are supported.  Field alignment commands a field
direction and lets the dipole align with it; the allocation solves for the
minimum-norm currents realizing the commanded field (and, on redundant
arrays, a zero gradient).  Torque/force allocation commands a torque about
the actuator pivot and solves for the minimum-norm currents realizing it
through the composed map

    torque = J(alpha, beta) @ M(alpha, beta) @ A(p) @ i,

which combines direct magnetic torque on the dipole with the pivot torque of
the gradient force acting at the magnet's lever arm.

Every strategy is a pure solve over a precomputed actuation matrix A(p)
(``a_mat``, or one per agent in ``a_mats``): the agents sit at fixed
positions, so the caller evaluates A(p) once.  Each solve uses
``magmodel.pinv_rank``, the Moore-Penrose pseudoinverse with the shared
singular-value cutoff, which yields the exact solution of minimal 2-norm
whenever the task is achievable; a torque solve takes its rank check and its
solution from the same SVD.  A solve returns only the currents and the task
residual.  Diagnostics (the realized field from ``field_and_gradient``,
norms, zeta*) are computed on demand from the currents and A(p) by the
caller that reports them.  Multi-step variants (pseudoinverting the factors
separately) are provided for norm-comparison studies; they are never cheaper
than the one-step solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PendulumParams
from .magmodel import DipoleAgent, pinv_rank, skew, wrench_maps


class RankDeficiencyError(RuntimeError):
    """The actuation geometry cannot realize the requested task."""


class DegenerateTaskError(RuntimeError):
    """A quantity is undefined because a defining vector is numerically zero."""


@dataclass(frozen=True)
class FieldCommand:
    """Commanded field direction (two tilt angles) and magnitude.

    The commanded field vector is
    |b| * (sin u_alpha cos u_beta, -sin u_beta, cos u_alpha cos u_beta),
    i.e. the field is pointed along the desired dipole axis.
    """

    u_alpha: float
    u_beta: float
    magnitude: float

    def __post_init__(self) -> None:
        if self.magnitude < 0.0:
            raise ValueError("field magnitude must be non-negative")

    @property
    def setpoint(self) -> np.ndarray:
        ca, sa = math.cos(self.u_alpha), math.sin(self.u_alpha)
        cb, sb = math.cos(self.u_beta), math.sin(self.u_beta)
        return self.magnitude * np.array([sa * cb, -sb, ca * cb])


@dataclass(frozen=True)
class WrenchTask:
    """Torque task in the actuator body frame, optional world-frame force.

    The third body-frame torque component must be zero: torques about the
    dipole axis are unactuated (fields exert no torque along the moment), so
    only the two tilt torques are commanded.
    """

    tau_c_body: tuple[float, float, float]
    force: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau_c_body, dtype=float)
        if tau.shape != (3,):
            raise ValueError("tau_c_body must be a 3-vector")
        if tau[2] != 0.0:
            raise ValueError("body-frame torque must have zero third component")
        object.__setattr__(self, "tau_c_body", tuple(float(c) for c in tau))
        if self.force is not None:
            f = np.asarray(self.force, dtype=float)
            if f.shape != (3,):
                raise ValueError("force must be a 3-vector")
            object.__setattr__(self, "force", tuple(float(c) for c in f))

    @classmethod
    def planar(cls, tau_x: float, tau_y: float) -> "WrenchTask":
        return cls(tau_c_body=(tau_x, tau_y, 0.0))


@dataclass(frozen=True)
class AllocationResult:
    """Currents solving an allocation task.

    Attributes:
        currents: Coil currents [A], unclamped (saturation is applied
            downstream by the simulator / hardware model).
        residual_norm: Task-space residual of the solve (2-norm).
    """

    currents: np.ndarray
    residual_norm: float


def _solve(
    task_mat: np.ndarray, pinv: np.ndarray, target: np.ndarray
) -> AllocationResult:
    """Currents pinv @ target and the residual of task_mat against target."""
    currents = pinv @ target
    return AllocationResult(
        currents, float(np.linalg.norm(task_mat @ currents - target))
    )


def field_and_gradient(
    a_mat: np.ndarray, currents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Field b (3,) [T] and packed gradient g (5,) [T/m] that ``currents``
    produce at the point of A(p): the realized [b; g] a report computes on
    demand from a solve's currents."""
    stacked = a_mat @ currents
    return stacked[:3], stacked[3:]


def composed_torque_map(
    a_mat: np.ndarray,
    agent: DipoleAgent,
    params: PendulumParams,
) -> np.ndarray:
    """Full torque-from-currents map J @ M @ A(p), shape (3, n_coils).

    Its image lies in the plane perpendicular to the dipole axis: both the
    field torque m x b and the lever-arm torque l_m * axis x f are orthogonal
    to the axis, so the map has rank at most 2.
    """
    maps = wrench_maps(agent, params.magnet_offset)
    return maps.jac @ maps.stacked @ a_mat


def world_torque(agent: DipoleAgent, task: WrenchTask) -> np.ndarray:
    """Commanded torque rotated from the actuator body frame to the world.

    The optional desired force is not folded in here; callers that know the
    magnet offset add its lever-arm torque where appropriate.
    """
    return agent.rotation_t @ np.asarray(task.tau_c_body, dtype=float)


def _pivot_torque_task(
    a_mat: np.ndarray, agent: DipoleAgent, params: PendulumParams, task: WrenchTask
) -> tuple[np.ndarray, np.ndarray]:
    """The composed map J M A(p) and the pivot torque it must realize.

    A desired force adds its lever-arm torque to the commanded torque.
    """
    tau_c = world_torque(agent, task)
    if task.force is not None:
        maps = wrench_maps(agent, params.magnet_offset)
        tau_c = tau_c + maps.jac_tilde @ np.asarray(task.force, dtype=float)
    return composed_torque_map(a_mat, agent, params), tau_c


def allocate_field_alignment(
    a_mat: np.ndarray, command: FieldCommand
) -> AllocationResult:
    """Minimum-norm currents realizing a commanded field at the point of A(p).

    On arrays of 8 or more coils the task is the stacked target
    [b_setpoint; zero gradient]: the allocation asks for the commanded field
    with no field gradients, so a field-aligned dipole feels pure torque and
    no stray force.  On smaller arrays that stacked task is overdetermined
    and its least-squares solution would under-deliver the field, so the
    task is the three field rows alone.

    Args:
        a_mat: Actuation matrix A(p), shape (8, n_coils).
        command: Field direction/magnitude command.

    Returns:
        AllocationResult; residual_norm is the 2-norm mismatch of the task
        (zero when the array spans it).
    """
    b_sp = command.setpoint
    if a_mat.shape[1] >= 8:
        task_mat = a_mat
        task_vec = np.concatenate([b_sp, np.zeros(5)])
    else:
        task_mat = a_mat[:3]
        task_vec = b_sp
    return _solve(task_mat, pinv_rank(task_mat)[0], task_vec)


def allocate_torque_one_step(
    a_mat: np.ndarray,
    agent: DipoleAgent,
    params: PendulumParams,
    task: WrenchTask,
    include_force: bool = True,
) -> AllocationResult:
    """One-step minimum-norm currents for a torque task.

    With include_force=True (default) the solve runs through the full
    composed map J M A(p), exploiting gradient forces at the magnet lever
    arm; with include_force=False it uses the pure field-torque map
    skew(m) A_b(p), the single-agent simplification that ignores gradient
    forces.

    The commanded world torque is always perpendicular to the dipole axis
    (zero body-z component), which is exactly the achievable plane of either
    map, so a non-singular geometry yields a zero-residual solution.

    Raises:
        RankDeficiencyError: If the torque map does not span the plane
            perpendicular to the dipole axis at p (magnetic singularity).
    """
    if include_force:
        g_map, tau_c = _pivot_torque_task(a_mat, agent, params, task)
    else:
        g_map = skew(agent.moment) @ a_mat[:3]
        tau_c = world_torque(agent, task)
    pinv, rank = pinv_rank(g_map)
    if rank < 2:
        raise RankDeficiencyError(
            f"torque map rank-deficient at p = {agent.p}: the coil array "
            "cannot span the torque plane perpendicular to the dipole"
        )
    return _solve(g_map, pinv, tau_c)


def allocate_torque_two_step(
    a_mat: np.ndarray,
    agent: DipoleAgent,
    task: WrenchTask,
) -> AllocationResult:
    """Two-step torque allocation: minimum-norm field first, then currents.

    Computes b = skew(m)^+ tau (the smallest field producing the commanded
    torque, always orthogonal to the dipole moment), then the minimum-norm
    currents realizing that field.  Gradient forces are not exploited; this
    is the pure-torque simplification.

    Raises:
        RankDeficiencyError: If rank(A_b(p)) < 3, i.e. the array cannot
            realize arbitrary field vectors at p.
    """
    tau_c = world_torque(agent, task)
    m_b = skew(agent.moment)
    b_des = pinv_rank(m_b)[0] @ tau_c
    a_b = a_mat[:3]
    pinv, rank = pinv_rank(a_b)
    if rank < 3:
        raise RankDeficiencyError(
            f"field rows rank-deficient at p = {agent.p}: two-step "
            "allocation needs full field authority"
        )
    currents = pinv @ b_des
    residual = float(np.linalg.norm(m_b @ (a_b @ currents) - tau_c))
    return AllocationResult(currents, residual)


def allocate_torque_twostep_jm(
    a_mat: np.ndarray,
    agent: DipoleAgent,
    params: PendulumParams,
    task: WrenchTask,
) -> AllocationResult:
    """Diagnostic multi-step variant i = A^+ (J M)^+ tau.

    Splits the composed map after the field/gradient stage.  Exact only when
    the intermediate field/gradient target is itself realizable; never
    smaller in norm than the one-step solution.
    """
    tau_c = world_torque(agent, task)
    maps = wrench_maps(agent, params.magnet_offset)
    jm = maps.jac @ maps.stacked  # (3, 8)
    currents = pinv_rank(a_mat)[0] @ (pinv_rank(jm)[0] @ tau_c)
    residual = float(np.linalg.norm(jm @ (a_mat @ currents) - tau_c))
    return AllocationResult(currents, residual)


def allocate_torque_twostep_ma(
    a_mat: np.ndarray,
    agent: DipoleAgent,
    params: PendulumParams,
    task: WrenchTask,
) -> AllocationResult:
    """Diagnostic multi-step variant i = (M A)^+ J^+ tau.

    Splits the composed map after the wrench stage.  The intermediate
    [torque; force] target distributes the task across both pathways by
    least squares instead of letting the current solve choose.
    """
    tau_c = world_torque(agent, task)
    maps = wrench_maps(agent, params.magnet_offset)
    ma = maps.stacked @ a_mat  # (6, n)
    wrench = pinv_rank(maps.jac)[0] @ tau_c  # (6,)
    currents = pinv_rank(ma)[0] @ wrench
    residual = float(np.linalg.norm(maps.jac @ (ma @ currents) - tau_c))
    return AllocationResult(currents, residual)


def zeta_star(
    a_mat: np.ndarray,
    agent: DipoleAgent,
    task: WrenchTask,
) -> float:
    """Optimal dipole-parallel field shift between one- and two-step solves.

    For the pure field-torque map, the one-step currents equal the two-step
    currents plus zeta* A_b^+ m: shifting the realized field along the
    dipole direction changes no torque but can shrink the current norm.

        zeta* = -(A_b^+ b)^T (A_b^+ m) / ||A_b^+ m||^2,   b = skew(m)^+ tau.

    Raises:
        DegenerateTaskError: If ||A_b^+ m|| < 1e-12 (no current pattern
            produces field along the dipole; the shift family is degenerate).
    """
    tau_c = world_torque(agent, task)
    m = agent.moment
    b_two = pinv_rank(skew(m))[0] @ tau_c
    a_b_pinv = pinv_rank(a_mat[:3])[0]
    u = a_b_pinv @ m
    den = float(u @ u)
    if den < 1.0e-12:
        raise DegenerateTaskError(
            "||A_b^+ m|| is numerically zero; the dipole-parallel current "
            "direction is degenerate"
        )
    return -float((a_b_pinv @ b_two) @ u) / den


def allocate_multi_field(
    a_mats: list[np.ndarray],
    commands: list[FieldCommand],
) -> AllocationResult:
    """Minimum-norm currents realizing independent field commands at several
    positions simultaneously (stacked field rows, one 3-row block per agent).

    The shared coils couple all agents; the stacked least-squares solve
    trades residuals across agents when the tasks exceed the array's span.
    """
    if len(a_mats) != len(commands) or len(a_mats) == 0:
        raise ValueError("a_mats and commands must be equal-length, non-empty")
    stacked = np.vstack([a_mat[:3] for a_mat in a_mats])
    target = np.concatenate([c.setpoint for c in commands])
    return _solve(stacked, pinv_rank(stacked)[0], target)


def allocate_multi_torque(
    a_mats: list[np.ndarray],
    agents: list[DipoleAgent],
    params: PendulumParams,
    tasks: list[WrenchTask],
) -> AllocationResult:
    """Minimum-norm currents realizing independent torque tasks on several
    agents simultaneously (stacked composed maps).

    Each agent contributes a rank-2 torque plane; the stacked system is
    solvable exactly when the planes are jointly independent (stacked rank
    equal to twice the agent count).  Only the stacked map is decomposed on
    the way to a solution; the per-agent blocks are ranked only to explain a
    deficiency (the stacked rank never exceeds the sum of the block ranks).

    Raises:
        RankDeficiencyError: Naming the deficient agent when one agent's own
            torque map is singular, or reporting a coupled deficiency when
            the stacked rank falls short with individually sound agents.
    """
    if not len(a_mats) == len(agents) == len(tasks) or len(agents) == 0:
        raise ValueError("a_mats, agents and tasks must be equal-length, non-empty")
    blocks = [
        _pivot_torque_task(a_mat, agent, params, task)
        for a_mat, agent, task in zip(a_mats, agents, tasks)
    ]
    stacked = np.vstack([g_i for g_i, _ in blocks])
    pinv, rank = pinv_rank(stacked)
    if rank < 2 * len(agents):
        for idx, (g_i, _) in enumerate(blocks):
            if pinv_rank(g_i)[1] < 2:
                raise RankDeficiencyError(
                    f"agent {idx}: torque map rank-deficient at p = "
                    f"{agents[idx].p}"
                )
        raise RankDeficiencyError(
            "coupled rank deficiency: agents' torque planes are not jointly "
            "independent (stacked rank < 2 per agent)"
        )
    target = np.concatenate([tau_i for _, tau_i in blocks])
    return _solve(stacked, pinv, target)
