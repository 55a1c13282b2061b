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

Every solve uses the Moore-Penrose pseudoinverse with a shared singular-value
cutoff, which yields the exact solution of minimal 2-norm whenever the task
is achievable.  Multi-step diagnostic variants (pseudoinverting the factors
separately) are provided for norm-comparison studies; they are never cheaper
than the one-step solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import PendulumParams
from .magmodel import (
    RANK_RTOL,
    ActuationModel,
    DipoleAgent,
    FieldState,
    actuation_matrix,
    field_and_gradient,
    skew,
    wrench_maps,
)

#: Agent pairs closer than this are flagged as ill-conditioned [m].
NEAR_CONTACT_DISTANCE = 0.01


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
    """Currents solving an allocation task, with diagnostics.

    Attributes:
        currents: Coil currents [A], unclamped (saturation is applied
            downstream by the simulator / hardware model).
        realized_field: Field state at the (first) agent position under the
            computed currents.
        residual_norm: Task-space residual of the solve (2-norm).
        current_norm: 2-norm of the currents.
        field_norm: 2-norm of the realized field.
        zeta_star: Optimal dipole-parallel field shift of the one-step
            solution relative to the two-step solution (torque allocations
            on redundant arrays; None where undefined).
        agent_residuals: Per-agent task residuals for multi-agent solves.
        realized_fields: Per-agent field states for multi-agent solves.
        warnings: Human-readable conditioning warnings.
    """

    currents: np.ndarray
    realized_field: FieldState
    residual_norm: float
    current_norm: float
    field_norm: float
    zeta_star: float | None = None
    agent_residuals: tuple[float, ...] | None = None
    realized_fields: tuple[FieldState, ...] | None = None
    warnings: tuple[str, ...] = field(default=())


def _pinv(mat: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(mat, rcond=RANK_RTOL)


def _rank(mat: np.ndarray) -> int:
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))


def _result(
    model: ActuationModel,
    p: np.ndarray,
    currents: np.ndarray,
    residual: float,
    zeta: float | None = None,
    agent_residuals: tuple[float, ...] | None = None,
    realized_fields: tuple[FieldState, ...] | None = None,
    warnings: tuple[str, ...] = (),
) -> AllocationResult:
    realized = field_and_gradient(model, p, currents)
    return AllocationResult(
        currents=currents,
        realized_field=realized,
        residual_norm=float(residual),
        current_norm=float(np.linalg.norm(currents)),
        field_norm=float(np.linalg.norm(realized.b)),
        zeta_star=zeta,
        agent_residuals=agent_residuals,
        realized_fields=realized_fields,
        warnings=warnings,
    )


def composed_torque_map(
    model: ActuationModel,
    agent: DipoleAgent,
    params: PendulumParams,
) -> np.ndarray:
    """Full torque-from-currents map J @ M @ A(p), shape (3, n_coils).

    Its image lies in the plane perpendicular to the dipole axis: both the
    field torque m x b and the lever-arm torque l_m * axis x f are orthogonal
    to the axis, so the map has rank at most 2.
    """
    a_mat = actuation_matrix(model, np.asarray(agent.p, dtype=float))
    maps = wrench_maps(agent, params.magnet_offset)
    return maps.jac @ maps.stacked @ a_mat


def world_torque(agent: DipoleAgent, task: WrenchTask) -> np.ndarray:
    """Commanded torque rotated from the actuator body frame to the world.

    The optional desired force is not folded in here; callers that know the
    magnet offset add its lever-arm torque where appropriate.
    """
    return agent.rotation_t @ np.asarray(task.tau_c_body, dtype=float)


def allocate_field_alignment(
    model: ActuationModel,
    p: np.ndarray,
    command: FieldCommand,
    zero_gradient: bool | None = None,
) -> AllocationResult:
    """Minimum-norm currents realizing a commanded field at p.

    The canonical task is the stacked target [b_setpoint; zero gradient]: the
    allocation asks for the commanded field with no field gradients, so a
    field-aligned dipole feels pure torque and no stray force.  On arrays
    with fewer than 8 coils the stacked task is overdetermined and the
    least-squares solution under-delivers the field; pass
    ``zero_gradient=False`` there to target only the three field rows.

    Args:
        model: Coil array.
        p: Field point [m].
        command: Field direction/magnitude command.
        zero_gradient: Append five zero-gradient rows to the task.
            Defaults to True.

    Returns:
        AllocationResult; residual_norm is the 2-norm mismatch of the task
        (zero when the array spans it).
    """
    p = np.asarray(p, dtype=float)
    if zero_gradient is None:
        zero_gradient = True
    a_full = actuation_matrix(model, p)
    b_sp = command.setpoint
    if zero_gradient:
        task_mat = a_full
        task_vec = np.concatenate([b_sp, np.zeros(5)])
    else:
        task_mat = a_full[:3]
        task_vec = b_sp
    currents = _pinv(task_mat) @ task_vec
    residual = float(np.linalg.norm(task_mat @ currents - task_vec))
    return _result(model, p, currents, residual)


def allocate_torque_one_step(
    model: ActuationModel,
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
    p = np.asarray(agent.p, dtype=float)
    tau_c = world_torque(agent, task)
    if include_force:
        g_map = composed_torque_map(model, agent, params)
        if task.force is not None:
            maps = wrench_maps(agent, params.magnet_offset)
            tau_c = tau_c + maps.jac_tilde @ np.asarray(task.force, dtype=float)
    else:
        a_b = actuation_matrix(model, p)[:3]
        g_map = skew(agent.moment) @ a_b
    if _rank(g_map) < 2:
        raise RankDeficiencyError(
            f"torque map rank-deficient at p = {tuple(float(c) for c in p)}: "
            "the coil array "
            "cannot span the torque plane perpendicular to the dipole"
        )
    currents = _pinv(g_map) @ tau_c
    residual = float(np.linalg.norm(g_map @ currents - tau_c))
    zeta = _zeta_star_or_none(model, agent, task)
    return _result(model, p, currents, residual, zeta=zeta)


def allocate_torque_two_step(
    model: ActuationModel,
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
    p = np.asarray(agent.p, dtype=float)
    tau_c = world_torque(agent, task)
    m_b = skew(agent.moment)
    b_des = _pinv(m_b) @ tau_c
    a_b = actuation_matrix(model, p)[:3]
    if _rank(a_b) < 3:
        raise RankDeficiencyError(
            f"field rows rank-deficient at p = {tuple(float(c) for c in p)}: "
            "two-step "
            "allocation needs full field authority"
        )
    currents = _pinv(a_b) @ b_des
    residual = float(np.linalg.norm(m_b @ (a_b @ currents) - tau_c))
    zeta = _zeta_star_or_none(model, agent, task)
    return _result(model, p, currents, residual, zeta=zeta)


def allocate_torque_twostep_jm(
    model: ActuationModel,
    agent: DipoleAgent,
    params: PendulumParams,
    task: WrenchTask,
) -> AllocationResult:
    """Diagnostic multi-step variant i = A^+ (J M)^+ tau.

    Splits the composed map after the field/gradient stage.  Exact only when
    the intermediate field/gradient target is itself realizable; never
    smaller in norm than the one-step solution.
    """
    p = np.asarray(agent.p, dtype=float)
    tau_c = world_torque(agent, task)
    a_mat = actuation_matrix(model, p)
    maps = wrench_maps(agent, params.magnet_offset)
    jm = maps.jac @ maps.stacked  # (3, 8)
    currents = _pinv(a_mat) @ (_pinv(jm) @ tau_c)
    residual = float(np.linalg.norm(jm @ (a_mat @ currents) - tau_c))
    return _result(model, p, currents, residual)


def allocate_torque_twostep_ma(
    model: ActuationModel,
    agent: DipoleAgent,
    params: PendulumParams,
    task: WrenchTask,
) -> AllocationResult:
    """Diagnostic multi-step variant i = (M A)^+ J^+ tau.

    Splits the composed map after the wrench stage.  The intermediate
    [torque; force] target distributes the task across both pathways by
    least squares instead of letting the current solve choose.
    """
    p = np.asarray(agent.p, dtype=float)
    tau_c = world_torque(agent, task)
    a_mat = actuation_matrix(model, p)
    maps = wrench_maps(agent, params.magnet_offset)
    ma = maps.stacked @ a_mat  # (6, n)
    wrench = _pinv(maps.jac) @ tau_c  # (6,)
    currents = _pinv(ma) @ wrench
    realized_torque = maps.jac @ (ma @ currents)
    residual = float(np.linalg.norm(realized_torque - tau_c))
    return _result(model, p, currents, residual)


def zeta_star(
    model: ActuationModel,
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
    p = np.asarray(agent.p, dtype=float)
    tau_c = world_torque(agent, task)
    m = agent.moment
    b_two = _pinv(skew(m)) @ tau_c
    a_b_pinv = _pinv(actuation_matrix(model, p)[:3])
    u = a_b_pinv @ m
    den = float(u @ u)
    if den < 1.0e-12:
        raise DegenerateTaskError(
            "||A_b^+ m|| is numerically zero; the dipole-parallel current "
            "direction is degenerate"
        )
    return -float((a_b_pinv @ b_two) @ u) / den


def _zeta_star_or_none(
    model: ActuationModel, agent: DipoleAgent, task: WrenchTask
) -> float | None:
    try:
        return zeta_star(model, agent, task)
    except DegenerateTaskError:
        return None


def _near_contact_warnings(positions: list[np.ndarray]) -> tuple[str, ...]:
    warnings = []
    for i in range(len(positions)):
        for j in range(i + 1, len(positions)):
            dist = float(np.linalg.norm(positions[i] - positions[j]))
            if dist < NEAR_CONTACT_DISTANCE:
                warnings.append(
                    f"agents {i} and {j} are {dist * 100:.2f} cm apart; "
                    "point-dipole allocation is ill-conditioned below "
                    f"{NEAR_CONTACT_DISTANCE * 100:.0f} cm"
                )
    return tuple(warnings)


def allocate_multi_field(
    model: ActuationModel,
    positions: list[np.ndarray],
    commands: list[FieldCommand],
) -> AllocationResult:
    """Minimum-norm currents realizing independent field commands at several
    positions simultaneously (stacked field rows, one 3-row block per agent).

    The shared coils couple all agents; the stacked least-squares solve
    trades residuals across agents when the tasks exceed the array's span.
    Per-agent residuals are reported.
    """
    if len(positions) != len(commands) or len(positions) == 0:
        raise ValueError("positions and commands must be equal-length, non-empty")
    positions = [np.asarray(p, dtype=float) for p in positions]
    blocks = [actuation_matrix(model, p)[:3] for p in positions]
    stacked = np.vstack(blocks)
    target = np.concatenate([c.setpoint for c in commands])
    currents = _pinv(stacked) @ target
    per_agent = tuple(
        float(np.linalg.norm(blocks[k] @ currents - commands[k].setpoint))
        for k in range(len(positions))
    )
    realized = tuple(field_and_gradient(model, p, currents) for p in positions)
    result = _result(
        model,
        positions[0],
        currents,
        residual=float(np.linalg.norm(stacked @ currents - target)),
        agent_residuals=per_agent,
        realized_fields=realized,
        warnings=_near_contact_warnings(positions),
    )
    return result


def allocate_multi_torque(
    model: ActuationModel,
    agents: list[DipoleAgent],
    params: PendulumParams,
    tasks: list[WrenchTask],
) -> AllocationResult:
    """Minimum-norm currents realizing independent torque tasks on several
    agents simultaneously (stacked composed maps).

    Each agent contributes a rank-2 torque plane; the stacked system is
    solvable exactly when the planes are jointly independent (stacked rank
    equal to twice the agent count).

    Raises:
        RankDeficiencyError: Naming the deficient agent when one agent's own
            torque map is singular, or reporting a coupled deficiency when
            the stacked rank falls short with individually sound agents.
    """
    if len(agents) != len(tasks) or len(agents) == 0:
        raise ValueError("agents and tasks must be equal-length, non-empty")
    g_blocks = []
    tau_blocks = []
    for idx, (agent, task) in enumerate(zip(agents, tasks)):
        g_i = composed_torque_map(model, agent, params)
        if _rank(g_i) < 2:
            raise RankDeficiencyError(
                f"agent {idx}: torque map rank-deficient at p = {agent.p}"
            )
        tau_i = world_torque(agent, task)
        if task.force is not None:
            maps = wrench_maps(agent, params.magnet_offset)
            tau_i = tau_i + maps.jac_tilde @ np.asarray(task.force, dtype=float)
        g_blocks.append(g_i)
        tau_blocks.append(tau_i)
    stacked = np.vstack(g_blocks)
    if _rank(stacked) < 2 * len(agents):
        raise RankDeficiencyError(
            "coupled rank deficiency: agents' torque planes are not jointly "
            "independent (stacked rank < 2 per agent)"
        )
    target = np.concatenate(tau_blocks)
    currents = _pinv(stacked) @ target
    per_agent = tuple(
        float(np.linalg.norm(g_blocks[k] @ currents - tau_blocks[k]))
        for k in range(len(agents))
    )
    positions = [np.asarray(a.p, dtype=float) for a in agents]
    realized = tuple(field_and_gradient(model, p, currents) for p in positions)
    return _result(
        model,
        positions[0],
        currents,
        residual=float(np.linalg.norm(stacked @ currents - target)),
        agent_residuals=per_agent,
        realized_fields=realized,
        warnings=_near_contact_warnings(positions),
    )
