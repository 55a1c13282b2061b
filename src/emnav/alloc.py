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

Every strategy is a pure solve over a precomputed actuation matrix A(p)
(``a_mat``, or one per agent in ``a_mats``): the agents sit at fixed
positions, so the caller evaluates A(p) once.  Each solve uses
``magmodel.pinv_rank``, the Moore-Penrose pseudoinverse with the shared
singular-value cutoff, which yields the exact solution of minimal 2-norm
whenever the task is achievable.  The one-step and multi-agent torque
solves go through ``solve_torque``, which takes its rank check and its
solution from one SVD of the stacked rows.  A field task map does not
depend on the command, so the field solves are also split into the map
(``field_alignment_map``, ``multi_field_map``) and a solve over its
pseudoinverse (``solve_field``): a caller whose points stay fixed takes the
pseudoinverse once.  A solve returns only the currents and the task
residual.  ``emnav alloc-bench`` does not go through the per-call
wrappers here: it solves its samples in blocks, one stacked pseudoinverse
per solve kind, and computes the realized fields, norms, angles and zeta*
as vectors itself.  ``allocate_torque_one_step``, ``allocate_multi_torque``,
``allocate_field_alignment``, ``zeta_star`` and ``field_and_gradient`` are
the per-call forms the tests check against and the benchmark's tracer
hooks by name.  Multi-step variants (pseudoinverting the factors
separately, in the world frame) are provided for norm-comparison studies;
they are never cheaper than the one-step solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PendulumParams
from .magmodel import DipoleAgent, pinv_rank, skew, torque_rows, wrench_maps


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


def world_torque(agent: DipoleAgent, task: WrenchTask) -> np.ndarray:
    """Commanded torque rotated from the actuator body frame to the world.

    The optional desired force is not folded in here; callers that know the
    magnet offset add its lever-arm torque where appropriate.
    """
    return agent.rotation_t @ np.asarray(task.tau_c_body, dtype=float)


def _solve_plane(
    a_mats: list[np.ndarray],
    agents: list[DipoleAgent],
    tasks: list[WrenchTask],
    lever: float,
) -> AllocationResult:
    """``solve_torque`` over the agents' ``torque_rows`` applied to their
    A(p), for their body-frame (tau_x, tau_y) tasks.

    A desired force f adds its lever-arm torque lever * axis x f, which in
    the body frame is lever * (-e_y . f, e_x . f); with lever 0 (the pure
    field-torque rows) the force is ignored.
    """
    rows, targets = [], []
    for a_mat, agent, task in zip(a_mats, agents, tasks):
        mag_pol = agent.polarity * agent.dipole_magnitude
        rows.append(torque_rows(agent.alpha, agent.beta, mag_pol, lever) @ a_mat)
        target = np.array(task.tau_c_body[:2])
        if task.force is not None and lever != 0.0:
            rt = agent.rotation_t  # columns: e_x, e_y, axis in world coordinates
            f = np.asarray(task.force)
            target += lever * np.array([-(rt[:, 1] @ f), rt[:, 0] @ f])
        targets.append(target)
    return solve_torque(np.vstack(rows), np.concatenate(targets))


def solve_torque(task_mat: np.ndarray, target: np.ndarray) -> AllocationResult:
    """Minimum-norm currents realizing tilt torques on one or more agents.

    ``task_mat`` stacks each agent's (2, n_coils) body-plane map (its
    ``torque_rows`` applied to its A(p)) and ``target`` the agents'
    (tau_x, tau_y).  The stacked system is solvable exactly when the agents'
    planes are jointly independent: rank equal to the row count.  One SVD of
    the stacked map gives both the rank and the pseudoinverse; the per-agent
    blocks are ranked only to explain a deficiency (the stacked rank never
    exceeds the sum of the block ranks).

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
                    f"agent {idx}: torque map rank-deficient: the coil array "
                    "cannot span the torque plane perpendicular to the dipole"
                )
        raise RankDeficiencyError(
            "coupled rank deficiency: agents' torque planes are not jointly "
            "independent (stacked rank < 2 per agent)"
        )
    return _solve(task_mat, pinv, target)


def field_alignment_map(a_mat: np.ndarray) -> np.ndarray:
    """The task map of :func:`allocate_field_alignment` at the point of A(p):
    all of A(p) (the field and a zero gradient) on arrays of 8 or more
    coils, else its three field rows."""
    return a_mat if a_mat.shape[1] >= 8 else a_mat[:3]


def multi_field_map(a_mats: list[np.ndarray]) -> np.ndarray:
    """The multi-agent field task map: the agents' field rows, stacked, one
    3-row block per agent.  The shared coils couple all agents; the stacked
    least-squares solve trades residuals across agents when the tasks exceed
    the array's span."""
    return np.vstack([a_mat[:3] for a_mat in a_mats])


def solve_field(
    task_mat: np.ndarray, pinv: np.ndarray, commands: list[FieldCommand]
) -> AllocationResult:
    """Currents realizing field commands through a field task map.

    ``pinv`` is the task map's pseudoinverse (``pinv_rank(task_mat)[0]``).
    The target stacks the commands' setpoints, one 3-row block each, and
    asks for zero on the remaining (gradient) rows.
    """
    setpoints = [c.setpoint for c in commands]
    padding = np.zeros(task_mat.shape[0] - 3 * len(commands))
    return _solve(task_mat, pinv, np.concatenate(setpoints + [padding]))


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
    task_mat = field_alignment_map(a_mat)
    return solve_field(task_mat, pinv_rank(task_mat)[0], [command])


def allocate_torque_one_step(
    a_mat: np.ndarray,
    agent: DipoleAgent,
    params: PendulumParams,
    task: WrenchTask,
    include_force: bool = True,
) -> AllocationResult:
    """One-step minimum-norm currents for a torque task.

    With include_force=True (default) the solve runs through the full
    body-plane map W A(p), W = ``torque_rows`` at the magnet offset,
    exploiting gradient forces at the magnet lever arm; with
    include_force=False it uses the pure field-torque rows (lever 0), the
    single-agent simplification that ignores gradient forces.  The task's
    two tilt torques span exactly the achievable plane of either map, so a
    non-singular geometry yields a zero-residual solution.

    Raises:
        RankDeficiencyError: If the torque map does not span the plane
            perpendicular to the dipole axis at p (magnetic singularity).
    """
    lever = params.magnet_offset if include_force else 0.0
    return _solve_plane([a_mat], [agent], [task], lever)


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


def allocate_multi_torque(
    a_mats: list[np.ndarray],
    agents: list[DipoleAgent],
    params: PendulumParams,
    tasks: list[WrenchTask],
) -> AllocationResult:
    """Minimum-norm currents realizing independent torque tasks on several
    agents simultaneously (stacked body-plane maps, see ``solve_torque``).

    Raises:
        RankDeficiencyError: Naming the deficient agent when one agent's own
            torque map is singular, or reporting a coupled deficiency when
            the stacked rank falls short with individually sound agents.
    """
    if not len(a_mats) == len(agents) == len(tasks) or len(agents) == 0:
        raise ValueError("a_mats, agents and tasks must be equal-length, non-empty")
    return _solve_plane(a_mats, agents, tasks, params.magnet_offset)
