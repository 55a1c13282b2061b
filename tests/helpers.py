"""Shared helpers and oracles for the test suite."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray
from scipy.integrate._ivp import dop853_coefficients
from scipy.spatial.transform import Rotation

from emnav.alloc import (
    FIELD_RANK_FAILURE,
    AllocationResult,
    DegenerateTaskError,
    RankDeficiencyError,
    allocate_torque_one_step,
    field_and_gradient,
    field_map,
)
from emnav.dynamics import PendulumParams
from emnav.magmodel import (
    BLOCK,
    MIN_COIL_DISTANCE,
    ActuationModel,
    SingularPositionError,
    actuation_matrix,
    pinv_rank,
)
from emnav.sim import _first_tick
from emnav.workspace import FeasibilityMap, GridSpec, TaskSet, workspace_map

_MU0_OVER_4PI = 1.0e-7

_BODY_U = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


class Pose(NamedTuple):
    """A pivoted dipole for the oracles: the magnet's position p, its tilts
    alpha (about +y) and beta (then about +x), and its signed magnitude
    mag_pol = polarity * |m|."""

    p: tuple[float, float, float]
    alpha: float
    beta: float
    mag_pol: float

    @property
    def tilts(self) -> tuple[float, float]:
        return self.alpha, self.beta

    @property
    def frame(self) -> np.ndarray:
        """Body-to-world rotation R^T = Ry(alpha) Rx(beta), from scipy."""
        return Rotation.from_euler("YX", [self.alpha, self.beta]).as_matrix()

    @property
    def axis(self) -> np.ndarray:
        """The body z-axis in world coordinates."""
        return self.frame[:, 2]

    @property
    def moment(self) -> np.ndarray:
        return self.mag_pol * self.axis


def random_agent(rng: np.random.Generator, span: float = 0.04) -> Pose:
    """Random pivoted dipole inside the central workspace."""
    p = tuple(float(c) for c in rng.uniform(-span, span, 3))
    alpha = float(rng.uniform(-0.6, 0.6))
    beta = float(rng.uniform(-0.6, 0.6))
    dipole = float(rng.uniform(0.2, 2.0))
    return Pose(p, alpha, beta, int(rng.choice([-1, 1])) * dipole)


def field_setpoint(u_alpha: float, u_beta: float, magnitude: float) -> np.ndarray:
    """The commanded field: ``magnitude`` along the dipole axis of tilts
    (u_alpha, u_beta)."""
    ca, sa = math.cos(u_alpha), math.sin(u_alpha)
    cb, sb = math.cos(u_beta), math.sin(u_beta)
    return magnitude * np.array([sa * cb, -sb, ca * cb])


def min_norm_oracle(mat: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Brute-force minimum-norm exact solution of mat @ x = target.

    Independent of the pseudoinverse route: takes any least-squares solution
    and removes its component in the nullspace via an explicit orthonormal
    nullspace basis (scipy.linalg.null_space).  Valid when the target lies in
    the range of mat.
    """
    from scipy.linalg import lstsq, null_space

    x0, *_ = lstsq(mat, target)
    basis = null_space(mat, rcond=1e-10)
    if basis.size:
        x0 = x0 - basis @ (basis.T @ x0)
    return x0


def dipole_field(
    r: NDArray[np.floating], moment: NDArray[np.floating]
) -> NDArray[np.floating]:
    """Magnetic field of a point dipole.

    Args:
        r: Vector from the dipole to the evaluation point [m].
        moment: Dipole moment [A·m²].

    Returns:
        Field vector b [T] = (mu0 / 4 pi) * (3 r (m·r) / |r|^5 - m / |r|^3).
    """
    r = np.asarray(r, dtype=float)
    moment = np.asarray(moment, dtype=float)
    d2 = float(r @ r)
    if d2 < MIN_COIL_DISTANCE**2:
        raise SingularPositionError("field evaluation point coincides with dipole")
    d = math.sqrt(d2)
    return _MU0_OVER_4PI * (3.0 * r * float(moment @ r) / d**5 - moment / d**3)


def dipole_field_jacobian(
    r: NDArray[np.floating], moment: NDArray[np.floating]
) -> NDArray[np.floating]:
    """Spatial Jacobian db_i/dr_j of a point-dipole field (3x3).

    The result is symmetric and traceless, as required of any magnetostatic
    field gradient in a current-free region.
    """
    r = np.asarray(r, dtype=float)
    moment = np.asarray(moment, dtype=float)
    d2 = float(r @ r)
    if d2 < MIN_COIL_DISTANCE**2:
        raise SingularPositionError("gradient evaluation point coincides with dipole")
    d = math.sqrt(d2)
    mr = float(moment @ r)
    eye = np.eye(3)
    outer_rm = np.outer(r, moment)
    return _MU0_OVER_4PI * (
        3.0 * (mr * eye + outer_rm + outer_rm.T) / d**5
        - 15.0 * mr * np.outer(r, r) / d**7
    )


def total_energy(
    params: PendulumParams, alpha: float, phi: float, alpha_dot: float,
    phi_dot: float,
) -> float:
    """Mechanical energy of one unforced channel of the coupled plant."""
    p = params
    m_pend = p.pend_mass
    t_kin = (
        0.5 * (p.inertia + m_pend * p.arm_length**2) * alpha_dot**2
        + 0.125 * m_pend * p.pend_length**2 * phi_dot**2
        + 0.5 * m_pend * p.arm_length * p.pend_length * alpha_dot * phi_dot
        * math.cos(alpha - phi)
    )
    u_pot = (p.eta + m_pend * p.arm_length) * p.gravity * math.cos(alpha) + (
        m_pend * p.gravity * 0.5 * p.pend_length * math.cos(phi)
    )
    return t_kin + u_pot


# ---------------------------------------------------------------------------
# The hand-written plant and stage-by-stage explicit Runge-Kutta: the oracle
# of the compiled plant in ``emnav.dynamics`` (which must match it bit for bit)
# ---------------------------------------------------------------------------


def coupled_accelerations_per_call(
    params: PendulumParams,
    alpha: float,
    phi: float,
    alpha_dot: float,
    phi_dot: float,
    q_alpha: float,
) -> tuple[float, float]:
    """(alpha'', phi'') of one channel, every term computed from ``params``.

    The 2x2 coupled dynamics solve; q_alpha is the generalized force on the
    actuator joint (magnetic torque plus any disturbance), the pendulum
    joint is unactuated.  A rate is squared as a product, as the compiled
    plant squares it: ``x**2`` calls libm ``pow``, which can round
    differently from ``x * x``.
    """
    p = params
    m_pend = p.pend_mass
    half_ml_l = 0.5 * m_pend * p.arm_length * p.pend_length
    c = math.cos(alpha - phi)
    s = math.sin(alpha - phi)

    a11 = p.inertia + m_pend * p.arm_length**2
    a12 = half_ml_l * c
    a22 = 0.25 * m_pend * p.pend_length**2

    rhs1 = (
        (p.eta + m_pend * p.arm_length) * p.gravity * math.sin(alpha)
        - half_ml_l * (phi_dot * phi_dot) * s
        + q_alpha
        - p.damping * alpha_dot
    )
    rhs2 = (
        m_pend * p.gravity * 0.5 * p.pend_length * math.sin(phi)
        + half_ml_l * (alpha_dot * alpha_dot) * s
        - p.damping * phi_dot
    )

    det = a11 * a22 - a12 * a12
    alpha_dd = (a22 * rhs1 - a12 * rhs2) / det
    phi_dd = (a11 * rhs2 - a12 * rhs1) / det
    return alpha_dd, phi_dd


# The explicit Runge-Kutta tableau of the plant step, taken independently of
# emnav.dynamics from scipy.integrate's DOP853 coefficients: the 12 stages of
# the eighth-order Dormand-Prince pair and its eighth-order weights (Hairer,
# Norsett & Wanner, Solving ODEs I, Sec. II.10).  RK_A[s] holds stage s's
# weights, RK_C[s] its node; RK_B are the update's weights.
RK_C = tuple(float(c) for c in dop853_coefficients.C[:dop853_coefficients.N_STAGES])
RK_A = tuple(tuple(float(a) for a in dop853_coefficients.A[s, :s])
             for s in range(len(RK_C)))
RK_B = tuple(float(b) for b in dop853_coefficients.B)
#: The distinct stage nodes below 1: one grid entry each per step.
RK_NODES = tuple(c for c in RK_C if c < 1.0)


def rk_tick(
    y: tuple,
    deriv,
    substeps: int,
    dt: float,
    b_grid: list,
    g_grid: list,
    bias_a: float,
    bias_b: float,
) -> tuple:
    """Integrate one controller tick of ``substeps`` explicit RK steps of
    size dt over the tableau ``RK_A``/``RK_B``/``RK_C``, stage by stage.

    ``b_grid``/``g_grid`` hold the field and packed gradient at every stage
    time in order: (j + c)·dt for step j and node c in ``RK_NODES``, then
    substeps·dt (len(RK_NODES)·substeps + 1 entries).  A stage's state is
    y + (h_1 k_1 + h_2 k_2 + ...) summed left to right, with h_j = dt·a_sj
    and no term for a zero weight; the update likewise with dt·b_j.
    ``bias_a``/``bias_b`` are constant generalized forces on the two
    actuator joints.  Pure Python floats.
    """
    n = len(RK_NODES)

    def advance(y: tuple, weights: tuple, ks: list) -> tuple:
        pairs = [(dt * w, k) for w, k in zip(weights, ks) if w]
        out = []
        for i, v in enumerate(y):
            total = pairs[0][0] * pairs[0][1][i]
            for h, k in pairs[1:]:
                total = total + h * k[i]
            out.append(v + total)
        return tuple(out)

    for j in range(substeps):
        ks = []
        for row, c in zip(RK_A, RK_C):
            ys = advance(y, row, ks) if row else y
            idx = n * j + (n if c == 1.0 else RK_NODES.index(c))
            ks.append(deriv(ys, idx, b_grid, g_grid, bias_a, bias_b))
        y = advance(y, RK_B, ks)
    return y


def make_deriv(params: PendulumParams, attached: bool, mag_pol: float):
    """Plant derivative for one agent's joint (alpha+beta channel) state.

    The state is (alpha, phi, alpha', phi', beta, theta, beta', theta') with
    a pendulum attached, else (alpha, alpha', beta, beta').  ``mag_pol`` is
    the signed dipole moment |m|·polarity.  With a pendulum attached, each
    channel's accelerations are the per-call formula
    :func:`coupled_accelerations_per_call`.
    """
    lever = params.magnet_offset
    eta_g = params.eta * params.gravity
    damping = params.damping
    inertia = params.inertia
    sin = math.sin
    cos = math.cos

    def deriv(y, idx, b_grid, g_grid, bias_a, bias_b):
        if attached:
            a, ph, ad, phd, bb, th, bd, thd = y
        else:
            a, ad, bb, bd = y
        sa = sin(a)
        ca = cos(a)
        sb = sin(bb)
        cb = cos(bb)
        ax = sa * cb
        ay = -sb
        az = ca * cb
        mx = mag_pol * ax
        my = mag_pol * ay
        mz = mag_pol * az
        bx, by, bz = b_grid[idx]
        g1, g2, g3, g4, g5 = g_grid[idx]
        fx = g1 * mx + g2 * my + g3 * mz
        fy = g2 * mx + g4 * my + g5 * mz
        fz = g3 * mx + g5 * my - (g1 + g4) * mz
        tx = my * bz - mz * by + lever * (ay * fz - az * fy)
        ty = mz * bx - mx * bz + lever * (az * fx - ax * fz)
        tz = mx * by - my * bx + lever * (ax * fy - ay * fx)
        qa = ty + bias_a
        qb = tx * ca - tz * sa + bias_b
        if attached:
            add, phdd = coupled_accelerations_per_call(params, a, ph, ad, phd, qa)
            bdd, thdd = coupled_accelerations_per_call(params, bb, th, bd, thd, qb)
            return (ad, phd, add, phdd, bd, thd, bdd, thdd)
        add = (eta_g * sa + qa - damping * ad) / inertia
        bdd = (eta_g * sb + qb - damping * bd) / inertia
        return (ad, add, bd, bdd)

    return deriv


# ---------------------------------------------------------------------------
# The analytic linearization and its zero-order hold: the oracle of the
# synthesis model, which ``emnav.dynamics.linearize`` reads off the compiled
# tick by complex step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSystem:
    """Continuous-time linear model with its zero-order-hold discretization."""

    a: np.ndarray
    b: np.ndarray
    a_d: np.ndarray
    b_d: np.ndarray
    sample_time: float


# Higham's [13/13] Padé coefficients b_k = (26 - k)! / (k! (13 - k)!), and
# the 1-norm up to which it is accurate to double precision unscaled.
PADE13 = tuple(float(math.perm(26 - k, 13) // math.factorial(k)) for k in range(14))
THETA13 = 5.371920351148152


@np.errstate(over="ignore", invalid="ignore")
def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring with the [13/13] Padé
    approximant (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).  A
    non-finite m gives a non-finite result; nothing raises."""
    norm = float(np.max(np.sum(np.abs(m), axis=0)))
    if not math.isfinite(norm):
        return np.full(m.shape, math.nan)
    s = math.ceil(math.log2(norm / THETA13)) if norm > THETA13 else 0
    b, ident = PADE13, np.eye(len(m))
    m1 = m / 2.0**s
    m2 = m1 @ m1
    m4 = m2 @ m2
    m6 = m4 @ m2
    u = m1 @ (m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
              + b[7] * m6 + b[5] * m4 + b[3] * m2 + b[1] * ident)
    v = (m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
         + b[6] * m6 + b[4] * m4 + b[2] * m2 + b[0] * ident)
    e = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        e = e @ e
    return e


def discretize(a: np.ndarray, b: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization: the exponential (:func:`expm`)
    of the augmented block [[A, B], [0, 0]] dt."""
    n = a.shape[0]
    m = b.shape[1]
    block = np.zeros((n + m, n + m))
    block[:n, :n] = a
    block[:n, n:] = b
    phi = expm(block * dt)
    return phi[:n, :n], phi[:n, n:]


def linearize(
    params: PendulumParams,
    paradigm: str,
    b_mag: float = 0.0,
    sample_time: float = 0.005,
    attached: bool = True,
) -> LinearSystem:
    """Linearize the plant about the upright equilibrium by hand.

    State order: (alpha, phi, alpha_dot, phi_dot) with the pendulum
    ``attached``, else (alpha, alpha_dot); single input (torque or field
    angle depending on the paradigm).  Each coefficient is computed from
    ``params`` as :func:`coupled_accelerations_per_call` computes it.  For
    the actuator alone in the field paradigm the stiffness entry is
    (eta g - |m||b|) / J: negative stiffness, i.e. open-loop stability,
    requires |m||b| > eta g.
    """
    if paradigm not in ("field", "torque"):
        raise ValueError(f"unknown paradigm '{paradigm}'")
    if sample_time <= 0.0:
        raise ValueError("sample_time must be strictly positive")
    p = params
    m_pend = p.pend_mass
    field = paradigm == "field"
    mb = p.dipole_magnitude * b_mag if field else 0.0
    gain = mb if field else 1.0
    if attached:
        half_ml_l = 0.5 * m_pend * p.arm_length * p.pend_length
        mass = np.array([[p.inertia + m_pend * p.arm_length**2, half_ml_l],
                         [half_ml_l, 0.25 * m_pend * p.pend_length**2]])
        stiff = np.diag([(p.eta + m_pend * p.arm_length) * p.gravity - mb,
                         m_pend * p.gravity * 0.5 * p.pend_length])
        mass_inv = np.linalg.inv(mass)
        a = np.zeros((4, 4))
        a[0:2, 2:4] = np.eye(2)
        a[2:4, 0:2] = mass_inv @ stiff
        a[2:4, 2:4] = -p.damping * mass_inv
        b = np.zeros((4, 1))
        b[2:4, :] = mass_inv @ np.array([[gain], [0.0]])
    else:
        # The actuator's mass matrix is J alone.  Divide by J: inverting a
        # 1x1 matrix and multiplying can round the gains differently.
        a = np.array([[0.0, 1.0], [(p.eta * p.gravity - mb) / p.inertia,
                                   -p.damping / p.inertia]])
        b = np.array([[0.0], [gain / p.inertia]])
    a_d, b_d = discretize(a, b, sample_time)
    return LinearSystem(a=a, b=b, a_d=a_d, b_d=b_d, sample_time=sample_time)


def estimate_velocities(angle_history: np.ndarray, dt: float) -> np.ndarray:
    """Backward differences of a sampled angle sequence.

    Args:
        angle_history: Samples of one angle, length >= 2.
        dt: Sample period [s].

    Returns:
        Rates of the same length; the first entry is 0 by convention.
    """
    angles = np.asarray(angle_history, dtype=float)
    if angles.ndim != 1 or angles.size < 2:
        raise ValueError("need at least two samples")
    rates = np.empty_like(angles)
    rates[0] = 0.0
    rates[1:] = np.diff(angles) / dt
    return rates


def pack_gradient(grad: np.ndarray) -> np.ndarray:
    """Reduce a symmetric traceless 3x3 gradient to its five free components.

    Component order: (db_x/dx, db_x/dy, db_x/dz, db_y/dy, db_y/dz).
    """
    g = np.asarray(grad, dtype=float)
    return np.array([g[0, 0], g[0, 1], g[0, 2], g[1, 1], g[1, 2]])


def unpack_gradient(g5: np.ndarray) -> np.ndarray:
    """Rebuild the full 3x3 gradient from its five free components.

    Symmetry fills the off-diagonal mirror terms and zero trace fixes
    db_z/dz = -(db_x/dx + db_y/dy).
    """
    g1, g2, g3, g4, g5_ = np.asarray(g5, dtype=float)
    return np.array(
        [
            [g1, g2, g3],
            [g2, g4, g5_],
            [g3, g5_, -g1 - g4],
        ]
    )


# ---------------------------------------------------------------------------
# World-frame wrench maps and the world-frame two-step solves: the oracles of
# ``magmodel.torque_rows`` and of the closed-form two-step in ``emnav.alloc``
# ---------------------------------------------------------------------------


def skew(v: NDArray[np.floating]) -> NDArray[np.floating]:
    """Return the 3x3 cross-product matrix S(v) with S(v) @ u = v x u.

    A stack of vectors, shape (..., 3), gives the stack of their matrices,
    shape (..., 3, 3).
    """
    v = np.asarray(v, dtype=float)
    out = np.zeros(v.shape + (3,))
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def moment_gradient_map(moment: NDArray[np.floating]) -> NDArray[np.floating]:
    """Force-from-gradient map (3x5): f = M_g(m) @ g.

    Acting on the packed gradient (db_x/dx, db_x/dy, db_x/dz, db_y/dy,
    db_y/dz), this reproduces f = (m · grad) b for any symmetric traceless
    gradient.
    """
    mx, my, mz = np.asarray(moment, dtype=float)
    return np.array(
        [
            [mx, my, mz, 0.0, 0.0],
            [0.0, mx, 0.0, my, mz],
            [-mz, 0.0, mx, -mz, my],
        ]
    )


@dataclass(frozen=True)
class WrenchMaps:
    """Linear maps from field/gradient to torque and force on one agent.

    Attributes:
        m_b: (3,3) torque-from-field map skew(m).
        m_g: (3,5) force-from-packed-gradient map.
        jac_tilde: (3,3) lever-arm map sending force to pivot torque.
        jac: (3,6) combined map [I | jac_tilde] acting on stacked [tau; f].
    """

    m_b: NDArray[np.floating]
    m_g: NDArray[np.floating]
    jac_tilde: NDArray[np.floating]
    jac: NDArray[np.floating]

    @property
    def stacked(self) -> NDArray[np.floating]:
        """Block-diagonal wrench map (6x8): [b; g] -> [tau; f]."""
        out = np.zeros((6, 8))
        out[0:3, 0:3] = self.m_b
        out[3:6, 3:8] = self.m_g
        return out


def wrench_maps(agent: Pose, magnet_offset: float) -> WrenchMaps:
    """Build the wrench maps of a pivoted agent.

    Args:
        agent: Pivoted dipole (supplies orientation and moment).
        magnet_offset: Distance from the pivot to the magnet center [m].

    Returns:
        WrenchMaps in world coordinates.  The lever arm uses the geometric
        body axis, so it is independent of magnetic polarity.
    """
    m = agent.moment
    jac_tilde = magnet_offset * skew(agent.axis)
    jac = np.hstack([np.eye(3), jac_tilde])
    return WrenchMaps(
        m_b=skew(m),
        m_g=moment_gradient_map(m),
        jac_tilde=jac_tilde,
        jac=jac,
    )


def world_torque(agent: Pose, tau) -> np.ndarray:
    """Commanded body-plane torque (tau_x, tau_y) rotated from the actuator
    body frame to the world."""
    return agent.frame @ np.array([tau[0], tau[1], 0.0])


def two_step_world(a_mat: np.ndarray, agent: Pose, tau) -> AllocationResult:
    """Two-step torque allocation in the world frame, by generic SVDs.

    b = skew(m)^+ tau_world through ``pinv_rank`` of skew(m), then the
    minimum-norm currents A_b^+ b; the residual is the world-frame torque
    mismatch.  The oracle of ``alloc.allocate_torque_two_step`` and of the
    closed form ``alloc.two_step_field``.

    Raises:
        RankDeficiencyError: If rank(A_b(p)) < 3, with the message the
            closed-form solve gives.
    """
    tau_c = world_torque(agent, tau)
    m_b = skew(agent.moment)
    b_des = pinv_rank(m_b)[0] @ tau_c
    a_b = a_mat[:3]
    pinv, rank = pinv_rank(a_b)
    if rank < 3:
        raise RankDeficiencyError(FIELD_RANK_FAILURE.format(agent.p))
    currents = pinv @ b_des
    residual = float(np.linalg.norm(m_b @ (a_b @ currents) - tau_c))
    return AllocationResult(currents, residual)


def zeta_star_world(a_mat: np.ndarray, agent: Pose, tau) -> float:
    """``alloc.zeta_star`` with the world-frame field b = skew(m)^+ tau_world
    of :func:`two_step_world`."""
    m = agent.moment
    b_two = pinv_rank(skew(m))[0] @ world_torque(agent, tau)
    a_b_pinv = pinv_rank(a_mat[:3])[0]
    u = a_b_pinv @ m
    den = float(u @ u)
    if den < 1.0e-12:
        raise DegenerateTaskError("||A_b^+ m|| is numerically zero")
    return -float((a_b_pinv @ b_two) @ u) / den


def allocate_torque_twostep_jm(
    a_mat: np.ndarray, agent: Pose, params: PendulumParams, tau
) -> AllocationResult:
    """Diagnostic multi-step variant i = A^+ (J M)^+ tau.

    Splits the composed map after the field/gradient stage.  Exact only when
    the intermediate field/gradient target is itself realizable; never
    smaller in norm than the one-step solution.
    """
    tau_c = world_torque(agent, tau)
    maps = wrench_maps(agent, params.magnet_offset)
    jm = maps.jac @ maps.stacked  # (3, 8)
    currents = pinv_rank(a_mat)[0] @ (pinv_rank(jm)[0] @ tau_c)
    residual = float(np.linalg.norm(jm @ (a_mat @ currents) - tau_c))
    return AllocationResult(currents, residual)


def allocate_torque_twostep_ma(
    a_mat: np.ndarray, agent: Pose, params: PendulumParams, tau
) -> AllocationResult:
    """Diagnostic multi-step variant i = (M A)^+ J^+ tau.

    Splits the composed map after the wrench stage.  The intermediate
    [torque; force] target distributes the task across both pathways by
    least squares instead of letting the current solve choose.
    """
    tau_c = world_torque(agent, tau)
    maps = wrench_maps(agent, params.magnet_offset)
    ma = maps.stacked @ a_mat  # (6, n)
    wrench = pinv_rank(maps.jac)[0] @ tau_c  # (6,)
    currents = pinv_rank(ma)[0] @ wrench
    residual = float(np.linalg.norm(maps.jac @ (ma @ currents) - tau_c))
    return AllocationResult(currents, residual)


def torque_box_vertex_worst(pinv: np.ndarray, tau_bar: float) -> float:
    """Worst-case |current|_inf over a torque box, by vertex enumeration.

    ``pinv`` maps stacked body torques (one (tau_x, tau_y) pair per agent)
    to currents.  The map is linear and the infinity norm convex, so the
    maximum over the box |v_k| <= tau_bar is attained at one of its
    2^(rows) vertices.
    """
    n_rows = pinv.shape[1]
    worst = 0.0
    for bits in range(2**n_rows):
        vertex = np.array(
            [tau_bar if bits & (1 << k) else -tau_bar for k in range(n_rows)]
        )
        worst = max(worst, float(np.max(np.abs(pinv @ vertex))))
    return worst


def one_map(model: ActuationModel, task: TaskSet, grid: GridSpec,
            current_limit: float, **kwargs) -> FeasibilityMap:
    """The map of the one task ``task``, through ``workspace_map``; ``kwargs``
    go to it."""
    (fmap,) = workspace_map(model, [task], grid, current_limit, **kwargs)
    return fmap


def margin_at(model: ActuationModel, position, task: TaskSet,
              current_limit: float, **kwargs) -> float:
    """Feasibility margin of ``task`` at one position [A], through
    ``one_map`` on a one-point grid; ``kwargs`` go to it."""
    x, y, z = (float(v) for v in position)
    grid = GridSpec(x=(x, x), y=(y, y), z=(z, z))
    return float(one_map(model, task, grid, current_limit, **kwargs).fm[0])


def torque_map_svd(agent: Pose) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form SVD of the torque-from-field map skew(m).

    Returns:
        (U, s, Vt) with skew(m) = U @ diag(s) @ Vt, s = (|m|, |m|, 0).
        The null direction of the map (last row of Vt) is the dipole axis:
        fields parallel to the moment produce no torque.
    """
    mag = abs(agent.mag_pol)
    rt = agent.frame
    u = math.copysign(1.0, agent.mag_pol) * rt @ _BODY_U
    s = np.array([mag, mag, 0.0])
    vt = rt.T
    return u, s, vt


def composed_torque_map(
    a_mat: np.ndarray, agent: Pose, params: PendulumParams
) -> np.ndarray:
    """Full world-frame torque-from-currents map J @ M @ A(p), (3, n_coils).

    Its image lies in the plane perpendicular to the dipole axis: both the
    field torque m x b and the lever-arm torque l_m * axis x f are orthogonal
    to the axis, so the map has rank at most 2.  The composed-map oracle of
    the body-plane rows ``magmodel.torque_rows``.
    """
    maps = wrench_maps(agent, params.magnet_offset)
    return maps.jac @ maps.stacked @ a_mat


def pivot_torque_task(
    a_mat: np.ndarray, agent: Pose, params: PendulumParams, tau
) -> tuple[np.ndarray, np.ndarray]:
    """The composed map J M A(p) and the world-frame pivot torque it must
    realize."""
    return composed_torque_map(a_mat, agent, params), world_torque(agent, tau)


def composed_torque_solve(
    a_mats: list,
    agents: list,
    params: PendulumParams,
    taus: list,
    include_force: bool = True,
) -> tuple[str | None, AllocationResult | None, np.ndarray]:
    """Torque allocation through the stacked world-frame composed maps.

    The oracle of ``alloc.torque_allocator``'s one-step solve: three world
    rows per agent (rank 2 each), with ``include_force=False`` the pure
    field-torque map skew(m) A_b.  Returns ``(verdict, result, target)``:
    the verdict is None for a full-rank stack, ``"agent i"`` for the first
    agent whose own map has rank < 2, else ``"coupled"``; the result is None
    unless the verdict is None; the target stacks the world torques.
    """
    blocks = []
    for a_mat, agent, tau in zip(a_mats, agents, taus):
        if include_force:
            blocks.append(pivot_torque_task(a_mat, agent, params, tau))
        else:
            blocks.append((skew(agent.moment) @ a_mat[:3], world_torque(agent, tau)))
    stacked = np.vstack([g for g, _ in blocks])
    target = np.concatenate([tau for _, tau in blocks])
    pinv, rank = pinv_rank(stacked)
    if rank < 2 * len(agents):
        for idx, (g, _) in enumerate(blocks):
            if pinv_rank(g)[1] < 2:
                return f"agent {idx}", None, target
        return "coupled", None, target
    currents = pinv @ target
    result = AllocationResult(
        currents, float(np.linalg.norm(stacked @ currents - target))
    )
    return None, result, target


def composed_allocator(scenario, a_mats: list):
    """Drop-in for ``sim._allocator`` on the torque strategies that builds a
    ``Pose`` and a world-frame torque per agent per tick and solves in the
    world frame: ``torque_two_step`` through :func:`two_step_world`, the
    others through :func:`composed_torque_solve`.  Each solve's residual
    norm is kept at its slot, as the per-run allocators log their solves."""
    params = scenario.plant
    norms = [0.0] * BLOCK

    def allocate(meas_agents: list, outputs: list, slot: int):
        dipoles = [
            Pose(tuple(setup.position), meas[0], meas[1],
                 setup.polarity * params.dipole_magnitude)
            for setup, meas in zip(scenario.agents, meas_agents)
        ]
        taus = [(out_b, out_a) for out_a, out_b in outputs]
        if scenario.strategy == "torque_two_step":
            result = two_step_world(a_mats[0], dipoles[0], taus[0])
        else:
            verdict, result, _ = composed_torque_solve(
                a_mats, dipoles, params, taus, scenario.include_force
            )
            if verdict is not None:
                raise RankDeficiencyError(verdict)
        norms[slot] = result.residual_norm
        return result.currents

    return allocate, lambda n: np.array(norms[:n])


def event_spans(scenario) -> list:
    """(event, k0, k1) per disturbance, each mapped on its own: the event
    holds over ticks k0 <= k < k1, an impulse over k0 only, a window without
    a duration to the last tick."""
    h = 1.0 / scenario.emns.control_rate
    ticks = round(scenario.duration * scenario.emns.control_rate)
    events = []
    for ev in scenario.disturbances:
        k0 = _first_tick(ev.time, h)
        if ev.kind == "impulse":
            k1 = k0 + 1
        elif ev.duration is None:
            k1 = ticks
        else:
            k1 = _first_tick(ev.time + ev.duration, h)
        events.append((ev, k0, k1))
    return events


def in_force(events: list, kind: str, agent: int, channel: str, k: int) -> float:
    """Summed magnitude, in event order, of the events of ``kind`` on
    (agent, channel) whose window holds tick k, by scanning every event."""
    total = 0.0
    for ev, k0, k1 in events:
        if (ev.kind == kind and ev.agent == agent and ev.channel == channel
                and k0 <= k < k1):
            total += ev.magnitude
    return total


def impulses_at(scenario, events: list, k: int) -> list:
    """(agent, state index, magnitude) of each impulse that fires at tick k,
    in event order: the actuator rate's index in the packed joint state is
    2 (alpha) or 6 (beta) with a pendulum attached, else 1 or 3."""
    fired = []
    for ev, k0, _ in events:
        if ev.kind == "impulse" and k == k0:
            attached = scenario.agents[ev.agent].pendulum_attached
            if ev.channel == "alpha":
                index = 2 if attached else 1
            else:
                index = 6 if attached else 3
            fired.append((ev.agent, index, ev.magnitude))
    return fired


def settling_tick_brute(within: np.ndarray) -> int | None:
    """The first tick k with ``within[k:]`` all true, by trying every k;
    None when no such tick exists (or ``within`` is empty)."""
    for k in range(within.shape[0]):
        if within[k:].all():
            return k
    return None


# ---------------------------------------------------------------------------
# alloc-bench one sample at a time, and the one allocation wrapper only
# tests call
# ---------------------------------------------------------------------------


def tick_residual(task_mat: np.ndarray, currents: np.ndarray, target) -> float:
    """One solve's task residual alone, sqrt(r . r) with r = T c - v, as
    ``np.linalg.norm`` forms it: the oracle of ``alloc.residual_norms``,
    which forms a block of them at once."""
    r = task_mat @ currents - target
    return math.sqrt(r @ r)


def allocate_multi_field(a_mats: list, commands: list) -> AllocationResult:
    """Minimum-norm currents realizing field ``commands`` (u_alpha, u_beta,
    magnitude), one per agent, through ``field_map``, a command at a time:
    each ``field_setpoint`` and
    zero on the remaining (gradient) rows stacked by ``np.concatenate``, one
    product with the pseudoinverse, and the residual's 2-norm as
    ``np.linalg.norm`` forms it, sqrt(r . r)."""
    if len(a_mats) != len(commands) or len(a_mats) == 0:
        raise ValueError("a_mats and commands must be equal-length, non-empty")
    task_mat = field_map(a_mats)
    padding = np.zeros(task_mat.shape[0] - 3 * len(commands))
    target = np.concatenate([field_setpoint(*c) for c in commands] + [padding])
    currents = pinv_rank(task_mat)[0] @ target
    return AllocationResult(currents, tick_residual(task_mat, currents, target))


def _field_dipole_angle_deg(field_b: np.ndarray, moment: np.ndarray) -> float:
    """Angle between a field and a moment [deg], NaN if either is zero:
    atan2(|f x m|, f . m) of the two scaled by their largest entries, so no
    square over- or underflows at any finite magnitude."""
    f_scale = max(abs(float(x)) for x in field_b)
    m_scale = max(abs(float(x)) for x in moment)
    if f_scale == 0.0 or m_scale == 0.0:
        return math.nan
    f = [float(x) / f_scale for x in field_b]
    m = [float(x) / m_scale for x in moment]
    cross = (f[1] * m[2] - f[2] * m[1], f[2] * m[0] - f[0] * m[2],
             f[0] * m[1] - f[1] * m[0])
    dot = f[0] * m[0] + f[1] * m[1] + f[2] * m[2]
    return math.degrees(math.atan2(math.hypot(*cross), dot))


def alloc_bench_per_sample(
    model: ActuationModel,
    samples: int,
    seed: int,
    tau_bar: float,
    radius: float,
    max_tilt: float,
    dipole: float,
) -> dict:
    """``emnav alloc-bench`` one sample at a time: the oracle of the batched
    command.

    Each sample draws its position, tilts, task direction and magnitude,
    evaluates its own A(p) and calls the scalar one-step solve and the
    world-frame two-step and zeta* oracles (:func:`two_step_world`,
    :func:`zeta_star_world`).
    Returns the draws (``positions``, ``tilts``, ``torques``), the seven CSV
    value columns (``values``), each row's ``notes`` and the ``violations``;
    or, where a solve raises, ``failure`` = (sample, strategy, message) of
    the first one and nothing else.
    """
    rng = np.random.default_rng(seed)
    positions, tilts, torques, values, notes, violations = [], [], [], [], [], []
    for k in range(samples):
        pos = rng.uniform(-radius, radius, size=3)
        alpha, beta = rng.uniform(-max_tilt, max_tilt, size=2)
        direction = rng.uniform(0.0, 2.0 * math.pi)
        magnitude = tau_bar * rng.uniform(0.1, 1.0)
        tau = (float(magnitude * math.cos(direction)),
               float(magnitude * math.sin(direction)))
        agent = Pose(tuple(pos.tolist()), float(alpha), float(beta), dipole)
        a_mat = actuation_matrix(model, pos)
        strategy = "torque_one_step"
        try:
            i_one = allocate_torque_one_step(
                a_mat, agent.tilts, dipole, tau, 0.0
            ).currents
            strategy = "torque_two_step"
            i_two = two_step_world(a_mat, agent, tau).currents
        except RankDeficiencyError as exc:
            return {"failure": (k, strategy, str(exc))}
        b_one = field_and_gradient(a_mat, i_one)[0]
        b_two = field_and_gradient(a_mat, i_two)[0]
        # hypot scales: it overflows only where the norm itself does.
        norms = [math.hypot(*v) for v in (i_one, i_two, b_one, b_two)]
        angle_one = _field_dipole_angle_deg(b_one, agent.moment)
        angle_two = _field_dipole_angle_deg(b_two, agent.moment)
        try:
            zeta = zeta_star_world(a_mat, agent, tau)
        except DegenerateTaskError:
            zeta = math.nan
        reasons = []
        if norms[0] > norms[1] + 1e-9 * max(norms[0], norms[1]):
            reasons.append("current_norm_order")
        if norms[2] < norms[3] - 1e-9 * max(norms[2], norms[3]):
            reasons.append("field_norm_order")
        if abs(angle_two - 90.0) > 1e-6:
            reasons.append("two_step_angle")
        positions.append(pos)
        tilts.append((alpha, beta))
        torques.append(tau)
        values.append((*norms, angle_one, angle_two, zeta))
        notes.append("+".join(reasons))
        if reasons:
            violations.append(
                {
                    "sample": k,
                    "position": list(pos),
                    "orientation": [alpha, beta],
                    "task": [*tau, 0.0],
                    "reasons": reasons,
                }
            )
    return {
        "failure": None,
        "positions": np.array(positions),
        "tilts": np.array(tilts),
        "torques": np.array(torques),
        "values": np.array(values),
        "notes": notes,
        "violations": violations,
    }


def trace_csv_per_value(trace, path) -> None:
    """``SimTrace.to_csv`` one value at a time through ``csv.writer``: the
    oracle of the chunked writer."""
    n_coils = trace.currents.shape[1]
    header = (
        ["t", "agent", "alpha", "beta", "phi", "theta", "alpha_sp", "beta_sp",
         "tau_x", "tau_y"]
        + [f"i_{k + 1}" for k in range(n_coils)]
        + ["b_x", "b_y", "b_z"]
    )
    fmt = lambda x: format(float(x), ".17g")  # noqa: E731 - local formatter
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for k in range(trace.t.shape[0]):
            for a in range(trace.n_agents):
                row = [
                    fmt(trace.t[k]),
                    str(a),
                    fmt(trace.alpha[k, a]),
                    fmt(trace.beta[k, a]),
                    fmt(trace.phi[k, a]),
                    fmt(trace.theta[k, a]),
                    fmt(trace.alpha_sp[k, a]),
                    fmt(trace.beta_sp[k, a]),
                    fmt(trace.outputs_beta[k, a]),  # tau_x = beta channel
                    fmt(trace.outputs_alpha[k, a]),  # tau_y = alpha channel
                ]
                row += [fmt(v) for v in trace.currents[k]]
                row += [fmt(v) for v in trace.fields[k, a]]
                writer.writerow(row)


def map_csv_per_value(fmap, path) -> None:
    """``FeasibilityMap.to_csv`` one value at a time through ``csv.writer``:
    the oracle of the chunked writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "fm", "feasible", "flag"])
        feas = fmap.feasible
        for k in range(fmap.positions.shape[0]):
            x, y, z = fmap.positions[k]
            writer.writerow(
                [
                    format(float(x), ".17g"),
                    format(float(y), ".17g"),
                    format(float(z), ".17g"),
                    format(float(fmap.fm[k]), ".17g"),
                    int(feas[k]),
                    fmap.flags[k],
                ]
            )


def alloc_bench_csv_per_value(path, values: np.ndarray, notes: list) -> None:
    """The ``emnav alloc-bench`` table one row at a time: the oracle of the
    chunked writer.  ``values`` holds the seven value columns, ``notes`` each
    sample's violation note."""
    with open(path, "w", newline="") as fh:
        fh.write(
            "sample,norm_i_one_step,norm_i_two_step,norm_b_one_step,"
            "norm_b_two_step,angle_one_step_deg,angle_two_step_deg,"
            "zeta_star,violation\n"
        )
        for k, (row, note) in enumerate(zip(values, notes)):
            fh.write(
                ",".join([str(k)] + [format(v, ".17g") for v in row.tolist()]
                         + [note])
                + "\n"
            )
