"""Shared helpers and oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np

from emnav.dynamics import PendulumParams
from emnav.magmodel import MIN_COIL_DISTANCE, DipoleAgent, SingularPositionError

_MU0_OVER_4PI = 1.0e-7

_BODY_U = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def random_agent(rng: np.random.Generator, span: float = 0.04) -> DipoleAgent:
    """Random pivoted dipole inside the central workspace."""
    p = rng.uniform(-span, span, 3)
    return DipoleAgent(
        p=tuple(p),
        alpha=float(rng.uniform(-0.6, 0.6)),
        beta=float(rng.uniform(-0.6, 0.6)),
        dipole_magnitude=float(rng.uniform(0.2, 2.0)),
        polarity=int(rng.choice([-1, 1])),
    )


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


def coupled_accelerations_per_call(
    params: PendulumParams,
    alpha: float,
    phi: float,
    alpha_dot: float,
    phi_dot: float,
    q_alpha: float,
) -> tuple[float, float]:
    """(alpha'', phi'') of one channel, every term computed from ``params``.

    The per-call form of the 2x2 coupled dynamics solve that
    ``dynamics.coupled_accelerations`` hoists into a per-plant closure.
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
        - half_ml_l * phi_dot**2 * s
        + q_alpha
        - p.damping * alpha_dot
    )
    rhs2 = (
        m_pend * p.gravity * 0.5 * p.pend_length * math.sin(phi)
        + half_ml_l * alpha_dot**2 * s
        - p.damping * phi_dot
    )

    det = a11 * a22 - a12 * a12
    alpha_dd = (a22 * rhs1 - a12 * rhs2) / det
    phi_dd = (a11 * rhs2 - a12 * rhs1) / det
    return alpha_dd, phi_dd


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


def torque_map_svd(
    agent: DipoleAgent,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form SVD of the torque-from-field map skew(m).

    Returns:
        (U, s, Vt) with skew(m) = U @ diag(s) @ Vt, s = (|m|, |m|, 0).
        The null direction of the map (last row of Vt) is the dipole axis:
        fields parallel to the moment produce no torque.
    """
    mag = agent.dipole_magnitude
    rt = agent.rotation_t
    u = float(agent.polarity) * rt @ _BODY_U
    s = np.array([mag, mag, 0.0])
    vt = rt.T
    return u, s, vt
