"""Pendulum-on-actuator mechanics: the plant the simulator integrates, its
linearizations for both actuation paradigms, and their finite-difference
check.

The plant is a pivoted actuator rod (carrying the magnet stack) with an
inverted pendulum balanced on top of it, or the actuator alone.  Planar
motion is described by the actuator tilt (alpha) and the pendulum tilt
(phi); the full 3D plant is two such planar systems, one per tilt direction,
coupled only through the shared magnetics.

Two actuation paradigms are linearized:

* ``field``: the input is the commanded field angle u_alpha; the magnetic
  torque on the actuator is |m||b| sin(u_alpha - alpha).
* ``torque``: the input is the torque applied to the actuator directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

PARADIGMS = ("field", "torque")


@dataclass(frozen=True)
class PendulumParams:
    """Physical parameters of the actuator/pendulum plant.

    Attributes:
        pend_mass: Pendulum mass M [kg].
        arm_length: Pivot-to-pendulum-support distance l [m].
        pend_length: Pendulum length L [m] (uniform rod, mass at centroid L/2).
        magnet_offset: Pivot-to-magnet-center distance l_m [m].
        eta: Actuator first mass moment about the pivot [kg·m].
        inertia: Actuator moment of inertia about the pivot J [kg·m²].
        gravity: Gravitational acceleration [m/s²].
        dipole_magnitude: Magnet dipole moment |m| [A·m²].
        damping: Viscous damping coefficient applied per joint [N·m·s/rad].
    """

    pend_mass: float = 0.02
    arm_length: float = 0.10
    pend_length: float = 0.20
    magnet_offset: float = 0.05
    eta: float = 0.01
    inertia: float = 5.0e-4
    gravity: float = 9.81
    dipole_magnitude: float = 0.5
    damping: float = 0.0

    def __post_init__(self) -> None:
        positive = (
            "pend_mass",
            "arm_length",
            "pend_length",
            "magnet_offset",
            "eta",
            "inertia",
            "gravity",
            "dipole_magnitude",
        )
        for name in positive:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.damping < 0.0:
            raise ValueError("damping must be non-negative")


def _check_paradigm(paradigm: str) -> None:
    if paradigm not in PARADIGMS:
        raise ValueError(f"paradigm must be one of {PARADIGMS}, got '{paradigm}'")


# ---------------------------------------------------------------------------
# The simulated plant
# ---------------------------------------------------------------------------


def coupled_accelerations(params: PendulumParams):
    """The 2x2 coupled dynamics solver for (alpha'', phi'') of one plant.

    Returns ``accelerations(alpha, phi, alpha_dot, phi_dot, q_alpha)``, where
    q_alpha is the generalized force on the actuator joint (magnetic torque
    plus any disturbance); the pendulum joint is unactuated.  The constant
    mass-matrix entries and gravity coefficients are computed here, once per
    plant, in the same operation order as the per-call formula, so the result
    is bit-identical to it.
    """
    p = params
    m_pend = p.pend_mass
    half_ml_l = 0.5 * m_pend * p.arm_length * p.pend_length
    a11 = p.inertia + m_pend * p.arm_length**2
    a22 = 0.25 * m_pend * p.pend_length**2
    a11_a22 = a11 * a22
    k1 = (p.eta + m_pend * p.arm_length) * p.gravity
    k2 = m_pend * p.gravity * 0.5 * p.pend_length
    damping = p.damping
    sin = math.sin
    cos = math.cos

    def accelerations(
        alpha: float, phi: float, alpha_dot: float, phi_dot: float, q_alpha: float
    ) -> tuple[float, float]:
        c = cos(alpha - phi)
        s = sin(alpha - phi)
        a12 = half_ml_l * c
        rhs1 = (
            k1 * sin(alpha)
            - half_ml_l * phi_dot**2 * s
            + q_alpha
            - damping * alpha_dot
        )
        rhs2 = k2 * sin(phi) + half_ml_l * alpha_dot**2 * s - damping * phi_dot
        det = a11_a22 - a12 * a12
        return (a22 * rhs1 - a12 * rhs2) / det, (a11 * rhs2 - a12 * rhs1) / det

    return accelerations


def rk4_tick(
    y: tuple,
    deriv,
    substeps: int,
    dt: float,
    b_grid: list,
    g_grid: list,
    bias_a: float,
    bias_b: float,
) -> tuple:
    """Integrate one controller tick of ``substeps`` RK4 steps of size dt.

    ``b_grid``/``g_grid`` hold the field and packed gradient at every half
    step (2·substeps + 1 entries); ``bias_a``/``bias_b`` are constant
    generalized forces on the two actuator joints.  Pure Python floats.
    """
    half = 0.5 * dt
    sixth = dt / 6.0
    for j in range(substeps):
        base = 2 * j
        k1 = deriv(y, base, b_grid, g_grid, bias_a, bias_b)
        y2 = tuple(v + half * k for v, k in zip(y, k1))
        k2 = deriv(y2, base + 1, b_grid, g_grid, bias_a, bias_b)
        y3 = tuple(v + half * k for v, k in zip(y, k2))
        k3 = deriv(y3, base + 1, b_grid, g_grid, bias_a, bias_b)
        y4 = tuple(v + dt * k for v, k in zip(y, k3))
        k4 = deriv(y4, base + 2, b_grid, g_grid, bias_a, bias_b)
        y = tuple(
            v + sixth * (a + 2.0 * (b + c) + d)
            for v, a, b, c, d in zip(y, k1, k2, k3, k4)
        )
    return y


def make_deriv(params: PendulumParams, attached: bool, mag_pol: float):
    """Plant derivative for one agent's joint (alpha+beta channel) state.

    The state is (alpha, phi, alpha', phi', beta, theta, beta', theta') with
    a pendulum attached, else (alpha, alpha', beta, beta').  ``mag_pol`` is
    the signed dipole moment |m|·polarity.
    """
    lever = params.magnet_offset
    eta_g = params.eta * params.gravity
    damping = params.damping
    inertia = params.inertia
    sin = math.sin
    cos = math.cos
    accelerations = coupled_accelerations(params)

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
            add, phdd = accelerations(a, ph, ad, phd, qa)
            bdd, thdd = accelerations(bb, th, bd, thd, qb)
            return (ad, phd, add, phdd, bd, thd, bdd, thdd)
        add = (eta_g * sa + qa - damping * ad) / inertia
        bdd = (eta_g * sb + qb - damping * bd) / inertia
        return (ad, add, bd, bdd)

    return deriv


# ---------------------------------------------------------------------------
# Linearization and discretization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSystem:
    """Continuous-time linear model with its zero-order-hold discretization."""

    a: np.ndarray
    b: np.ndarray
    a_d: np.ndarray
    b_d: np.ndarray
    sample_time: float


def discretize(a: np.ndarray, b: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact zero-order-hold discretization via the augmented matrix exponential."""
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
) -> LinearSystem:
    """Linearize the coupled plant about the upright equilibrium.

    State order: (alpha, phi, alpha_dot, phi_dot); single input (torque or
    field angle depending on the paradigm).
    """
    _check_paradigm(paradigm)
    if sample_time <= 0.0:
        raise ValueError("sample_time must be strictly positive")
    p = params
    m_pend = p.pend_mass
    mass = np.array(
        [
            [p.inertia + m_pend * p.arm_length**2, 0.5 * m_pend * p.arm_length * p.pend_length],
            [0.5 * m_pend * p.arm_length * p.pend_length, 0.25 * m_pend * p.pend_length**2],
        ]
    )
    stiff = np.diag(
        [
            (p.eta + m_pend * p.arm_length) * p.gravity,
            m_pend * p.gravity * 0.5 * p.pend_length,
        ]
    )
    if paradigm == "field":
        mb = p.dipole_magnitude * b_mag
        stiff[0, 0] -= mb
        force = np.array([[mb], [0.0]])
    else:
        force = np.array([[1.0], [0.0]])

    mass_inv = np.linalg.inv(mass)
    a = np.zeros((4, 4))
    a[0:2, 2:4] = np.eye(2)
    a[2:4, 0:2] = mass_inv @ stiff
    a[2:4, 2:4] = -p.damping * mass_inv
    b = np.zeros((4, 1))
    b[2:4, :] = mass_inv @ force

    a_d, b_d = discretize(a, b, sample_time)
    return LinearSystem(a=a, b=b, a_d=a_d, b_d=b_d, sample_time=sample_time)


def linearize_actuator(
    params: PendulumParams,
    paradigm: str,
    b_mag: float = 0.0,
    sample_time: float = 0.005,
) -> LinearSystem:
    """Linearize the actuator-only plant (no pendulum) about upright.

    State order: (alpha, alpha_dot).  For the field paradigm the stiffness
    entry is (eta g - |m||b|) / J: negative stiffness, i.e. open-loop
    stability, requires |m||b| > eta g.
    """
    _check_paradigm(paradigm)
    p = params
    if paradigm == "field":
        mb = p.dipole_magnitude * b_mag
        stiffness = p.eta * p.gravity - mb
        gain = mb
    else:
        stiffness = p.eta * p.gravity
        gain = 1.0
    a = np.array([[0.0, 1.0], [stiffness / p.inertia, -p.damping / p.inertia]])
    b = np.array([[0.0], [gain / p.inertia]])
    a_d, b_d = discretize(a, b, sample_time)
    return LinearSystem(a=a, b=b, a_d=a_d, b_d=b_d, sample_time=sample_time)


def finite_difference_linearization(
    params: PendulumParams,
    paradigm: str,
    b_mag: float = 0.0,
    attached: bool = True,
    eps: float = 1.0e-6,
) -> tuple[np.ndarray, np.ndarray]:
    """Central finite-difference Jacobians of the plant the simulator runs.

    Differentiates the alpha channel of :func:`make_deriv` at the upright
    equilibrium, with the beta channel at rest and zero field gradient.  The
    input is the generalized force on the actuator joint with zero field
    (torque paradigm), or the angle u of the field |b|·(sin u, 0, cos u)
    (field paradigm).  Independent cross-check of :func:`linearize`
    (``attached``) and :func:`linearize_actuator`; returns (A, B) in their
    state order.
    """
    _check_paradigm(paradigm)
    deriv = make_deriv(params, attached, params.dipole_magnitude)
    n = 4 if attached else 2
    no_gradient = [(0.0,) * 5]

    def f(x: np.ndarray, u: float) -> np.ndarray:
        y = tuple(float(v) for v in x) + (0.0,) * n
        if paradigm == "torque":
            b_grid, bias = [(0.0, 0.0, 0.0)], u
        else:
            b_grid, bias = [(b_mag * math.sin(u), 0.0, b_mag * math.cos(u))], 0.0
        return np.array(deriv(y, 0, b_grid, no_gradient, bias, 0.0)[:n])

    x0 = np.zeros(n)
    a = np.zeros((n, n))
    for j in range(n):
        dx = np.zeros(n)
        dx[j] = eps
        a[:, j] = (f(x0 + dx, 0.0) - f(x0 - dx, 0.0)) / (2.0 * eps)
    b = ((f(x0, eps) - f(x0, -eps)) / (2.0 * eps)).reshape(n, 1)
    return a, b
