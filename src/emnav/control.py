"""Discrete-time LQR synthesis and decoupled LQRI control.

The two tilt channels of a pivoted actuator are controlled independently:
each channel runs its own state-feedback gain obtained from a discrete-time
algebraic Riccati equation (DARE), plus an optional decoupled integral term
on the tilt-angle error.  Velocities are estimated by backward differences of
the sampled angles, optionally smoothed by a single-pole low-pass.

The DARE is solved by scipy's ``solve_discrete_are`` (the generalized
eigenvector method of Arnold & Laub, Proc. IEEE 1984); the relative residual
and the closed-loop spectral radius are reported as independent diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_are

from .dynamics import LinearSystem


class SynthesisError(RuntimeError):
    """Gain synthesis failed (no stabilizing DARE solution or unstable loop)."""


def dare_solve(
    a_d: np.ndarray, b_d: np.ndarray, q: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Solve AᵀPA − P − AᵀPB(R+BᵀPB)⁻¹BᵀPA + Q = 0 for the stabilizing P.

    Raises:
        SynthesisError: If scipy finds no finite stabilizing solution (for
            example, the pair is not stabilizable).
    """
    try:
        return solve_discrete_are(a_d, b_d, q, r)
    except ValueError as exc:  # numpy's LinAlgError is a ValueError
        raise SynthesisError(f"DARE has no stabilizing solution: {exc}") from exc


def dare_residual(
    p: np.ndarray, a_d: np.ndarray, b_d: np.ndarray, q: np.ndarray, r: np.ndarray
) -> float:
    """Relative residual of the DARE at P: max-abs residual over max |P|.

    The residual is homogeneous in (P, Q, R), so this ratio does not change
    when all three are scaled together.
    """
    a_d = np.asarray(a_d, dtype=float)
    b_d = np.asarray(b_d, dtype=float)
    btp = b_d.T @ p
    gain_term = np.linalg.solve(np.asarray(r, float) + btp @ b_d, btp @ a_d)
    res = a_d.T @ p @ a_d - p - a_d.T @ p @ b_d @ gain_term + np.asarray(q, float)
    return float(np.max(np.abs(res)) / np.max(np.abs(p)))


@dataclass(frozen=True)
class ControllerConfig:
    """Per-channel LQRI configuration.

    Attributes:
        q_diag: Diagonal state weights (length = plant state dimension).
        r_weight: Scalar input weight, > 0.
        k_i: Integral gain on the tilt-angle error [1/s].
        sample_time: Controller period [s].
        integral_enabled: Whether the integral term accumulates at all.
        integral_warm_start: Initial value of the accumulated integral term
            (the stored output bias, reproduced exactly at the first step).
        anti_windup_limit: Clamp on |integral term|; None disables clamping.
        velocity_filter_cutoff: Single-pole low-pass cutoff [Hz] for velocity
            estimates; None disables filtering.
    """

    q_diag: tuple[float, ...] = (20.0, 40.0, 1.0, 1.0)
    r_weight: float = 1.0
    k_i: float = 0.0
    sample_time: float = 1.0 / 200.0
    integral_enabled: bool = False
    integral_warm_start: float = 0.0
    anti_windup_limit: float | None = None
    velocity_filter_cutoff: float | None = None

    def __post_init__(self) -> None:
        q = tuple(float(v) for v in self.q_diag)
        if not all(math.isfinite(v) for v in q):
            raise ValueError("q_diag entries must be finite")
        if any(v < 0 for v in q) or not any(v > 0 for v in q):
            raise ValueError("q_diag must be non-negative with a positive entry")
        object.__setattr__(self, "q_diag", q)
        for name in (
            "r_weight", "k_i", "integral_warm_start", "anti_windup_limit",
            "velocity_filter_cutoff",
        ):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.r_weight <= 0:
            raise ValueError("r_weight must be positive")
        if self.sample_time <= 0:
            raise ValueError("sample_time must be positive")


def lqr_gain(
    sys: LinearSystem, config: ControllerConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize the discrete LQR gain row for a single-input system.

    Returns:
        (K, P): K of shape (1, n) with u = -K x optimal for Q = diag(q_diag),
        R = r_weight and a closed-loop spectral radius < 1; P is the DARE
        solution K was computed from.

    Raises:
        SynthesisError: If the DARE has no stabilizing solution or the closed
            loop is unstable.
    """
    a_d, b_d = sys.a_d, sys.b_d
    n = a_d.shape[0]
    if len(config.q_diag) != n:
        raise ValueError(
            f"q_diag has length {len(config.q_diag)}, plant has {n} states"
        )
    q = np.diag(config.q_diag)
    r = np.array([[config.r_weight]])
    p = dare_solve(a_d, b_d, q, r)
    btp = b_d.T @ p
    k = np.linalg.solve(r + btp @ b_d, btp @ a_d)
    rho = closed_loop_spectral_radius(sys, k)
    if rho >= 1.0:
        raise SynthesisError(f"closed loop unstable: spectral radius {rho:.6f} >= 1")
    return k, p


def closed_loop_spectral_radius(sys: LinearSystem, k: np.ndarray) -> float:
    """Spectral radius of A_d − B_d K."""
    return float(np.max(np.abs(np.linalg.eigvals(sys.a_d - sys.b_d @ k))))


def setpoint_state(alpha_sp: float, n_states: int) -> np.ndarray:
    """Lift a tilt-angle setpoint to a full state-vector setpoint.

    The companion states (the passive pendulum tilt, and all rates) are zero
    at the tracked equilibrium: the balanced pendulum stays vertical
    regardless of the actuator tilt.
    """
    x = np.zeros(n_states)
    x[0] = alpha_sp
    return x


@dataclass(frozen=True)
class IntegralSchedule:
    """Time windows in which the integral term accumulates.

    Outside every window the integral value is frozen (held, not reset).
    An empty window tuple means "always active".
    """

    windows: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        wins = tuple((float(a), float(b)) for a, b in self.windows)
        prev_end = -math.inf
        for start, end in wins:
            if end <= start:
                raise ValueError(f"window ({start}, {end}) is empty or reversed")
            if start < prev_end:
                raise ValueError("integral windows overlap or are out of order")
            prev_end = end
        object.__setattr__(self, "windows", wins)

    def active(self, t: float) -> bool:
        if not self.windows:
            return True
        return any(start <= t < end for start, end in self.windows)


class LqriController:
    """Single-channel LQRI: u = K (x_sp − x) + integral term.

    The integral term is emitted first and accumulated after (rectangle
    rule), so a warm-started value is reproduced exactly at step 0, and a
    constant error e held for T seconds contributes exactly k_i·e·T to the
    output at t = T.
    """

    def __init__(
        self,
        gain: np.ndarray,
        config: ControllerConfig,
        schedule: IntegralSchedule | None = None,
    ) -> None:
        self.gain = np.atleast_2d(np.asarray(gain, dtype=float))
        self.config = config
        self.schedule = schedule if schedule is not None else IntegralSchedule()
        self.integral_value = float(config.integral_warm_start)
        self.step_count = 0

    @property
    def time(self) -> float:
        return self.step_count * self.config.sample_time

    def step(self, state: np.ndarray, alpha_sp: float) -> float:
        """Advance one controller period and return the channel output."""
        x = np.asarray(state, dtype=float)
        n = self.gain.shape[1]
        if x.shape != (n,):
            raise ValueError(f"state has shape {x.shape}, gain expects ({n},)")
        error = setpoint_state(alpha_sp, n) - x
        output = float(self.gain[0] @ error) + self.integral_value
        cfg = self.config
        if cfg.integral_enabled and self.schedule.active(self.time):
            self.integral_value += cfg.k_i * (alpha_sp - x[0]) * cfg.sample_time
            if cfg.anti_windup_limit is not None:
                limit = abs(cfg.anti_windup_limit)
                self.integral_value = min(max(self.integral_value, -limit), limit)
        self.step_count += 1
        return output


class VelocityEstimator:
    """Backward-difference angular-rate estimate with optional smoothing.

    The first sample yields rate 0 (no history).  With a cutoff configured,
    the raw difference is filtered by a single-pole low-pass
    y += (1 − e^{−2π f_c dt}) (x − y).
    """

    def __init__(self, dt: float, cutoff_hz: float | None = None) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt
        self.cutoff_hz = cutoff_hz
        self._alpha = (
            1.0 - math.exp(-2.0 * math.pi * cutoff_hz * dt) if cutoff_hz else 1.0
        )
        self._prev: float | None = None
        self._filtered = 0.0

    def push(self, angle: float) -> float:
        if self._prev is None:
            raw = 0.0
        else:
            raw = (angle - self._prev) / self.dt
        self._prev = angle
        self._filtered += self._alpha * (raw - self._filtered)
        return self._filtered
