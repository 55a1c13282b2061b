"""Discrete-time LQR synthesis and decoupled LQRI control.

The two tilt channels of a pivoted actuator are controlled independently:
each channel runs its own controller, with the state-feedback gain obtained
from a discrete-time algebraic Riccati equation (DARE), plus an optional
decoupled integral term on the tilt-angle error.  Velocities are estimated by backward differences of
the sampled angles, optionally smoothed by a single-pole low-pass.

The DARE is solved in numpy by the structure-preserving doubling algorithm
(SDA; Chu, Fan & Lin, Linear Algebra Appl. 396, 2005), which converges
quadratically to the stabilizing solution; the relative residual and the
closed-loop spectral radius are reported as independent diagnostics.  scipy
is not imported here: its ``solve_discrete_are`` is the tests' oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SynthesisError(RuntimeError):
    """Gain synthesis failed (no stabilizing DARE solution or unstable loop)."""


@np.errstate(over="ignore", invalid="ignore")
def dare_solve(
    a_d: np.ndarray, b_d: np.ndarray, q: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Solve AᵀPA − P − AᵀPB(R+BᵀPB)⁻¹BᵀPA + Q = 0 for the stabilizing P.

    Doubling from A = A_d, G = B R⁻¹ Bᵀ, H = Q: with W = I + GH, each step
    sets A ← A W⁻¹A, G ← G + A W⁻¹G Aᵀ and H ← H + Aᵀ H W⁻¹A, and H
    converges to P.  It stops when H stops moving, and returns H symmetrized.

    Raises:
        SynthesisError: If an iterate is not finite, a step's solve fails or
            H has not converged in 64 steps (as for an unstabilizable pair).
    """
    a, b, h = (np.asarray(x, dtype=float) for x in (a_d, b_d, q))
    n, fail = len(a), "DARE has no stabilizing solution: doubling"
    try:
        g = b @ np.linalg.solve(r, b.T)
        for _ in range(64):
            v = np.linalg.solve(np.eye(n) + g @ h, np.hstack((a, g)))
            dh = a.T @ h @ v[:, :n]
            a, g, h = a @ v[:, :n], g + a @ v[:, n:] @ a.T, h + dh
            if not np.all(np.isfinite(h)):
                raise SynthesisError(f"{fail} iterate is not finite")
            if np.max(np.abs(dh)) <= 1e-15 * np.max(np.abs(h)):
                return 0.5 * (h + h.T)
    except np.linalg.LinAlgError as exc:
        raise SynthesisError(f"{fail} step failed: {exc}") from exc
    raise SynthesisError(f"{fail} did not converge in 64 steps")


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
    """LQRI configuration of one agent; both its tilt channels use it.  The
    controller period is the run's control tick, given to ``LqriController``.

    Attributes:
        q_diag: Diagonal state weights (length = plant state dimension).
        r_weight: Scalar input weight, > 0.
        k_i: Integral gain on the tilt-angle error [1/s].
        integral_enabled: Whether the integral term accumulates at all.
        integral_warm_start: Initial value of the accumulated integral term
            (the stored output bias, reproduced exactly at the first step).
        anti_windup_limit: Clamp (>= 0) on |integral term|; None: no clamp.
        velocity_filter_cutoff: Single-pole low-pass cutoff [Hz] for velocity
            estimates, > 0; None disables filtering.
    """

    q_diag: tuple[float, ...] = (20.0, 40.0, 1.0, 1.0)
    r_weight: float = 1.0
    k_i: float = 0.0
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
        limit, cutoff = self.anti_windup_limit, self.velocity_filter_cutoff
        if limit is not None and limit < 0:
            raise ValueError(f"anti_windup_limit must be non-negative, got {limit}")
        if cutoff is not None and cutoff <= 0:
            raise ValueError(f"velocity_filter_cutoff must be positive, got {cutoff}")


def lqr_gain(
    a_d: np.ndarray, b_d: np.ndarray, config: ControllerConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """Synthesize the discrete LQR gain row for the single-input system
    (a_d, b_d).

    ``config.q_diag`` holds one weight per state (``sim.AgentSetup`` checks).

    Returns:
        (K, P, rho): K of shape (1, n) with u = -K x optimal for Q =
        diag(q_diag), R = r_weight; P is the DARE solution K was computed
        from; rho < 1 is the closed-loop spectral radius of A_d - B_d K.

    Raises:
        SynthesisError: If the DARE has no stabilizing solution or the closed
            loop is unstable.
    """
    q = np.diag(config.q_diag)
    r = np.array([[config.r_weight]])
    p = dare_solve(a_d, b_d, q, r)
    btp = b_d.T @ p
    k = np.linalg.solve(r + btp @ b_d, btp @ a_d)
    rho = float(np.max(np.abs(np.linalg.eigvals(a_d - b_d @ k))))
    if rho >= 1.0:
        raise SynthesisError(f"closed loop unstable: spectral radius {rho:.6f} >= 1")
    return k, p, rho


class LqriController:
    """One tilt channel's LQRI: u = K (x_sp − x) + integral term.

    ``step`` takes the channel's measured actuator and pendulum angles and
    estimates their rates by backward differences over ``sample_time`` (the
    run's control tick; ``VelocityEstimator``, smoothed as the config sets).
    The gain's length gives the plant layout: 4 for (actuator, pendulum,
    actuator rate, pendulum rate), 2 for (actuator, actuator rate) without
    a pendulum, whose angle is then ignored.  The setpoint x_sp tracks the
    actuator angle and holds the other states at zero: the balanced pendulum
    stays vertical whatever the actuator tilt.

    The controller keeps no clock: each step's ``integrate`` says whether
    the integral term accumulates; else it is held, not reset.  It is
    emitted first and accumulated after (rectangle rule), so a warm-started
    value is reproduced exactly at step 0, and a constant error e over n
    accumulating steps contributes exactly k_i·e·n·sample_time after them.
    """

    def __init__(
        self, gain: np.ndarray, config: ControllerConfig, sample_time: float
    ) -> None:
        self.gain = tuple(np.atleast_2d(np.asarray(gain, dtype=float))[0].tolist())
        self.config = config
        self.sample_time = sample_time
        self.integral_value = float(config.integral_warm_start)
        self.attached = len(self.gain) == 4
        cutoff = config.velocity_filter_cutoff
        self.vel_actuator = VelocityEstimator(sample_time, cutoff)
        self.vel_pendulum = VelocityEstimator(sample_time, cutoff)

    def step(
        self, actuator: float, pendulum: float, alpha_sp: float, integrate: bool
    ) -> float:
        """Advance one controller period and return the channel output; the
        integral accumulates if ``integrate`` and the config enables it."""
        rate_a = self.vel_actuator.push(actuator)
        # The gain-error dot product in floats.  0.0 - x, not -x: a zero
        # state gives a +0.0 error, so that a zero output is written as 0.
        if self.attached:
            rate_p = self.vel_pendulum.push(pendulum)
            k_a, k_p, k_ra, k_rp = self.gain
            output = (k_a * (alpha_sp - actuator) + k_p * (0.0 - pendulum)
                      + k_ra * (0.0 - rate_a) + k_rp * (0.0 - rate_p))
        else:
            k_a, k_ra = self.gain
            output = k_a * (alpha_sp - actuator) + k_ra * (0.0 - rate_a)
        output += self.integral_value
        cfg = self.config
        if integrate and cfg.integral_enabled:
            self.integral_value += cfg.k_i * (alpha_sp - actuator) * self.sample_time
            limit = cfg.anti_windup_limit
            if limit is not None:
                self.integral_value = min(max(self.integral_value, -limit), limit)
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
