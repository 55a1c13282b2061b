"""Discrete-time LQR synthesis and decoupled LQRI control.

The two tilt channels of a pivoted actuator are controlled independently:
each channel runs its own controller, with the state-feedback gain obtained
from a discrete-time algebraic Riccati equation (DARE), plus an optional
decoupled integral term on the tilt-angle error.  Velocities are estimated by backward differences of
the sampled angles, optionally smoothed by a single-pole low-pass.

The DARE is solved by scipy's ``solve_discrete_are`` (the generalized
eigenvector method of Arnold & Laub, Proc. IEEE 1984); the relative residual
and the closed-loop spectral radius are reported as independent diagnostics.
``scipy.linalg`` is imported at the first solve, not with this module: it is
about half of a command's start-up, and only ``simulate``'s synthesis uses
it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import LinearSystem


class SynthesisError(RuntimeError):
    """Gain synthesis failed (no stabilizing DARE solution or unstable loop)."""


def dare_solve(
    a_d: np.ndarray, b_d: np.ndarray, q: np.ndarray, r: np.ndarray
) -> np.ndarray:
    """Solve AᵀPA − P − AᵀPB(R+BᵀPB)⁻¹BᵀPA + Q = 0 for the stabilizing P.
    scipy's warnings are held: re-emitted on success, named in the error.

    Raises:
        SynthesisError: If scipy finds no finite stabilizing solution (for
            example, the pair is not stabilizable).
    """
    from scipy.linalg import solve_discrete_are

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            p = solve_discrete_are(a_d, b_d, q, r)
        except ValueError as exc:  # numpy's LinAlgError is a ValueError
            notes = "".join(f" ({w.category.__name__}: {w.message})" for w in caught)
            raise SynthesisError(
                f"DARE has no stabilizing solution: {exc}{notes}") from exc
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return p


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
    sys: LinearSystem, config: ControllerConfig
) -> tuple[np.ndarray, np.ndarray, float]:
    """Synthesize the discrete LQR gain row for a single-input system.

    ``config.q_diag`` holds one weight per state (``sim.AgentSetup`` checks).

    Returns:
        (K, P, rho): K of shape (1, n) with u = -K x optimal for Q =
        diag(q_diag), R = r_weight; P is the DARE solution K was computed
        from; rho < 1 is the closed-loop spectral radius of A_d - B_d K.

    Raises:
        SynthesisError: If the DARE has no stabilizing solution or the closed
            loop is unstable.
    """
    a_d, b_d = sys.a_d, sys.b_d
    q = np.diag(config.q_diag)
    r = np.array([[config.r_weight]])
    p = dare_solve(a_d, b_d, q, r)
    btp = b_d.T @ p
    k = np.linalg.solve(r + btp @ b_d, btp @ a_d)
    rho = closed_loop_spectral_radius(sys, k)
    if rho >= 1.0:
        raise SynthesisError(f"closed loop unstable: spectral radius {rho:.6f} >= 1")
    return k, p, rho


def closed_loop_spectral_radius(sys: LinearSystem, k: np.ndarray) -> float:
    """Spectral radius of A_d − B_d K."""
    return float(np.max(np.abs(np.linalg.eigvals(sys.a_d - sys.b_d @ k))))


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
