"""Tests for LQR synthesis and the decoupled LQRI controller.

Oracles:
  * the closed-form root of the scalar DARE;
  * scipy's ``solve_discrete_are`` (the generalized eigenvector method of
    Arnold & Laub, Proc. IEEE 1984), against which the doubling solver runs
    on random stabilizable pairs;
  * the Joseph (closed-loop Lyapunov) form of the Riccati equation,
    P = (A-BK)ᵀP(A-BK) + Q + KᵀRK, which shares no arithmetic with the
    residual the synthesis reports;
  * exact integrator arithmetic (rectangle rule) for the integral term.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_discrete_are

from emnav.control import (
    ControllerConfig,
    LqriController,
    SynthesisError,
    VelocityEstimator,
    dare_residual,
    dare_solve,
    lqr_gain,
)

from helpers import estimate_velocities, linearize


def spectral_radius(a: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(a))))


@pytest.fixture
def torque_sys(params):
    return linearize(params, "torque", sample_time=1 / 200)


class TestDare:
    def test_scalar_closed_form(self):
        # a = 0.5, b = q = r = 1: P solves P^2 - 0.25 P - 1 = 0.
        a_d = np.array([[0.5]])
        b_d = np.array([[1.0]])
        p = dare_solve(a_d, b_d, np.eye(1), np.eye(1))
        p_exact = (0.25 + math.sqrt(0.25**2 + 4.0)) / 2.0
        assert p[0, 0] == pytest.approx(p_exact, rel=1e-12)
        k_exact = p_exact * 0.5 / (1.0 + p_exact)
        k = np.linalg.solve(1.0 + b_d.T @ p @ b_d, b_d.T @ p @ a_d)
        assert k[0, 0] == pytest.approx(k_exact, rel=1e-12)

    @staticmethod
    def assert_riccati_solution(a_d, b_d, q, r, p, rtol):
        # Stabilizing, symmetric positive definite, and a fixed point of the
        # Joseph form.
        k = np.linalg.solve(r + b_d.T @ p @ b_d, b_d.T @ p @ a_d)
        a_cl = a_d - b_d @ k
        assert np.max(np.abs(np.linalg.eigvals(a_cl))) < 1.0
        np.testing.assert_array_equal(p, p.T)
        assert np.min(np.linalg.eigvalsh(p)) > 0.0
        joseph = a_cl.T @ p @ a_cl + q + k.T @ r @ k
        assert np.max(np.abs(joseph - p)) <= rtol * np.max(np.abs(p))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "a_d,b_d,r,reason",
        [
            # An unreachable expanding mode: H grows as 1.5**(2**k).
            (1.5, 0.0, 1.0, "iterate is not finite"),
            # An unreachable mode on the unit circle: H doubles each step.
            (-1.0, 0.0, 1.0, "did not converge in 64 steps"),
            # G = -1 and H = 1 make W = I + GH singular.
            (0.5, 1.0, -1.0, "step failed: Singular matrix"),
        ],
    )
    def test_doubling_failure_names_its_reason(self, a_d, b_d, r, reason):
        with pytest.raises(SynthesisError) as info:
            dare_solve(np.array([[a_d]]), np.array([[b_d]]), np.eye(1),
                       np.array([[r]]))
        assert str(info.value) == (
            f"DARE has no stabilizing solution: doubling {reason}")

    def test_pendulum_riccati_identities(self, torque_sys):
        q = np.diag([20.0, 40.0, 1.0, 1.0])
        r = np.array([[1.0]])
        p = dare_solve(torque_sys.a_d, torque_sys.b_d, q, r)
        self.assert_riccati_solution(torque_sys.a_d, torque_sys.b_d, q, r, p, 1e-10)
        assert dare_residual(p, torque_sys.a_d, torque_sys.b_d, q, r) < 1e-12

    def test_random_stable_riccati_identities(self, rng):
        for _ in range(10):
            a_d = rng.uniform(-0.4, 0.4, (3, 3))
            b_d = rng.uniform(-1, 1, (3, 1))
            q = np.diag(rng.uniform(0.5, 5.0, 3))
            r = np.array([[float(rng.uniform(0.5, 2.0))]])
            p = dare_solve(a_d, b_d, q, r)
            self.assert_riccati_solution(a_d, b_d, q, r, p, 1e-12)
            assert dare_residual(p, a_d, b_d, q, r) < 1e-12

    def test_residual_is_scale_free(self, torque_sys):
        # The DARE residual is homogeneous in (P, Q, R): scaling all three
        # together leaves the relative residual unchanged, however small
        # the scale.  A floor on the scale would hide the error of a P
        # solved for a tiny Q, as on the disturbance scenarios (q = 1e-9).
        q = np.diag([20.0, 40.0, 1.0, 1.0])
        r = np.array([[1.0]])
        a_d, b_d = torque_sys.a_d, torque_sys.b_d
        p = dare_solve(a_d, b_d, q, r) * (1.0 + 1e-6)  # deliberately off
        base = dare_residual(p, a_d, b_d, q, r)
        assert base > 1e-9
        for scale in (1e-3, 1e-6, 1e-9):
            scaled = dare_residual(scale * p, a_d, b_d, scale * q, scale * r)
            assert scaled == pytest.approx(base, rel=1e-6)


@st.composite
def well_posed_pairs(draw):
    """(A, B, Q, R) with n = 2..6 states and one or two inputs, entries of A
    in [-1.5, 1.5] and of B in [-1, 1].  The controllability matrix's
    smallest singular value is at least 1e-2 and 1e-3 of its largest (the
    pair is stabilizable with margin), and scipy's P has a condition number
    of at most 1e4.  Past that both solvers lose digits: on 2e4 random pairs
    with cond(P) up to 4e9, the doubling's residual reached 8.7e-6 where
    scipy's was 1.7e-7."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 2))
    a = draw(arrays(float, (n, n), elements=st.floats(-1.5, 1.5)))
    b = draw(arrays(float, (n, m), elements=st.floats(-1.0, 1.0)))
    q = np.diag(draw(arrays(float, n, elements=st.floats(0.1, 10.0))))
    r = np.diag(draw(arrays(float, m, elements=st.floats(0.1, 10.0))))
    ctrb = np.hstack([np.linalg.matrix_power(a, i) @ b for i in range(n)])
    sv = np.linalg.svd(ctrb, compute_uv=False)
    assume(sv[-1] >= max(1e-2, 1e-3 * sv[0]))
    p_ref = solve_discrete_are(a, b, q, r)
    assume(np.linalg.cond(p_ref) <= 1e4)
    return a, b, q, r, p_ref


@settings(max_examples=200, deadline=None)
@given(well_posed_pairs())
def test_doubling_matches_scipy_dare(pair):
    # Within 1e-9 of scipy's P relative to max |P|, with a DARE residual of
    # at most 1e-10 (worst seen on 2e4 random pairs: 1.0e-10 and 6.3e-12;
    # scipy's own residual reached 7.1e-11).
    a, b, q, r, p_ref = pair
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = dare_solve(a, b, q, r)
    assert np.max(np.abs(p - p_ref)) <= 1e-9 * np.max(np.abs(p_ref))
    assert dare_residual(p, a, b, q, r) <= 1e-10


class TestLqrGain:
    def test_pendulum_stabilizing(self, torque_sys):
        cfg = ControllerConfig()
        a_d, b_d = torque_sys.a_d, torque_sys.b_d
        k, p, rho = lqr_gain(a_d, b_d, cfg)
        assert k.shape == (1, 4)
        assert rho == spectral_radius(a_d - b_d @ k) < 1.0
        # The returned P is the one K was computed from.
        r = np.array([[cfg.r_weight]])
        np.testing.assert_array_equal(
            k, np.linalg.solve(r + b_d.T @ p @ b_d, b_d.T @ p @ a_d)
        )

    def test_cheap_control_limit(self):
        # On a stable plant, tiny Q with huge R drives the gain to zero and
        # the closed-loop spectral radius to the open-loop one.
        from emnav.dynamics import PendulumParams

        stable_params = PendulumParams(eta=0.002, damping=0.005)
        sys = linearize(stable_params, "field", b_mag=0.065, sample_time=1 / 200,
                        attached=False)
        cfg = ControllerConfig(q_diag=(1e-9, 1e-9), r_weight=1e9)
        k, _, rho = lqr_gain(sys.a_d, sys.b_d, cfg)
        assert np.max(np.abs(k)) < 1e-6
        assert rho == pytest.approx(spectral_radius(sys.a_d), rel=1e-6)

    def test_gain_norm_monotone_in_rate(self, params):
        # Lower sampling rates synthesize less aggressive gains.
        norms = []
        for rate in (50.0, 100.0, 200.0):
            sys = linearize(params, "torque", sample_time=1.0 / rate)
            k, _, _ = lqr_gain(sys.a_d, sys.b_d, ControllerConfig())
            norms.append(np.max(np.abs(k)))
        assert norms[0] < norms[1] < norms[2]

    def test_unstabilizable_system_fails(self):
        # Unreachable unstable mode: B = 0 on an expanding state.
        with pytest.raises(SynthesisError):
            lqr_gain(np.array([[1.5]]), np.array([[0.0]]),
                     ControllerConfig(q_diag=(1.0,)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ControllerConfig(q_diag=(0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            ControllerConfig(r_weight=0.0)
        # The sample time is the run's control tick, which the controller
        # takes; its rate estimators reject a non-positive one.
        with pytest.raises(ValueError, match="dt must be positive"):
            LqriController(np.zeros((1, 2)), ControllerConfig(q_diag=(1.0, 1.0)),
                           -0.01)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"q_diag": (20.0, math.nan, 1.0, 1.0)},
            {"q_diag": (math.inf, 40.0, 1.0, 1.0)},
            {"r_weight": math.inf},
            {"r_weight": math.nan},
            {"k_i": math.nan},
            {"integral_warm_start": -math.inf},
            {"anti_windup_limit": math.nan},
            {"velocity_filter_cutoff": math.inf},
        ],
    )
    def test_config_rejects_non_finite(self, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=f"{name}.*finite"):
            ControllerConfig(**kwargs)


class TestLqriController:
    def make(self, **cfg_kwargs):
        cfg = ControllerConfig(q_diag=(1.0, 1.0), **cfg_kwargs)
        gain = np.array([[2.0, 0.5]])
        return LqriController(gain, cfg, 0.01)

    def test_zero_error_zero_output(self):
        ctl = self.make()
        assert ctl.step(0.3, 0.0, 0.3, True) == 0.0

    def test_state_feedback_sign(self):
        ctl = self.make()
        out = ctl.step(0.1, 0.0, 0.0, True)
        assert out == pytest.approx(2.0 * (-0.1))

    def test_companion_states_regulated_to_zero(self):
        # With a pendulum, the setpoint tracks the actuator angle and holds
        # the pendulum tilt and both rates at zero.
        cfg = ControllerConfig(q_diag=(1.0,) * 4)
        ctl = LqriController(np.array([[2.0, 3.0, 0.5, 0.25]]), cfg, 0.01)
        assert ctl.step(0.2, 0.1, 0.2, True) == pytest.approx(-0.3)

    def test_rectangle_rule_integral(self):
        # K = 0, constant error e: output at t = T is exactly k_i * e * T.
        cfg = ControllerConfig(q_diag=(1.0, 1.0), k_i=0.7, integral_enabled=True)
        ctl = LqriController(np.zeros((1, 2)), cfg, 0.01)
        e = 0.05
        out = 0.0
        steps = 200  # T = 2 s of accumulation before the final output
        for _ in range(steps + 1):
            out = ctl.step(-e, 0.0, 0.0, True)
        assert out == pytest.approx(0.7 * e * 2.0, abs=1e-12)

    def test_warm_start_reproduced_at_step_zero(self):
        ctl = self.make(k_i=0.5, integral_enabled=True, integral_warm_start=0.123)
        out = ctl.step(0.0, 0.0, 0.0, True)  # zero error
        assert out == 0.123

    def test_warm_start_without_enable_is_constant_bias(self):
        ctl = self.make(k_i=0.5, integral_enabled=False, integral_warm_start=0.2)
        for _ in range(50):
            out = ctl.step(0.1, 0.0, 0.1, True)  # zero tracking error
        assert out == 0.2

    def test_schedule_freezes_integral(self):
        cfg = ControllerConfig(q_diag=(1.0, 1.0), k_i=1.0, integral_enabled=True)
        ctl = LqriController(np.zeros((1, 2)), cfg, 0.01)
        for k in range(400):  # 4 seconds, window covers the first 2
            ctl.step(-0.1, 0.0, 0.0, k < 200)
        # Accumulation stopped at t = 2: integral = k_i * e * 2.
        assert ctl.integral_value == pytest.approx(1.0 * 0.1 * 2.0, abs=1e-12)

    def test_anti_windup_clamp(self):
        ctl = self.make(k_i=10.0, integral_enabled=True, anti_windup_limit=0.05)
        for _ in range(1000):
            ctl.step(-1.0, 0.0, 0.0, True)
        assert abs(ctl.integral_value) <= 0.05

    def test_deterministic(self):
        seq = [(0.01 * k, -0.005 * k) for k in range(50)]
        ctl1 = self.make(k_i=0.3, integral_enabled=True)
        ctl2 = self.make(k_i=0.3, integral_enabled=True)
        outs1 = [ctl1.step(a, p, 0.0, True) for a, p in seq]
        outs2 = [ctl2.step(a, p, 0.0, True) for a, p in seq]
        # Fresh controllers, identical inputs: bit-identical outputs.
        assert outs1 == outs2

    def test_backward_difference_rates(self):
        # The first step has no history (rates 0); the second sees the
        # backward differences 0.01 / 0.01 s = 1 and 0.02 / 0.01 s = 2.
        cfg = ControllerConfig(q_diag=(1.0,) * 4)
        ctl = LqriController(np.array([[0.0, 0.0, 1.0, 2.0]]), cfg, 0.01)
        assert ctl.step(0.0, 0.0, 0.0, True) == 0.0
        assert ctl.step(0.01, 0.02, 0.0, True) == pytest.approx(-(1.0 + 2.0 * 2.0))
        actuator_only = self.make()  # gain (2, 0.5) on (angle, rate)
        actuator_only.step(0.0, 5.0, 0.0, True)
        out = actuator_only.step(0.01, -5.0, 0.0, True)  # the pendulum is ignored
        assert out == pytest.approx(2.0 * -0.01 + 0.5 * -1.0)


class TestVelocityEstimation:
    def test_constant_angle(self):
        rates = estimate_velocities(np.full(10, 0.4), 0.005)
        np.testing.assert_allclose(rates, 0.0)

    def test_linear_ramp_exact(self):
        t = np.arange(50) * 0.005
        rates = estimate_velocities(1.7 * t, 0.005)
        np.testing.assert_allclose(rates[1:], 1.7, atol=1e-12)

    def test_sinusoid_amplitude(self):
        # 1 Hz sampled at 200 Hz: backward-difference amplitude error < 0.1%.
        dt = 1.0 / 200.0
        t = np.arange(1000) * dt
        rates = estimate_velocities(np.sin(2 * np.pi * t), dt)
        amp = np.max(np.abs(rates[1:]))
        assert abs(amp - 2 * np.pi) / (2 * np.pi) < 1e-3

    def test_estimator_first_sample_zero(self):
        est = VelocityEstimator(dt=0.01)
        assert est.push(0.5) == 0.0
        assert est.push(0.6) == pytest.approx(10.0)

    def test_estimator_matches_function(self):
        angles = np.cumsum(np.random.default_rng(3).uniform(-1, 1, 30)) * 0.01
        est = VelocityEstimator(dt=0.01)
        streamed = np.array([est.push(a) for a in angles])
        np.testing.assert_allclose(streamed, estimate_velocities(angles, 0.01))

    def test_low_pass_smooths_step(self):
        est = VelocityEstimator(dt=0.01, cutoff_hz=5.0)
        est.push(0.0)
        first = est.push(0.1)  # raw rate = 10
        assert 0.0 < first < 10.0
        for _ in range(200):
            last = est.push(est._prev + 0.1)
        assert last == pytest.approx(10.0, rel=1e-3)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            estimate_velocities(np.array([0.1]), 0.01)
