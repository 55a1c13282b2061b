"""Tests for the plant the simulator integrates, its linearizations, and
the RK4 tick.

Oracles:
  * mechanical energy conservation of the unforced, undamped plant under the
    simulator's RK4 tick;
  * central finite differences of that plant vs the analytic linearization;
  * scipy.signal.cont2discrete as an independent zero-order-hold reference;
  * the analytic steady-state offset of the field-actuated rig under a
    constant disturbance torque;
  * the exact period of the field-aligned actuator, a nonlinear pendulum;
  * the per-call coupled-dynamics formula, which the hoisted per-plant solver
    must reproduce bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import cont2discrete
from scipy.special import ellipk

from emnav.dynamics import (
    PendulumParams,
    coupled_accelerations,
    discretize,
    finite_difference_linearization,
    linearize,
    linearize_actuator,
    make_deriv,
    rk4_tick,
)

from helpers import coupled_accelerations_per_call, total_energy

NO_FIELD = (0.0, 0.0, 0.0)
NO_GRADIENT = (0.0,) * 5


def plant(params: PendulumParams, attached: bool = True):
    return make_deriv(params, attached, params.dipole_magnitude)


def accelerations(deriv, y, field=NO_FIELD, bias_a=0.0) -> tuple:
    return deriv(y, 0, [field], [NO_GRADIENT], bias_a, 0.0)


def integrate(deriv, y, steps, dt, field=NO_FIELD, bias_a=0.0) -> tuple:
    """``steps`` RK4 steps in one tick, under a constant field and bias."""
    n = 2 * steps + 1
    return rk4_tick(y, deriv, steps, dt, [field] * n, [NO_GRADIENT] * n, bias_a, 0.0)


class TestParamsAndState:
    def test_defaults_positive(self):
        PendulumParams()  # must not raise

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PendulumParams(pend_mass=0.0)
        with pytest.raises(ValueError):
            PendulumParams(inertia=-1e-4)
        with pytest.raises(ValueError):
            PendulumParams(damping=-0.01)

    def test_state_array_roundtrip(self, params):
        # The packed state carries each angle's rate in its rate slot: the
        # derivative hands the rates back unchanged, with and without the
        # pendulum attached.
        for attached, angle_slots, rate_slots in (
            (True, (0, 1, 4, 5), (2, 3, 6, 7)),
            (False, (0, 2), (1, 3)),
        ):
            y = tuple(0.01 * (k + 1) for k in range(2 * len(angle_slots)))
            dy = accelerations(plant(params, attached), y)
            assert [dy[i] for i in angle_slots] == [y[i] for i in rate_slots]


class TestActuatorOnly:
    def test_upright_equilibrium(self, params):
        deriv = plant(params, attached=False)
        assert accelerations(deriv, (0.0,) * 4) == (0.0,) * 4
        assert accelerations(deriv, (0.0,) * 4, field=(0.0, 0.0, 0.05)) == (0.0,) * 4

    def test_torque_input_scaling(self, params):
        # At alpha = 0 the acceleration is tau / J exactly.
        dy = accelerations(plant(params, attached=False), (0.0,) * 4, bias_a=2e-3)
        assert dy[1] == pytest.approx(2e-3 / params.inertia)

    def test_field_restoring_iff_strong_field(self):
        # |m||b| > eta g: a field aligned with upright pulls the tilted
        # actuator back; below the threshold gravity wins and it diverges.
        deriv = plant(PendulumParams(eta=0.002, dipole_magnitude=0.5), False)
        tilted = (0.1, 0.0, 0.0, 0.0)
        strong = accelerations(deriv, tilted, field=(0.0, 0.0, 0.065))
        assert strong[1] < 0.0  # restoring
        weak = accelerations(deriv, tilted, field=(0.0, 0.0, 0.01))
        assert weak[1] > 0.0  # diverging

    def test_disturbance_steady_state_offset(self):
        # Integrate the nonlinear field-actuated rig under a constant torque;
        # the equilibrium satisfies sin(alpha) = tau_d / (|m||b| - eta g).
        params = PendulumParams(eta=0.002, dipole_magnitude=0.5, damping=0.01)
        b_mag = 0.065
        tau_d = 1.0e-3
        margin = params.dipole_magnitude * b_mag - params.eta * params.gravity
        dt = 1e-4
        y = integrate(plant(params, False), (0.0,) * 4, int(12.0 / dt), dt,
                      field=(0.0, 0.0, b_mag), bias_a=tau_d)
        expected = math.asin(tau_d / margin)
        assert y[0] == pytest.approx(expected, rel=1e-6)
        assert abs(y[1]) < 1e-7


class TestCoupledPlant:
    def test_equilibrium_preserved(self, params):
        assert accelerations(plant(params), (0.0,) * 8) == (0.0,) * 8

    def test_energy_conserved_unforced(self, params):
        y = (0.08, -0.05, 0.2, -0.1, -0.03, 0.06, -0.1, 0.3)
        e0 = (total_energy(params, *y[:4]), total_energy(params, *y[4:]))
        deriv = plant(params)
        dt = 1e-4
        worst = 0.0
        for _ in range(20000):  # 2 seconds
            y = integrate(deriv, y, 1, dt)
            for e_ref, channel in zip(e0, (y[:4], y[4:])):
                worst = max(worst, abs(total_energy(params, *channel) - e_ref))
        assert worst < 1e-10 * max(abs(e0[0]), 1.0)

    def test_energy_dissipates_with_damping(self, params):
        damped = replace(params, damping=0.002)
        y = (0.08, -0.05, 0.2, -0.1) + (0.0,) * 4
        e0 = total_energy(damped, *y[:4])
        y = integrate(plant(damped), y, 5000, 1e-4)
        assert total_energy(damped, *y[:4]) < e0

    def test_invalid_paradigm(self, params):
        with pytest.raises(ValueError):
            finite_difference_linearization(params, "voltage")
        with pytest.raises(ValueError):
            linearize(params, "voltage")

    @given(
        alpha=st.floats(-0.5, 0.5),
        phi=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_accelerations_finite(self, alpha, phi):
        y = (alpha, phi, 0.3, -0.2, phi, alpha, -0.1, 0.2)
        dy = accelerations(plant(PendulumParams()), y, bias_a=1e-3)
        assert all(math.isfinite(v) for v in dy)


positive = st.floats(1e-3, 10.0)


@st.composite
def plant_params(draw) -> PendulumParams:
    return PendulumParams(
        pend_mass=draw(positive),
        arm_length=draw(positive),
        pend_length=draw(positive),
        magnet_offset=draw(positive),
        eta=draw(positive),
        inertia=draw(positive),
        gravity=draw(positive),
        dipole_magnitude=draw(positive),
        damping=draw(st.floats(0.0, 10.0)),
    )


class TestHoistedAccelerations:
    @given(
        params=plant_params(),
        state=st.tuples(*[st.floats(-1e3, 1e3)] * 4),
        q_alpha=st.floats(-1e3, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_per_call_formula(self, params, state, q_alpha):
        hoisted = coupled_accelerations(params)(*state, q_alpha)
        assert hoisted == coupled_accelerations_per_call(params, *state, q_alpha)


class TestLinearization:
    @pytest.mark.parametrize("paradigm,b_mag", [("torque", 0.0), ("field", 0.065)])
    def test_matches_finite_differences(self, params, paradigm, b_mag):
        sys = linearize(params, paradigm, b_mag=b_mag, sample_time=0.005)
        a_fd, b_fd = finite_difference_linearization(params, paradigm, b_mag=b_mag)
        np.testing.assert_allclose(sys.a, a_fd, atol=1e-5)
        np.testing.assert_allclose(sys.b, b_fd, atol=1e-5)

    @pytest.mark.parametrize("paradigm,b_mag", [("torque", 0.0), ("field", 0.065)])
    def test_actuator_matches_finite_differences(self, params, paradigm, b_mag):
        sys = linearize_actuator(params, paradigm, b_mag=b_mag, sample_time=0.005)
        a_fd, b_fd = finite_difference_linearization(
            params, paradigm, b_mag=b_mag, attached=False
        )
        assert a_fd.shape == (2, 2) and b_fd.shape == (2, 1)
        np.testing.assert_allclose(sys.a, a_fd, atol=1e-5)
        np.testing.assert_allclose(sys.b, b_fd, atol=1e-5)

    def test_upright_unstable_open_loop(self, params):
        sys = linearize(params, "torque", sample_time=0.005)
        assert np.max(np.linalg.eigvals(sys.a).real) > 0.0
        assert np.max(np.abs(np.linalg.eigvals(sys.a_d))) > 1.0

    def test_discretize_matches_scipy(self, params, rng):
        sys = linearize(params, "torque", sample_time=1 / 200)
        (a_d, b_d, *_), _ = (
            cont2discrete((sys.a, sys.b, np.eye(4), np.zeros((4, 1))), 1 / 200,
                          method="zoh"),
            None,
        )
        np.testing.assert_allclose(sys.a_d, a_d, atol=1e-12)
        np.testing.assert_allclose(sys.b_d, b_d, atol=1e-12)

    def test_discretize_random_stable_system(self, rng):
        a = rng.uniform(-1, 1, (3, 3)) - 2.0 * np.eye(3)
        b = rng.uniform(-1, 1, (3, 2))
        a_d, b_d = discretize(a, b, 0.01)
        (a_ref, b_ref, *_), _ = (
            cont2discrete((a, b, np.eye(3), np.zeros((3, 2))), 0.01, method="zoh"),
            None,
        )
        np.testing.assert_allclose(a_d, a_ref, atol=1e-13)
        np.testing.assert_allclose(b_d, b_ref, atol=1e-13)

    def test_actuator_field_stability_threshold(self):
        params = PendulumParams(eta=0.002, dipole_magnitude=0.5)
        stable = linearize_actuator(params, "field", b_mag=0.065)
        assert np.max(np.linalg.eigvals(stable.a).real) <= 1e-12
        unstable = linearize_actuator(params, "field", b_mag=0.005)
        assert np.max(np.linalg.eigvals(unstable.a).real) > 0.0

    def test_linearize_rejects_bad_sample_time(self, params):
        with pytest.raises(ValueError):
            linearize(params, "torque", sample_time=0.0)


class TestRk4:
    def test_fourth_order_convergence(self, params):
        # The unforced coupled pendulum over 0.4 s against a 32x finer
        # solution: halving dt shrinks the error ~16x.
        deriv = plant(params)
        y0 = (0.08, -0.05, 0.2, -0.1) + (0.0,) * 4
        duration = 0.4
        ref = integrate(deriv, y0, 20480, duration / 20480)
        errors = []
        for steps in (320, 640):
            y = integrate(deriv, y0, steps, duration / steps)
            errors.append(max(abs(a - b) for a, b in zip(y, ref)))
        ratio = errors[0] / errors[1]
        assert 12.0 < ratio < 20.0

    def test_harmonic_oscillator_phase(self):
        # In a field along +z the actuator alone is an exact nonlinear
        # pendulum, J a'' = -(|m||b| - eta g) sin a; integrated over one
        # period T = 4 K(sin^2(a0/2)) / w0 it returns to its start.
        params = PendulumParams(eta=0.002, dipole_magnitude=0.5)
        b_mag = 0.065
        a0 = 0.3
        w0 = math.sqrt(
            (params.dipole_magnitude * b_mag - params.eta * params.gravity)
            / params.inertia
        )
        period = 4.0 * ellipk(math.sin(0.5 * a0) ** 2) / w0
        y = integrate(plant(params, False), (a0, 0.0, 0.0, 0.0), 2000,
                      period / 2000, field=(0.0, 0.0, b_mag))
        np.testing.assert_allclose(y, [a0, 0.0, 0.0, 0.0], atol=1e-9)
