"""Tests for the plant the simulator integrates, its linearization, and
the eighth-order Runge-Kutta (DOP853) tick.

Oracles:
  * the hand-written derivative and stage-by-stage explicit Runge-Kutta over
    scipy's DOP853 tableau, copied in tests/helpers.py, which the compiled
    fused tick must reproduce bit for bit;
  * the tableau's equality with that copy, its row-sum condition, its
    quadrature order conditions up to order 8 and the tick's eighth-order
    convergence;
  * mechanical energy conservation of the unforced, undamped plant under the
    simulator's tick;
  * the zero-order-hold discretization of the analytic linearization in
    tests/helpers.py vs the complex-step Jacobians of one control period of
    that tick (the synthesis model) and vs its central differences;
  * scipy.signal.cont2discrete as an independent reference of that
    zero-order hold, and scipy.linalg.expm as the reference of its Padé
    matrix exponential on random matrices and on every bundled scenario's
    zero-order-hold block;
  * the analytic steady-state offset of the field-actuated rig under a
    constant disturbance torque;
  * the exact period of the field-aligned actuator, a nonlinear pendulum.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm as scipy_expm
from scipy.signal import cont2discrete
from scipy.special import ellipk

from emnav import dynamics
from emnav.dynamics import (
    PendulumParams,
    _compile_tick,
    finite_difference_linearization,
    linearize,
    make_tick,
)
from emnav.sim import PLANT_DT, run_scenario, scenario_from_dict

import helpers
from helpers import discretize, expm, total_energy

NO_FIELD = (0.0, 0.0, 0.0)
NO_GRADIENT = (0.0,) * 5
EPS = sys.float_info.epsilon
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def plant(params: PendulumParams, attached: bool = True):
    """The oracle derivative, to which the compiled tick is tied bit for bit
    (``TestCompiledPlant``)."""
    return helpers.make_deriv(params, attached, params.dipole_magnitude)


def stepper(params: PendulumParams, attached: bool = True, polarity: int = 1):
    return make_tick(params, attached, polarity * params.dipole_magnitude)


def accelerations(deriv, y, field=NO_FIELD, bias_a=0.0) -> tuple:
    return deriv(y, 0, [field], [NO_GRADIENT], bias_a, 0.0)


def grid_size(steps: int) -> int:
    """Field and gradient grid entries of a tick of ``steps`` steps."""
    return len(helpers.RK_NODES) * steps + 1


def integrate(tick, y, steps, dt, field=NO_FIELD, bias_a=0.0) -> tuple:
    """``steps`` Runge-Kutta steps in one tick, under a constant field and
    bias."""
    return tick(y, steps, dt, [field + NO_GRADIENT] * grid_size(steps), bias_a, 0.0)


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
        y = integrate(stepper(params, False), (0.0,) * 4, int(12.0 / dt), dt,
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
        tick = stepper(params)
        dt = 1e-4
        worst = 0.0
        for _ in range(20000):  # 2 seconds
            y = integrate(tick, y, 1, dt)
            for e_ref, channel in zip(e0, (y[:4], y[4:])):
                worst = max(worst, abs(total_energy(params, *channel) - e_ref))
        assert worst < 1e-10 * max(abs(e0[0]), 1.0)

    def test_energy_dissipates_with_damping(self, params):
        damped = replace(params, damping=0.002)
        y = (0.08, -0.05, 0.2, -0.1) + (0.0,) * 4
        e0 = total_energy(damped, *y[:4])
        y = integrate(stepper(damped), y, 5000, 1e-4)
        assert total_energy(damped, *y[:4]) < e0

    def test_invalid_paradigm(self, params):
        with pytest.raises(ValueError):
            finite_difference_linearization(stepper(params), "voltage", 1, 0.005)
        with pytest.raises(ValueError):
            linearize(stepper(params), "voltage", 1, 0.005)

    @given(
        alpha=st.floats(-0.5, 0.5),
        phi=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_accelerations_finite(self, alpha, phi):
        y = (alpha, phi, 0.3, -0.2, phi, alpha, -0.1, 0.2)
        dy = accelerations(plant(PendulumParams()), y, bias_a=1e-3)
        assert all(math.isfinite(v) for v in dy)


def signed(magnitudes):
    return st.tuples(magnitudes, st.sampled_from((-1.0, 1.0))).map(
        lambda pair: pair[0] * pair[1]
    )


@st.composite
def plants(draw) -> tuple:
    """A plant, undamped (its tick compiles no damping term) or damped, and
    its signed dipole moment |m|·polarity."""
    damping = st.one_of(st.just(0.0), st.floats(1e-4, 0.1))
    return (PendulumParams(damping=draw(damping)),
            draw(signed(st.floats(0.05, 5.0))))


@st.composite
def tick_inputs(draw, attached: bool) -> dict:
    """A state, a tick's field and gradient grids and biases.  The grids,
    8 floats per stage node, are all zero or drawn uniformly (field in
    [-0.1, 0.1] T, gradient in [-2, 2] T/m) from one seed, which spares
    hypothesis drawing them float by float."""
    substeps = draw(st.integers(1, 3))
    n = grid_size(substeps)
    angle, rate = st.floats(-1.0, 1.0), st.floats(-5.0, 5.0)
    state = (angle, angle, rate, rate) * 2 if attached else (angle, rate) * 2
    y = draw(st.tuples(*state))
    dt = draw(st.floats(1e-4, 1e-3))
    seed = draw(st.none() | st.integers(0, 2**32 - 1))
    if seed is None:
        b_grid, g_grid = [[0.0] * 3] * n, [[0.0] * 5] * n
    else:
        rng = np.random.default_rng(seed)
        b_grid = rng.uniform(-0.1, 0.1, (n, 3)).tolist()
        g_grid = rng.uniform(-2.0, 2.0, (n, 5)).tolist()
    return {
        "y": y,
        "substeps": substeps,
        "dt": dt,
        "b_grid": b_grid,
        "g_grid": g_grid,
        "bias_a": draw(signed(st.floats(1e-6, 1e-2))),
        "bias_b": draw(signed(st.floats(1e-6, 1e-2))),
    }


class TestCompiledPlant:
    """The compiled fused tick against the hand-written derivative and
    stage-by-stage Runge-Kutta of tests/helpers.py: equal, not close."""

    #: (state, grid) cases compared against each drawn plant's one compile.
    CASES_PER_PLANT = 3

    @staticmethod
    def check(plant: tuple, attached: bool, cases) -> None:
        # The compiled plant reads one [b; g] grid; the oracle reads the
        # field and gradient grids apart.
        params, mag_pol = plant
        tick = make_tick(params, attached, mag_pol)
        oracle = helpers.make_deriv(params, attached, mag_pol)
        for case in cases:
            y, substeps, dt = case["y"], case["substeps"], case["dt"]
            biases = (case["bias_a"], case["bias_b"])
            grids = (case["b_grid"], case["g_grid"], *biases)
            grid = [b + g for b, g in zip(case["b_grid"], case["g_grid"])]
            assert tick(y, substeps, dt, grid, *biases) == helpers.rk_tick(
                y, oracle, substeps, dt, *grids
            )

    @pytest.mark.parametrize("attached", [True, False], ids=["attached", "actuator"])
    @settings(max_examples=50, deadline=None)
    @given(plant=plants(), data=st.data())
    def test_matches_oracle(self, attached, plant, data):
        # 50 plants, each compiled once, times CASES_PER_PLANT: 150 compared
        # (plant, state, grid) cases per layout.
        cases = [data.draw(tick_inputs(attached), label=f"case {i}")
                 for i in range(self.CASES_PER_PLANT)]
        self.check(plant, attached, cases)

    def test_matches_oracle_where_pow_rounds(self):
        # phi' = -4.788259582951859 squares to a different double under
        # libm pow (x**2) than as x * x on x86-64 glibc; an oracle that
        # squared with ** gave an alpha'' 2.8e-14 away from the compiled
        # plant's.  Found by a seeded search over (state, grid) cases; on a
        # platform whose pow squares exactly this case matches either way.
        n = grid_size(1)
        case = {
            "y": (-0.3, 0.4, 4.5, -4.788259582951859, 0.0, 0.0, 0.0, 0.0),
            "substeps": 1, "dt": 5e-4,
            "b_grid": [[0.0] * 3] * n, "g_grid": [[0.0] * 5] * n,
            "bias_a": 0.0, "bias_b": 0.0,
        }
        self.check((PendulumParams(damping=0.01), 1.0), True, [case])


class TestTickCache:
    """Compiled ticks are kept across runs, keyed by the text they inline."""

    def test_same_plant_same_function(self):
        params = PendulumParams(pend_mass=0.03)
        for attached in (True, False):
            assert make_tick(params, attached, 1.85) is make_tick(
                replace(params), attached, 1.85
            )
        assert make_tick(params, True, 1.85) is not make_tick(params, True, -1.85)
        assert make_tick(params, True, 1.85) is not make_tick(params, False, 1.85)

    def test_signed_zero_damping_is_another_plant(self):
        # -0.0 == 0.0 with one hash, so a cache keyed by PendulumParams would
        # hand one plant the other's tick; the inlined text tells them apart.
        zero, negative = PendulumParams(damping=0.0), PendulumParams(damping=-0.0)
        assert zero == negative and hash(zero) == hash(negative)
        assert make_tick(zero, True, 1.0) is not make_tick(negative, True, 1.0)
        assert make_tick(negative, True, 1.0) is make_tick(negative, True, 1.0)

    def test_compiled_once_per_distinct_plant(self):
        # Both agents of multi_torque_async carry one plant (pendulum
        # attached, polarity 1): one compile.  A polarity -1 second agent
        # is another plant.  Synthesis differentiates the compiled tick and
        # compiles nothing of its own.  Each compiled plant is the one a
        # later call finds in the cache.
        path = SCENARIO_DIR / "multi_torque_async.json"
        data = json.loads(path.read_text())
        data["duration"] = 0.05
        for polarity, mag_pols in ((1, [1.85]), (-1, [1.85, -1.85])):
            data["agents"][1]["polarity"] = polarity
            scenario = scenario_from_dict(data)
            _compile_tick.cache_clear()
            run_scenario(scenario)
            assert _compile_tick.cache_info().misses == len(mag_pols)
            for mag_pol in mag_pols:
                make_tick(scenario.plant, True, mag_pol)
            assert _compile_tick.cache_info().misses == len(mag_pols)


class TestLinearization:
    """The synthesis model, the complex-step (a_d, b_d) of one control period
    of the compiled tick, against the zero-order hold of the analytic
    linearization in tests/helpers.py within 1e-13, and central differences
    of the same period against that hold.  A 200 Hz period is one DOP853
    step of 5 ms, a 125 Hz period two of 4 ms, as the simulator takes them."""

    def gaps(self, params, paradigm, b_mag, attached, polarity=1, rate=200.0):
        h = 1.0 / rate
        substeps = max(1, int(round(h / PLANT_DT)))
        period = (stepper(params, attached, polarity), paradigm, substeps,
                  h / substeps, b_mag, attached, polarity)
        zoh = helpers.linearize(params, paradigm, b_mag, h, attached)
        n = 4 if attached else 2
        gaps = []
        for a_d, b_d in (linearize(*period), finite_difference_linearization(*period)):
            assert a_d.shape == (n, n) and b_d.shape == (n, 1)
            gaps.append(max(np.max(np.abs(zoh.a_d - a_d)), np.max(np.abs(zoh.b_d - b_d))))
        return gaps

    @pytest.mark.parametrize("paradigm,b_mag,polarity,rate", [
        pytest.param("torque", 0.0, 1, 200.0, id="torque-0.0"),
        pytest.param("field", 0.065, 1, 200.0, id="field-0.065"),
        # single_field's plant and field with a polarity -1 magnet, whose
        # field the allocator inverts.
        pytest.param("field", 0.04, -1, 200.0, id="field-0.04-polarity-1"),
        pytest.param("torque", 0.0, 1, 125.0, id="torque-0.0-125Hz"),
    ])
    def test_matches_finite_differences(self, params, paradigm, b_mag, polarity, rate):
        complex_step, central = self.gaps(params, paradigm, b_mag, True, polarity, rate)
        assert complex_step <= 1e-13 and central <= 1e-10

    @pytest.mark.parametrize("paradigm,b_mag", [("torque", 0.0), ("field", 0.065)])
    def test_actuator_matches_finite_differences(self, params, paradigm, b_mag):
        complex_step, central = self.gaps(params, paradigm, b_mag, False)
        assert complex_step <= 1e-13 and central <= 1e-10

    def test_upright_unstable_open_loop(self, params):
        assert np.max(np.linalg.eigvals(helpers.linearize(params, "torque").a).real) > 0.0
        a_d, _ = linearize(stepper(params), "torque", 1, 0.005)
        assert np.max(np.abs(np.linalg.eigvals(a_d))) > 1.0

    def test_discretize_matches_scipy(self, params, rng):
        sys = helpers.linearize(params, "torque", sample_time=1 / 200)
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
        stable = helpers.linearize(params, "field", b_mag=0.065, attached=False)
        assert np.max(np.linalg.eigvals(stable.a).real) <= 1e-12
        unstable = helpers.linearize(params, "field", b_mag=0.005, attached=False)
        assert np.max(np.linalg.eigvals(unstable.a).real) > 0.0

    def test_linearize_rejects_bad_sample_time(self, params):
        with pytest.raises(ValueError):
            helpers.linearize(params, "torque", sample_time=0.0)


class TestExpm:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 6), squarings=st.integers(0, 6), data=st.data())
    def test_matches_scipy(self, n, squarings, data):
        # Entries on a 1/64 grid in [-1, 1], times 2**squarings: 1-norms up
        # to 384, which take up to 7 squarings after the Padé step.
        # Agreement is within 1e-10 of max |e^M| (worst seen on 3e4 random
        # draws: 1.9e-11; against a 50-digit reference the Padé exponential
        # was the closer of the two).  The grid keeps out entries such as 1e-243, on which scipy's
        # exponential of a triangular matrix is the one in error: it returns
        # 0 for an entry whose value is 8.
        grid = st.integers(-64, 64).map(lambda k: k / 64)
        m = data.draw(arrays(float, (n, n), elements=grid)) * 2.0**squarings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = expm(m)
        ref = scipy_expm(m)
        assert np.max(np.abs(e - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_pade_coefficients_are_highams(self):
        # The values of Higham's 2005 algorithm, written out.
        assert helpers.PADE13 == (
            64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
            1187353796428800.0, 129060195264000.0, 10559470521600.0,
            670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
            16380.0, 182.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_rotation_after_squarings(self):
        # e^{[[0, w], [-w, 0]]} is the rotation by -w; w = 100 needs 5
        # squarings.
        w = 100.0
        e = expm(np.array([[0.0, w], [-w, 0.0]]))
        c, s = math.cos(w), math.sin(w)
        np.testing.assert_allclose(e, [[c, s], [-s, c]], rtol=0.0, atol=1e-13)

    @pytest.mark.filterwarnings("error")
    def test_every_bundled_zoh_block(self):
        # Each bundled plant layout's augmented block [[A, B], [0, 0]] h, to
        # within 2 ulp of max |e^M| of scipy's (worst seen: 1 ulp), and its
        # zero-order hold within 1e-13 of the synthesis model that the run
        # reads off its first agent's tick (worst seen: 1.4e-14).
        blocks = 0
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            data = json.loads(path.read_text())
            if data.get("kind", "simulate") != "simulate":
                continue
            sc = scenario_from_dict(data)
            h = sc.schedule.h
            substeps = max(1, int(round(h / PLANT_DT)))
            for attached in {s.pendulum_attached for s in sc.agents}:
                lin = helpers.linearize(sc.plant, sc.paradigm, sc.field_magnitude,
                                        h, attached)
                n = lin.a.shape[0]
                block = np.zeros((n + 1, n + 1))
                block[:n, :n], block[:n, n:] = lin.a, lin.b
                ref = scipy_expm(block * h)
                e = expm(block * h)
                assert np.max(np.abs(e - ref)) <= 2 * EPS * np.max(np.abs(ref))
                np.testing.assert_array_equal(lin.a_d, e[:n, :n])
                np.testing.assert_array_equal(lin.b_d, e[:n, n:])
                polarity = next(s.polarity for s in sc.agents
                                if s.pendulum_attached == attached)
                a_d, b_d = linearize(
                    stepper(sc.plant, attached, polarity), sc.paradigm, substeps,
                    h / substeps, sc.field_magnitude, attached, polarity)
                assert np.max(np.abs(a_d - lin.a_d)) <= 1e-13
                assert np.max(np.abs(b_d - lin.b_d)) <= 1e-13
                blocks += 1
        assert blocks >= 7

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan, 1e300])
    def test_non_finite_block_gives_non_finite_result(self, entry):
        # A non-finite block, or one whose squarings overflow, gives a
        # non-finite result as scipy's expm does, without raising and without
        # a warning.
        a = np.array([[0.0, 1.0], [entry, 0.0]])
        a_d, b_d = discretize(a, np.array([[0.0], [1.0]]), 0.005)
        assert not np.isfinite(a_d).all() and not np.isfinite(b_d).all()


class TestRungeKutta:
    def test_tableau_is_dop853(self):
        # The plant's tableau is scipy's DOP853 to the last bit: its 12
        # stages, then the eighth-order weights at node 1.
        assert dynamics._TABLEAU == (
            *zip(helpers.RK_C, helpers.RK_A), (1.0, helpers.RK_B)
        )

    def test_row_sums_are_nodes(self):
        # Each stage's node is the sum of its weights, c_s = sum_j a_sj; the
        # last row (the update's weights) sums to its node, 1.  The weights
        # reach 43.5 in magnitude, so the exact sum of the rounded weights is
        # within eps per unit of sum_j |a_sj| of the rounded node.
        for c, row in dynamics._TABLEAU:
            assert abs(math.fsum(row) - c) <= EPS * sum(abs(a) for a in row)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_quadrature_order_conditions(self, k):
        # An order-8 method integrates polynomials of degree 7 exactly:
        # sum_j b_j c_j^(k-1) = 1/k for k = 1..8 (Hairer, Norsett & Wanner,
        # Solving ODEs I, Sec. II.2).  Each term carries the rounding of b_j,
        # of c_j (k - 1 times) and of the power, about (k + 1) / 2 eps of its
        # magnitude; 1/k and the sum round by eps / 2 of at most sum |term|.
        c = [node for node, _ in dynamics._TABLEAU[:-1]]
        b = dynamics._TABLEAU[-1][1]
        terms = [w * node ** (k - 1) for w, node in zip(b, c)]
        bound = (k + 1) * EPS * math.fsum(abs(t) for t in terms)
        assert abs(math.fsum(terms) - 1.0 / k) <= bound

    def test_eighth_order_convergence(self, params):
        # The unforced coupled pendulum over 0.4 s against a 16x finer
        # solution than the finer of two step sizes.  Halving dt shrinks the
        # error 2^8 = 256x in the limit; the falling pendulum is not yet
        # there at 80 -> 160 steps (about 390x, an observed order of 8.6),
        # where both errors (1.5e-9 and 3.9e-12 rad) sit well above
        # roundoff.  The band 2^7.5 .. 2^9 excludes orders 7 and 10.
        tick = stepper(params)
        y0 = (0.08, -0.05, 0.2, -0.1) + (0.0,) * 4
        duration = 0.4
        ref = integrate(tick, y0, 2560, duration / 2560)
        errors = []
        for steps in (80, 160):
            y = integrate(tick, y0, steps, duration / steps)
            errors.append(max(abs(a - b) for a, b in zip(y, ref)))
        ratio = errors[0] / errors[1]
        assert 2.0**7.5 < ratio < 2.0**9

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
        y = integrate(stepper(params, False), (a0, 0.0, 0.0, 0.0), 2000,
                      period / 2000, field=(0.0, 0.0, b_mag))
        np.testing.assert_allclose(y, [a0, 0.0, 0.0, 0.0], atol=1e-9)
