"""Closed-loop simulation tests: config parsing, tick mechanics, events,
latency, determinism, and the bundled scenario behaviors."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    composed_allocator,
    event_spans,
    impulses_at,
    in_force,
    settling_tick_brute,
)

import emnav.sim as sim
from emnav.cli import main
from emnav.config import ConfigError
from emnav.control import ControllerConfig
from emnav.magmodel import actuation_matrix, get_model
from emnav.sim import (
    EMNS_PRESETS,
    AgentSetup,
    DisturbanceEvent,
    EmnsConfig,
    Scenario,
    SetpointSpec,
    run_scenario,
    scenario_from_dict,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def load_bundled(name: str) -> dict:
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text())


#: Every bundled ``simulate`` scenario, by name.
BUNDLED_SIMULATE = sorted(
    path.stem for path in SCENARIO_DIR.glob("*.json")
    if json.loads(path.read_text()).get("kind", "simulate") == "simulate"
)


def base_torque_dict(**overrides) -> dict:
    cfg = {
        "name": "unit",
        "model": "octomag8",
        "paradigm": "torque",
        "strategy": "torque_one_step",
        "emns": "octomag",
        "duration": 1.0,
        "agents": [
            {
                "position": [0.0, 0.0, 0.0],
                "initial": {"alpha": 0.05},
                "controller": {"q_diag": [20.0, 40.0, 1.0, 1.0], "r_weight": 100.0},
            }
        ],
    }
    cfg.update(overrides)
    return cfg


class TestConfigTypes:
    def test_presets(self):
        octo = EMNS_PRESETS["octomag"]
        assert octo.control_rate == 200.0
        assert octo.current_limit == 16.0
        assert octo.current_bandwidth == 26.4
        navion = EMNS_PRESETS["navion"]
        assert navion.control_rate == 125.0
        assert navion.current_limit == 25.0
        assert navion.current_bandwidth == 24.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"control_rate": 0.0, "current_limit": 16.0},
            {"control_rate": 200.0, "current_limit": 0.0},
            {"control_rate": 200.0, "current_limit": 16.0, "current_bandwidth": -1.0},
            {"control_rate": 200.0, "current_limit": 16.0, "loop_latency": -0.1},
        ],
    )
    def test_emns_validation(self, kwargs):
        with pytest.raises(ValueError):
            EmnsConfig(**kwargs)

    def test_setpoint_constant(self):
        sp = SetpointSpec(kind="constant", alpha=0.1, beta=-0.2)
        assert sp.value(3.7) == (0.1, -0.2)

    def test_setpoint_circle_formula(self):
        sp = SetpointSpec(kind="circle", radius=0.05, frequency=0.25, phase=0.3)
        t = 1.234
        arg = 2.0 * math.pi * 0.25 * t + 0.3
        a, b = sp.value(t)
        assert a == pytest.approx(0.05 * math.cos(arg), abs=1e-15)
        assert b == pytest.approx(0.05 * math.sin(arg), abs=1e-15)

    def test_setpoint_bad_kind(self):
        with pytest.raises(ValueError):
            SetpointSpec(kind="square")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "nudge", "time": 1.0, "magnitude": 1.0},
            {"kind": "impulse", "time": -1.0, "magnitude": 1.0},
            {"kind": "impulse", "time": 1.0, "magnitude": 1.0, "channel": "gamma"},
            {"kind": "torque_bias", "time": 1.0, "magnitude": 1.0, "duration": 0.0},
            # duration applies to torque_bias only.
            {"kind": "impulse", "time": 1.0, "magnitude": 1.0, "duration": 0.5},
            {"kind": "measurement_tilt", "time": 1.0, "magnitude": 1.0,
             "duration": 0.5},
        ],
    )
    def test_disturbance_validation(self, kwargs):
        with pytest.raises(ValueError):
            DisturbanceEvent(**kwargs)

    def test_agent_setup_validation(self):
        with pytest.raises(ValueError):
            AgentSetup(initial=(0.0,) * 7)
        with pytest.raises(ValueError):
            AgentSetup(polarity=0)
        with pytest.raises(ValueError):
            AgentSetup(release_time=-1.0)


class TestScenarioParsing:
    def test_bundled_scenarios_parse(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            data = json.loads(path.read_text())
            if data.get("kind", "simulate") != "simulate":
                continue
            sc = scenario_from_dict(data)
            assert isinstance(sc, Scenario)
            assert sc.name == path.stem

    def test_missing_required_key(self):
        cfg = base_torque_dict()
        del cfg["paradigm"]
        with pytest.raises(ValueError, match="paradigm"):
            scenario_from_dict(cfg)

    def test_unknown_scenario_key(self):
        with pytest.raises(ValueError, match="unknown scenario keys"):
            scenario_from_dict(base_torque_dict(turbo=True))

    def test_unknown_agent_key(self):
        cfg = base_torque_dict()
        cfg["agents"][0]["speed"] = 3
        with pytest.raises(ValueError, match="unknown agent keys"):
            scenario_from_dict(cfg)

    def test_unknown_controller_key(self):
        cfg = base_torque_dict()
        cfg["agents"][0]["controller"]["kp"] = 3
        with pytest.raises(ValueError, match="unknown controller keys"):
            scenario_from_dict(cfg)

    def test_unknown_model_name(self):
        with pytest.raises(ValueError, match="unknown"):
            scenario_from_dict(base_torque_dict(model="decamag"))

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="preset"):
            scenario_from_dict(base_torque_dict(emns="hexamag"))

    def test_strategy_paradigm_mismatch(self):
        with pytest.raises(ValueError, match="strategy"):
            scenario_from_dict(base_torque_dict(strategy="field_alignment"))

    def test_multi_strategy_requires_two_agents(self):
        with pytest.raises(ValueError, match="strategy"):
            scenario_from_dict(base_torque_dict(strategy="multi_torque"))

    def test_field_requires_magnitude(self):
        cfg = base_torque_dict(paradigm="field", strategy="field_alignment")
        with pytest.raises(ValueError, match="field_magnitude"):
            scenario_from_dict(cfg)

    def test_position_outside_region(self):
        cfg = base_torque_dict()
        cfg["agents"][0]["position"] = [0.9, 0.0, 0.0]
        with pytest.raises(ValueError, match="validity region"):
            scenario_from_dict(cfg)

    def test_agent_on_coil_centre_names_agent(self, monkeypatch):
        # The distance check runs without building A(p).
        import emnav.magmodel as magmodel

        def must_not_build(model, points):
            raise AssertionError("A(p) was built")

        monkeypatch.setattr(magmodel, "actuation_matrices", must_not_build)
        cfg = base_torque_dict(strategy="multi_torque")
        centre = list(magmodel.get_model("octomag8").coils[2].position)
        cfg["agents"] = [cfg["agents"][0], {**cfg["agents"][0], "position": centre}]
        with pytest.raises(ValueError, match="agent 1: .*coincides with coil 2"):
            scenario_from_dict(cfg)

    def test_disturbance_bad_agent(self):
        cfg = base_torque_dict(
            disturbances=[
                {"type": "impulse", "time": 0.5, "magnitude": 0.1, "agent": 3}
            ]
        )
        with pytest.raises(ValueError, match="agent"):
            scenario_from_dict(cfg)

    def test_disturbance_after_end(self):
        cfg = base_torque_dict(
            disturbances=[{"type": "impulse", "time": 5.0, "magnitude": 0.1}]
        )
        with pytest.raises(ValueError, match="duration"):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize(
        "attached,q_diag,states",
        [(True, [20.0, 1.0], 4), (False, [20.0, 40.0, 1.0, 1.0], 2)],
        ids=["pendulum-2-weights", "actuator-4-weights"],
    )
    def test_q_diag_length_checked_when_built(self, attached, q_diag, states):
        # The agent's layout fixes its plant's state count, so a q_diag of
        # another length is a config error with the agent's path, before
        # anything runs.
        cfg = base_torque_dict(duration=0.1)
        cfg["agents"][0]["pendulum_attached"] = attached
        cfg["agents"][0]["controller"]["q_diag"] = q_diag
        with pytest.raises(ConfigError, match=(
                rf"^agents\[0\]: controller\.q_diag has length {len(q_diag)}, "
                rf".* has {states} states$")):
            scenario_from_dict(cfg)

    @pytest.mark.parametrize("attached,q_diag", [
        (True, (20.0, 40.0, 1.0, 1.0)), (False, (20.0, 1.0))],
        ids=["pendulum", "actuator"])
    def test_default_controller_per_layout(self, attached, q_diag):
        cfg = base_torque_dict(duration=0.1)
        cfg["agents"][0].update(pendulum_attached=attached, controller=None)
        controller = scenario_from_dict(cfg).agents[0].controller
        assert controller == ControllerConfig(q_diag=q_diag, r_weight=1.0)

    @pytest.mark.parametrize("duration,frequency", [(0.1, 1e308), (4.0, 1e307)])
    def test_circle_phase_must_stay_finite(self, duration, frequency):
        # 2 pi f t overflows by the last tick: cos(inf) would raise mid-run,
        # and at t = 0 inf * 0 is a NaN setpoint.
        cfg = base_torque_dict(duration=duration)
        cfg["agents"][0]["setpoint"] = {
            "type": "circle", "radius": 0.01, "frequency": frequency}
        with pytest.raises(ConfigError, match=r"agents\[0\]\.setpoint: .*not finite"):
            scenario_from_dict(cfg)
        cfg["agents"][0]["setpoint"]["frequency"] = frequency / 100.0
        scenario_from_dict(cfg)

    def test_plant_overrides(self):
        cfg = base_torque_dict(plant={"eta": 0.002, "damping": 0.02})
        sc = scenario_from_dict(cfg)
        assert sc.plant.eta == 0.002
        assert sc.plant.damping == 0.02


class TestTickMechanics:
    def test_equilibrium_stays_exactly_zero(self):
        cfg = base_torque_dict(duration=0.5)
        cfg["agents"][0]["initial"] = {}
        tr = run_scenario(scenario_from_dict(cfg))
        assert np.all(tr.alpha == 0.0)
        assert np.all(tr.phi == 0.0)
        assert np.all(tr.currents == 0.0)
        assert np.all(tr.fields == 0.0)

    def test_trace_shapes_and_summary(self):
        cfg = base_torque_dict(duration=0.5)
        tr = run_scenario(scenario_from_dict(cfg))
        ticks = int(round(0.5 * 200.0))
        assert tr.t.shape == (ticks,)
        assert tr.alpha.shape == (ticks, 1)
        assert tr.currents.shape == (ticks, 8)
        assert tr.fields.shape == (ticks, 1, 3)
        assert tr.summary["ticks"] == ticks
        assert tr.summary["failure"] is None
        assert len(tr.synthesis) == 2  # alpha + beta channels
        for entry in tr.synthesis:
            assert entry["dare_residual"] < 1e-9
            assert entry["spectral_radius"] < 1.0
            assert entry["fd_linearization_match"] < 1e-4

    def test_fd_check_covers_the_discretization(self, monkeypatch):
        # The check takes central differences of one control period of the
        # compiled tick against the (a_d, b_d) the gains are designed on, so
        # an error in that synthesis model shows in it.
        linearize = sim.linearize

        def skewed(*period):
            a_d, b_d = linearize(*period)
            a_d[0, 0] += 1e-6
            return a_d, b_d

        monkeypatch.setattr(sim, "linearize", skewed)
        tr = run_scenario(scenario_from_dict(base_torque_dict(duration=0.05)))
        for entry in tr.synthesis:
            assert entry["fd_linearization_match"] >= 1e-7

    def test_currents_within_limit_bit_exact(self):
        data = load_bundled("multi_field_2x2d")
        data["duration"] = 1.0
        tr = run_scenario(scenario_from_dict(data))
        limit = 16.0
        assert np.max(np.abs(tr.currents_cmd)) <= limit  # no epsilon
        assert np.max(np.abs(tr.currents)) <= limit
        assert np.any(np.abs(tr.currents_cmd) == limit)  # clamp engaged

    def test_max_abs_angle_sees_a_beta_only_tilt(self):
        # max_abs_alpha reads alpha only; max_abs_angle takes the largest
        # |angle| over alpha, beta, phi and theta.
        data = load_bundled("single_torque")
        data["duration"] = 0.5
        data["agents"][0]["initial"] = {"beta": 0.0873}
        tr = run_scenario(scenario_from_dict(data))
        metrics = tr.summary["metrics"]
        angles = np.stack([tr.alpha, tr.beta, tr.phi, tr.theta])
        assert metrics["max_abs_alpha"] < 1e-12
        assert metrics["max_abs_angle"] == np.max(np.abs(angles))
        assert metrics["max_abs_angle"] == np.max(np.abs(tr.beta)) > 0.0873

    def test_allocation_residual_small(self):
        cfg = base_torque_dict(duration=0.5)
        tr = run_scenario(scenario_from_dict(cfg))
        assert tr.summary["metrics"]["max_allocation_residual"] < 1e-9

    def test_current_lag_first_tick(self):
        cfg = base_torque_dict(duration=0.1)
        tr = run_scenario(scenario_from_dict(cfg))
        h = 1.0 / 200.0
        decay = math.exp(-2.0 * math.pi * 26.4 * h)
        expected = tr.currents_cmd[0] * (1.0 - decay)
        np.testing.assert_allclose(tr.currents[1], expected, atol=1e-15)

    def test_ideal_drivers_apply_instantly(self):
        cfg = base_torque_dict(
            duration=0.1,
            emns={"control_rate": 200.0, "current_limit": 16.0,
                  "current_bandwidth": 0.0},
        )
        tr = run_scenario(scenario_from_dict(cfg))
        np.testing.assert_array_equal(tr.currents[1], tr.currents_cmd[0])

    def test_release_time_freezes_plant(self):
        cfg = base_torque_dict(duration=1.0)
        cfg["agents"][0]["release_time"] = 0.5
        tr = run_scenario(scenario_from_dict(cfg))
        np.testing.assert_array_equal(tr.alpha[:101, 0], 0.05)
        assert tr.alpha[102, 0] != 0.05

    @pytest.mark.parametrize("r_second,solves", [(25.0, 1), (50.0, 2)])
    def test_each_distinct_synthesis_solved_once(
        self, monkeypatch, r_second, solves
    ):
        import emnav.control as control

        calls = []
        solve = control.dare_solve

        def counting_solve(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(control, "dare_solve", counting_solve)
        data = load_bundled("multi_torque_async")  # both agents at r_weight 25
        data["duration"] = 0.05
        data["agents"][1]["controller"]["r_weight"] = r_second
        tr = run_scenario(scenario_from_dict(data))
        assert len(calls) == solves
        gains = [[e["gain"] for e in tr.synthesis if e["agent"] == a] for a in (0, 1)]
        assert (gains[0] == gains[1]) == (solves == 1)

    def test_spectral_radius_computed_once_per_synthesis(self, monkeypatch):
        # lqr_gain's stability check gives the diagnostics their radius.
        calls = []
        eigvals = np.linalg.eigvals

        def counting_eigvals(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        data = load_bundled("single_torque")
        data["duration"] = 0.05
        tr = run_scenario(scenario_from_dict(data))
        assert calls == [(4, 4)]
        radii = [e["spectral_radius"] for e in tr.synthesis]
        assert len(radii) == 2 and radii[0] == radii[1] < 1.0

    def test_actuation_matrix_computed_once_per_agent(self, monkeypatch):
        # The agents do not move, so a run evaluates A(p) once per agent and
        # never inside the tick loop.
        import emnav.magmodel as magmodel

        data = load_bundled("multi_torque_async")
        data["duration"] = 0.5
        scenario = scenario_from_dict(data)
        calls = []
        batched = magmodel.actuation_matrices

        def counting(model, points):
            calls.append(len(points))
            return batched(model, points)

        monkeypatch.setattr(magmodel, "actuation_matrices", counting)
        tr = run_scenario(scenario)
        assert tr.t.shape[0] == 100 and tr.failure is None
        assert calls == [1, 1]

    def test_agent_tick_cap_checked_before_allocation(self):
        # 1e12 s at 200 Hz would be 2e14 ticks; Scenario rejects it from the
        # arithmetic alone.
        from emnav.sim import MAX_AGENT_TICKS

        with pytest.raises(ValueError, match="agent-ticks"):
            scenario_from_dict(base_torque_dict(duration=1e12))
        with pytest.raises(ValueError, match="agent-ticks"):
            scenario_from_dict(base_torque_dict(duration=1e308))
        at_cap = MAX_AGENT_TICKS / EMNS_PRESETS["octomag"].control_rate
        scenario_from_dict(base_torque_dict(duration=at_cap))

    def test_q_diag_length_must_match_plant(self):
        cfg = base_torque_dict(duration=0.1)
        cfg["agents"][0]["controller"]["q_diag"] = [20.0, 1.0]
        with pytest.raises(ValueError, match="q_diag"):
            run_scenario(scenario_from_dict(cfg))


class TestDisturbances:
    def run_pair(self, events, duration=0.6, **kw):
        plain = scenario_from_dict(base_torque_dict(duration=duration, **kw))
        bumped = scenario_from_dict(
            base_torque_dict(duration=duration, disturbances=events, **kw)
        )
        return run_scenario(plain), run_scenario(bumped)

    def test_impulse_applied_exactly_at_tick(self):
        k_event = 50  # 0.25 s at 200 Hz
        delta = 0.11
        tr_plain, tr_bump = self.run_pair(
            [{"type": "impulse", "time": 0.25, "magnitude": delta}]
        )
        # Identical through the event tick: the impulse changes a rate, which
        # only shows up in the angles from the next tick on.
        np.testing.assert_array_equal(
            tr_plain.alpha[: k_event + 1], tr_bump.alpha[: k_event + 1]
        )
        np.testing.assert_array_equal(
            tr_plain.outputs_alpha[: k_event + 1],
            tr_bump.outputs_alpha[: k_event + 1],
        )
        h = 1.0 / 200.0
        jump = tr_bump.alpha[k_event + 1, 0] - tr_plain.alpha[k_event + 1, 0]
        assert jump == pytest.approx(delta * h, rel=1e-3)

    def test_impulse_beta_channel(self):
        delta = 0.2
        tr_plain, tr_bump = self.run_pair(
            [{"type": "impulse", "time": 0.25, "magnitude": delta,
              "channel": "beta"}]
        )
        np.testing.assert_array_equal(tr_plain.beta[:51], tr_bump.beta[:51])
        jump = tr_bump.beta[51, 0] - tr_plain.beta[51, 0]
        assert jump == pytest.approx(delta / 200.0, rel=1e-3)

    def test_torque_bias_shifts_equilibrium(self):
        tr_plain, tr_bump = self.run_pair(
            [{"type": "torque_bias", "time": 0.0, "magnitude": 2e-4}],
            duration=3.0,
        )
        assert abs(tr_plain.alpha[-1, 0]) < 1e-3
        assert abs(tr_bump.alpha[-1, 0]) > 5e-4

    def test_torque_bias_duration_window(self):
        tr_plain, tr_bump = self.run_pair(
            [{"type": "torque_bias", "time": 0.1, "magnitude": 2e-4,
              "duration": 0.5}],
            duration=4.0,
        )
        # Bias gone after 0.6 s; both settle to the same equilibrium.
        assert abs(tr_bump.alpha[-1, 0] - tr_plain.alpha[-1, 0]) < 1e-4

    def test_torque_bias_duration_ends_on_tick_grid(self):
        # The window's end snaps to the tick grid as its start does: a bias
        # of 0.05 s from 0.1 s acts on the same 10 ticks as a bias from 0.1 s
        # cancelled by an opposite one from 0.15 s.
        m = 2e-4
        windowed = run_scenario(scenario_from_dict(base_torque_dict(
            duration=0.4,
            disturbances=[{"type": "torque_bias", "time": 0.1, "duration": 0.05,
                           "magnitude": m}],
        )))
        paired = run_scenario(scenario_from_dict(base_torque_dict(
            duration=0.4,
            disturbances=[{"type": "torque_bias", "time": 0.1, "magnitude": m},
                          {"type": "torque_bias", "time": 0.15, "magnitude": -m}],
        )))
        assert np.array_equal(windowed.alpha, paired.alpha)

    def test_measurement_tilt_takes_effect_at_event_tick(self):
        tr_plain, tr_bump = self.run_pair(
            [{"type": "measurement_tilt", "time": 0.25, "magnitude": 0.02}]
        )
        diff = np.nonzero(
            tr_plain.outputs_alpha[:, 0] != tr_bump.outputs_alpha[:, 0]
        )[0]
        assert diff[0] == 50  # tilt enters the measurement at its own tick

    def test_measurement_tilt_with_integral_settles_at_minus_tilt(self):
        # Integral action drives the *measured* angle to the setpoint, so a
        # sensor tilt displaces the true angle by exactly minus the tilt.
        tilt = 0.02
        cfg = base_torque_dict(
            duration=6.0,
            emns={"control_rate": 200.0, "current_limit": 16.0,
                  "current_bandwidth": 0.0},
            disturbances=[{"type": "measurement_tilt", "time": 0.5,
                           "magnitude": tilt}],
        )
        cfg["agents"][0]["initial"] = {}
        cfg["agents"][0]["controller"] = {
            "q_diag": [20.0, 40.0, 1.0, 1.0], "r_weight": 25.0,
            "k_i": -0.5, "integral_enabled": True, "anti_windup_limit": 0.05,
        }
        tr = run_scenario(scenario_from_dict(cfg))
        assert tr.alpha[-1, 0] == pytest.approx(-tilt, rel=0.05)


class TestTickRule:
    """Every scheduled time takes effect on the tick ``sim._first_tick``
    gives: the first k with k * h + 1e-12 >= time."""

    @settings(max_examples=200, deadline=None)
    @given(time=st.floats(0.0, 30.0),
           rate=st.sampled_from([7.0, 120.0, 125.0, 200.0, 1000.0]))
    def test_first_tick_is_first_tick_past_time(self, time, rate):
        h = 1.0 / rate
        k = sim._first_tick(time, h)
        assert k * h + 1e-12 >= time
        assert k == 0 or (k - 1) * h + 1e-12 < time

    def test_on_grid_time_keeps_its_tick(self):
        # 111 / 120 rounds to 0.92499...: the snap keeps 0.925 s on tick 111.
        assert 111 * (1.0 / 120.0) < 0.925
        assert sim._first_tick(0.925, 1.0 / 120.0) == 111

    def test_time_past_every_run_maps_past_its_last_tick(self):
        # An open-ended or very long window ends after every run, without
        # the overflow of a float tick count.
        for time in (1e308, math.inf):
            assert sim._first_tick(time, 0.005) > sim.MAX_AGENT_TICKS

    def test_integral_window_membership_is_half_open(self):
        # Windows [1, 2) and [3, 4) s at 100 Hz hold ticks [100, 200) and
        # [300, 400).
        h = 0.01
        spans = [(sim._first_tick(a, h), sim._first_tick(b, h))
                 for a, b in ((1.0, 2.0), (3.0, 4.0))]

        def active(t):
            k = sim._first_tick(t, h)
            return any(k0 <= k < k1 for k0, k1 in spans)

        assert not active(0.5)
        assert active(1.0)
        assert not active(2.0)
        assert active(3.5)

    @staticmethod
    def run_integral(rate, windows, duration=1.0):
        cfg = base_torque_dict(
            duration=duration,
            emns={"control_rate": rate, "current_limit": 16.0,
                  "current_bandwidth": 26.4},
        )
        cfg["agents"][0]["controller"].update(k_i=-1.0, integral_enabled=True)
        cfg["agents"][0]["integral_windows"] = windows
        return run_scenario(scenario_from_dict(cfg))

    def test_no_windows_integrate_every_tick(self):
        always = self.run_integral(200.0, [], duration=0.3)
        whole = self.run_integral(200.0, [[0.0, 0.3]], duration=0.3)
        late = self.run_integral(200.0, [[0.1, 0.3]], duration=0.3)
        assert np.array_equal(always.outputs_alpha, whole.outputs_alpha)
        assert not np.array_equal(always.outputs_alpha, late.outputs_alpha)

    def test_integral_window_starts_on_disturbance_tick(self):
        # At 120 Hz, 0.92 s falls between ticks 110 and 111, and 0.925 s is
        # tick 111: both windows open on tick 111.
        written = self.run_integral(120.0, [[0.925, 2.0]])
        before = self.run_integral(120.0, [[0.92, 2.0]])
        for name in ("alpha", "outputs_alpha", "currents"):
            assert np.array_equal(getattr(written, name), getattr(before, name))

    def test_off_grid_release_starts_on_next_tick(self):
        # At 200 Hz, 0.5025 s falls between ticks 100 (0.5 s) and 101
        # (0.505 s); the plant integrates from tick 101, as for 0.505 s.
        traces = []
        for release in (0.5025, 0.505):
            cfg = base_torque_dict(duration=1.0)
            cfg["agents"][0]["release_time"] = release
            traces.append(run_scenario(scenario_from_dict(cfg)))
        assert np.array_equal(traces[0].alpha, traces[1].alpha)
        np.testing.assert_array_equal(traces[0].alpha[:102, 0], 0.05)


@st.composite
def scheduled_scenarios(draw) -> Scenario:
    """A 0.25 s scenario of 1-2 agents (one actuator-only when there are
    two) with drawn disturbances of every kind on both channels, integral
    windows and release times.  Times fall on a few ticks or anywhere, so
    windows overlap and impulses share ticks."""
    rate = draw(st.sampled_from([120.0, 125.0, 200.0]))
    h = 1.0 / rate
    duration = 0.25
    ticks = round(duration * rate)
    time = st.one_of(
        st.sampled_from([0, 1, ticks // 2, ticks - 1]).map(lambda k: k * h),
        st.floats(0.0, (ticks - 1) * h),
    )
    n_agents = draw(st.integers(1, 2))
    attached = draw(st.permutations([True, False]))[:n_agents]
    positions = [(0.0, 0.0, 0.0)] if n_agents == 1 else [
        (-0.0325, 0.0, 0.0), (0.0325, 0.0, 0.0)]
    agents = []
    for position, pendulum in zip(positions, attached):
        offset = draw(st.sampled_from([0.0, 0.4 * h]))
        bounds = sorted(draw(st.lists(st.integers(0, ticks - 2), max_size=4,
                                      unique=True)))
        windows = tuple((a * h + offset, b * h + offset)
                        for a, b in zip(bounds[::2], bounds[1::2]))
        agents.append(AgentSetup(position=position, pendulum_attached=pendulum,
                                 release_time=draw(time), integral_windows=windows))
    # 0.1, 0.2 and 0.3 sum to different floats in different orders.
    magnitude = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.1, 0.2, 0.3]))
    events = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(sim.DISTURBANCE_KINDS))
        duration_st = st.one_of(st.none(), st.floats(h, 0.3))
        events.append(DisturbanceEvent(
            kind=kind,
            time=draw(time),
            magnitude=draw(magnitude),
            agent=draw(st.integers(0, n_agents - 1)),
            channel=draw(st.sampled_from(sim.CHANNELS)),
            duration=draw(duration_st) if kind == "torque_bias" else None,
        ))
    return Scenario(
        name="schedule", model=get_model("octomag8"), paradigm="torque",
        strategy="torque_one_step" if n_agents == 1 else "multi_torque",
        emns=EmnsConfig(control_rate=rate, current_limit=16.0),
        duration=duration, agents=tuple(agents), disturbances=tuple(events),
    )


class TestSchedule:
    """The per-run schedule against scans of every event and window at
    every tick, the way the tick loop once derived them: equal, not
    close."""

    @settings(max_examples=200, deadline=None)
    @given(scenario=scheduled_scenarios())
    def test_tables_match_event_scan(self, scenario):
        sched = sim._schedule(scenario)
        rate = scenario.emns.control_rate
        h = 1.0 / rate
        assert (sched.ticks, sched.h) == (round(scenario.duration * rate), h)
        events = event_spans(scenario)
        assert set(sched.impulses) <= set(range(sched.ticks))
        for a_idx, setup in enumerate(scenario.agents):
            assert sched.release[a_idx] == sim._first_tick(setup.release_time, h)
        for k in range(sched.ticks):
            assert sched.t[k] == k * h
            assert sched.impulses.get(k, []) == impulses_at(scenario, events, k)
            for a_idx, setup in enumerate(scenario.agents):
                for table, kind in ((sched.tilt, "measurement_tilt"),
                                    (sched.bias, "torque_bias")):
                    assert table[k][a_idx] == tuple(
                        in_force(events, kind, a_idx, channel, k)
                        for channel in sim.CHANNELS
                    )
                spans = [(sim._first_tick(a, h), sim._first_tick(b, h))
                         for a, b in setup.integral_windows]
                assert sched.integrate[k][a_idx] == (
                    not spans or any(k0 <= k < k1 for k0, k1 in spans))

    def test_built_once_per_scenario(self, monkeypatch):
        # Scenario validation builds the schedule; run_scenario reads it.
        build = sim._schedule
        calls = []

        def counted(scenario):
            calls.append(None)
            return build(scenario)

        monkeypatch.setattr(sim, "_schedule", counted)
        data = load_bundled("multi_torque_async")
        data["duration"] = 0.05
        tr = run_scenario(scenario_from_dict(data))
        assert tr.failure is None and len(calls) == 1


class TestLatencyAndNoise:
    def test_latency_delays_reaction_by_whole_ticks(self):
        ev = [{"type": "impulse", "time": 0.25, "magnitude": 0.3}]
        outs = {}
        for lat_ticks in (0, 2):
            emns = {"control_rate": 200.0, "current_limit": 16.0,
                    "current_bandwidth": 26.4,
                    "loop_latency": lat_ticks / 200.0}
            plain = run_scenario(scenario_from_dict(
                base_torque_dict(duration=0.5, emns=emns)))
            bumped = run_scenario(scenario_from_dict(
                base_torque_dict(duration=0.5, emns=emns, disturbances=ev)))
            diff = np.nonzero(
                plain.outputs_alpha[:, 0] != bumped.outputs_alpha[:, 0]
            )[0]
            outs[lat_ticks] = diff[0]
        # The impulse hits the rate at tick 50; the rate estimate (and hence
        # the output) first moves one tick later, plus the loop latency.
        assert outs[0] == 51
        assert outs[2] == 53

    def test_zero_noise_ignores_seed(self):
        a = run_scenario(scenario_from_dict(base_torque_dict(duration=0.5, seed=1)))
        b = run_scenario(scenario_from_dict(base_torque_dict(duration=0.5, seed=2)))
        np.testing.assert_array_equal(a.alpha, b.alpha)
        np.testing.assert_array_equal(a.currents, b.currents)

    def test_noise_reproducible_by_seed(self):
        kw = {"duration": 0.5, "measurement_noise_std": 1e-4}
        a = run_scenario(scenario_from_dict(base_torque_dict(seed=7, **kw)))
        b = run_scenario(scenario_from_dict(base_torque_dict(seed=7, **kw)))
        c = run_scenario(scenario_from_dict(base_torque_dict(seed=8, **kw)))
        np.testing.assert_array_equal(a.currents, b.currents)
        assert not np.array_equal(a.currents, c.currents)


class TestTraceColumns:
    @pytest.mark.parametrize("name,changes,failed", [
        ("multi_field_2x2d", {"duration": 0.5}, False),
        # A 1e200 rad/s kick on agent 1: the plant diverges at tick 20.
        ("multi_torque_inphase", {"duration": 0.5, "disturbances": [
            {"type": "impulse", "time": 0.1, "agent": 1, "magnitude": 1e200}]},
         True),
    ], ids=["two_agents", "truncated"])
    def test_currents_and_fields_match_per_tick_product(self, name, changes, failed):
        # The current and field columns are filled after the loop; each must
        # equal, bit for bit, what the tick computed: the lagged, clamped
        # currents, and the field rows of A(p) times them.
        data = {**load_bundled(name), **changes}
        scenario = scenario_from_dict(data)
        tr = run_scenario(scenario)
        assert (tr.failure is not None) == failed
        ticks = tr.rows.shape[0]
        assert ticks == (21 if failed else 100)
        emns = scenario.emns
        omega, h = 2.0 * math.pi * emns.current_bandwidth, 1.0 / emns.control_rate
        decay = float(np.exp(-omega * h))
        limit = emns.current_limit
        applied = np.zeros(scenario.model.n_coils)
        b_all = np.vstack([actuation_matrix(scenario.model, np.array(s.position))[:3]
                           for s in scenario.agents])
        for k in range(ticks):
            for a_idx in range(len(scenario.agents)):
                assert np.array_equal(tr.rows[k, a_idx, 10:-3], applied)
            assert np.array_equal(tr.fields[k], (b_all @ applied).reshape(-1, 3))
            cmd = tr.currents_cmd[k]
            applied = np.minimum(np.maximum(cmd + (applied - cmd) * decay, -limit),
                                 limit)

    @pytest.mark.parametrize("name,duration,two_step", [
        ("multi_torque_async", 0.5, False),
        # Past its torque bias (1 s) and into its integral window (4 s).
        ("disturb_field_integral", 4.5, False),
        # The navion3 stand-off line at 125 Hz: two plant steps per tick,
        # 23 grid entries.
        ("single_torque", 0.5, True),
    ], ids=["two_agents", "field", "navion3_two_step"])
    def test_plant_grids_match_coil_stage_product(self, monkeypatch, name,
                                                  duration, two_step):
        # Each tick's plant reads the product of its (stages, coils) lag grid
        # with the agents' stacked A(p)^T, listed: equal, entry for entry, to
        # the product of the stacked A(p) with the (coils, stages) grid, each
        # agent's 8 rows transposed to its [b; g] grid.
        seen = []
        make_tick = sim.make_tick

        def recording(*plant):
            tick = make_tick(*plant)

            def recorded(y, substeps, dt, grid, *biases):
                seen.append(grid)
                return tick(y, substeps, dt, grid, *biases)

            recorded.tick = tick
            return recorded

        monkeypatch.setattr(sim, "make_tick", recording)
        for synthesis in ("linearize", "finite_difference_linearization"):
            real = getattr(sim, synthesis)
            monkeypatch.setattr(sim, synthesis, lambda tick, *args, real=real:
                                real(tick.tick, *args))
        data = {**load_bundled(name), "duration": duration}
        if two_step:
            _navion_standoff_two_step(data)
        scenario = scenario_from_dict(data)
        tr = run_scenario(scenario)
        assert tr.failure is None
        emns, sched = scenario.emns, scenario.schedule
        substeps = round(sched.h / sim.PLANT_DT)
        assert substeps == (2 if two_step else 1)
        times = (np.append(np.add.outer(np.arange(substeps), sim.NODES), substeps)
                 * (sched.h / substeps))
        decay = np.exp(-2.0 * math.pi * emns.current_bandwidth * times)
        n_agents = len(scenario.agents)
        a_all = np.vstack([actuation_matrix(scenario.model, np.array(s.position))
                           for s in scenario.agents])
        expected = []
        for k in range(sched.ticks):
            cmd = tr.currents_cmd[k]
            i_grid = cmd[:, None] + (tr.currents[k] - cmd)[:, None] * decay[None, :]
            grids = (a_all @ i_grid).reshape(n_agents, 8, -1).transpose(0, 2, 1)
            expected += [grids[a_idx].tolist() for a_idx in range(n_agents)
                         if k >= sched.release[a_idx]]
        assert len(seen) == len(expected) == n_agents * sched.ticks
        assert {len(grid) for grid in seen} == {23 if two_step else 12}
        assert seen == expected


COIL_BELOW = {"position": [0.0, 0.0, -0.2], "axis": [0.0, 0.0, 1.0],
              "moment_per_ampere": 50.0}
COIL_ASIDE = {"position": [0.2, 0.0, 0.0], "axis": [-1.0, 0.0, 0.0],
              "moment_per_ampere": 50.0}


class TestFailureHandling:
    @pytest.mark.parametrize(
        "strategy,coils,error",
        [
            ("torque_one_step", [COIL_BELOW],
             "agent 0: torque map rank-deficient: the coil array cannot span "
             "the torque plane perpendicular to the dipole"),
            # Two coils: rank(A_b) = 2 < 3 at every point.
            ("torque_two_step", [COIL_BELOW, COIL_ASIDE],
             "field rows rank-deficient at p = (0.0, 0.0, 0.0): two-step "
             "allocation needs full field authority"),
        ],
        ids=["torque_one_step", "torque_two_step"],
    )
    def test_rank_failure_recorded_and_truncated(self, strategy, coils, error):
        model = {"name": f"{len(coils)}_coil", "coils": coils}
        cfg = base_torque_dict(model=model, strategy=strategy, duration=0.5)
        tr = run_scenario(scenario_from_dict(cfg))
        assert tr.failure == {
            "stage": "allocation", "time": 0.0, "tick": 0, "error": error,
        }
        assert tr.t.shape[0] == 1
        assert tr.summary["failure"] == tr.failure

    @pytest.mark.parametrize(
        "attached,magnitude,error",
        [
            # An impulse on the actuator rate of a plant at rest upright,
            # where alpha == phi exactly (no gain moves it before the
            # impulse): the first stage multiplies alpha_dot * alpha_dot =
            # inf by sin(alpha - phi) = 0.
            # The NaN passes math.sin without raising, and the state is
            # checked: "plant diverged: non-finite state".
            (True, 1e200, "non-finite"),
            # A torque bias on the actuator: the state reaches inf, sin(inf).
            (False, 1e307, "ValueError"),
        ],
    )
    def test_diverging_plant_recorded_and_truncated(self, attached, magnitude, error):
        kind = "impulse" if attached else "torque_bias"
        cfg = base_torque_dict(
            duration=0.5,
            disturbances=[{"type": kind, "time": 0.1, "magnitude": magnitude}],
        )
        if attached:
            cfg["agents"][0]["initial"] = {}
        else:
            cfg["agents"][0]["pendulum_attached"] = False
            cfg["agents"][0]["controller"]["q_diag"] = [20.0, 1.0]
        tr = run_scenario(scenario_from_dict(cfg))
        failure = tr.failure
        assert failure is not None and tr.summary["failure"] == failure
        assert failure["stage"] == "integration" and failure["agent"] == 0
        assert error in failure["error"]
        assert 0.1 <= failure["time"] < 0.5
        assert failure["time"] == tr.t[-1] and tr.t.shape[0] == failure["tick"] + 1
        for name in ("alpha", "beta", "phi", "theta"):
            assert np.all(np.isfinite(getattr(tr, name)))

    def test_unconverged_field_pseudoinverse_fails_first_tick(self):
        # A coil at 1e307 m overflows the agent's A(p) to NaN, so the field
        # allocator's SVD, taken before the loop, does not converge: an
        # allocation failure at tick 0, not a traceback.
        data = {**load_bundled("single_field"), "duration": 0.1,
                "model": {"name": "far", "coils": [
                    {**COIL_BELOW, "position": [-1.0, -1.0, 1e307]}, COIL_ASIDE,
                    {**COIL_ASIDE, "position": [0.0, 0.2, 0.0]}]}}
        tr = run_scenario(scenario_from_dict(data))
        assert tr.failure == {"stage": "allocation", "time": 0.0, "tick": 0,
                              "error": "SVD did not converge"}
        assert tr.t.shape[0] == 1 and tr.summary["failure"] == tr.failure

    def test_non_finite_state_recorded_with_agent(self, monkeypatch):
        # A NaN raises nothing in math.sin, so the state itself is checked.
        # Synthesis differentiates agent 0's tick, the first fetched; agent
        # 1's returns a NaN angle, first at tick 0, after agent 0's step.
        compile_tick = sim.make_tick
        fetched = []

        def nan_for_second_agent(*plant):
            tick = compile_tick(*plant)
            fetched.append(tick)
            if len(fetched) < 2:
                return tick

            def wrapped(*args):
                y = tick(*args)
                return (math.nan,) + y[1:]

            return wrapped

        monkeypatch.setattr(sim, "make_tick", nan_for_second_agent)
        data = load_bundled("multi_torque_async")
        data["duration"] = 0.05
        tr = run_scenario(scenario_from_dict(data))
        assert tr.failure == {
            "stage": "integration", "time": 0.0, "tick": 0, "agent": 1,
            "error": "plant diverged: non-finite state",
        }
        assert tr.t.shape[0] == 1 and np.all(np.isfinite(tr.alpha))

    def test_linalg_error_is_allocation_failure(self, monkeypatch, tmp_path):
        # An SVD that does not converge (numpy's LinAlgError, a ValueError)
        # is a numerical failure at its tick, not a config error.  The
        # per-run allocator makes each tick's torque solve through
        # alloc.solve_torque_gram.
        solve = sim.alloc.solve_torque_gram
        calls = []

        def fail_on_third_call(*args):
            calls.append(None)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("SVD did not converge")
            return solve(*args)

        monkeypatch.setattr(sim.alloc, "solve_torque_gram", fail_on_third_call)
        cfg = tmp_path / "unit.json"
        cfg.write_text(json.dumps(base_torque_dict(duration=0.1)))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        summary = json.loads((out / "unit_summary.json").read_text())
        assert summary["failure"] == {
            "stage": "allocation", "time": 0.01, "tick": 2,
            "error": "SVD did not converge",
        }
        assert summary["ticks"] == 3


def _two_step(data: dict) -> None:
    data["strategy"] = "torque_two_step"


def _navion_standoff_two_step(data: dict) -> None:
    # The stand-off line of workspace_navion_standoff.json at 0.12 m, with
    # its plant, under two-step allocation.
    data.update(strategy="torque_two_step", model="navion3", emns="navion",
                plant={"dipole_magnitude": 2.0, "magnet_offset": 0.02})
    data["agents"][0]["position"] = [0.0, 0.0, 0.12]


class TestBodyPlaneAllocation:
    @pytest.mark.parametrize(
        "name,duration,edit",
        [
            pytest.param("multi_torque_async", 2.0, None,
                         id="multi_torque_async-2.0"),
            pytest.param("single_torque", 1.0, None, id="single_torque-1.0"),
            pytest.param("single_torque", 1.0, _two_step,
                         id="single_torque-1.0-two_step"),
            pytest.param("single_torque", 2.0, _navion_standoff_two_step,
                         id="navion3-0.12m-2.0-two_step"),
        ],
    )
    def test_matches_composed_map_allocator(
        self, monkeypatch, name, duration, edit
    ):
        # The per-run allocator solves in the body (tau_x, tau_y) plane; the
        # oracle builds a pose and a world torque per agent per tick and
        # solves in the world frame: through the composed map J M A(p), or
        # for two-step through the SVDs of skew(m) and A_b.  The two differ
        # only by rounding, far inside the 1e-8 rad trace bound.
        data = load_bundled(name)
        data["duration"] = duration
        if edit is not None:
            edit(data)
        plane = run_scenario(scenario_from_dict(data))
        monkeypatch.setattr(sim, "_allocator", composed_allocator)
        oracle = run_scenario(scenario_from_dict(data))
        assert plane.failure is None and oracle.failure is None
        assert plane.t.shape == oracle.t.shape
        worst = max(
            float(np.max(np.abs(getattr(plane, n) - getattr(oracle, n))))
            for n in ("alpha", "beta", "phi", "theta")
        )
        assert worst <= 1e-8


@settings(max_examples=300, deadline=None)
@given(within=st.lists(st.booleans(), max_size=40))
def test_settling_tick_matches_brute_force(within):
    within = np.array(within, dtype=bool)
    assert sim._settling_tick(within) == settling_tick_brute(within)


class TestPlantStep:
    """The eighth-order tick's global error falls about 256x per halving, so
    the gap between the traces at PLANT_DT and PLANT_DT / 2 bounds the error
    of the step the simulator uses."""

    @staticmethod
    def halving_gap(monkeypatch, data: dict, coarse) -> float:
        monkeypatch.setattr(sim, "PLANT_DT", sim.PLANT_DT / 2)
        fine = run_scenario(scenario_from_dict(data))
        assert coarse.failure is None and fine.failure is None
        return max(
            float(np.max(np.abs(getattr(coarse, n) - getattr(fine, n))))
            for n in ("alpha", "beta", "phi", "theta")
        )

    @pytest.mark.parametrize("name", BUNDLED_SIMULATE)
    def test_step_halving(self, monkeypatch, bundled_runs, name):
        coarse = bundled_runs[name]["trace"]
        assert self.halving_gap(monkeypatch, load_bundled(name), coarse) <= 1e-8

    def test_step_halving_two_steps_per_tick(self, monkeypatch):
        # No bundled simulate scenario runs at 125 Hz, where a tick takes two
        # steps: the navion3 stand-off line at 0.12 m does.
        data = load_bundled("single_torque")
        data["duration"] = 2.0
        _navion_standoff_two_step(data)
        scenario = scenario_from_dict(data)
        assert round(scenario.schedule.h / sim.PLANT_DT) == 2
        coarse = run_scenario(scenario)
        assert self.halving_gap(monkeypatch, data, coarse) <= 1e-8


class TestFieldParadigm:
    def run_actuator_field(self, polarity):
        cfg = {
            "name": "polarity",
            "model": "octomag8",
            "paradigm": "field",
            "strategy": "field_alignment",
            "emns": "octomag",
            "duration": 2.0,
            "field_magnitude": 0.065,
            "plant": {"eta": 0.002, "damping": 0.005},
            "agents": [
                {
                    "position": [0.0, 0.0, 0.0],
                    "pendulum_attached": False,
                    "polarity": polarity,
                    "initial": {"alpha": 0.0873},
                    "controller": {"q_diag": [20.0, 1.0], "r_weight": 1.0},
                }
            ],
        }
        return run_scenario(scenario_from_dict(cfg))

    def test_polarity_minus_one_field_command_inverted(self):
        tr_pos = self.run_actuator_field(1)
        tr_neg = self.run_actuator_field(-1)
        assert abs(tr_pos.alpha[-1, 0]) < 0.01
        assert abs(tr_neg.alpha[-1, 0]) < 0.01
        # The realized fields point in opposite directions.
        assert tr_neg.fields[-1, 0, 2] == pytest.approx(
            -tr_pos.fields[-1, 0, 2], rel=1e-6
        )
        assert tr_pos.fields[-1, 0, 2] > 0.0

    def test_steady_field_magnitude_matches_command(self):
        tr = self.run_actuator_field(1)
        assert np.linalg.norm(tr.fields[-1, 0]) == pytest.approx(0.065, rel=1e-6)

    def test_actuator_only_linearization_checked(self):
        # The finite-difference check runs on the actuator-only plant too:
        # a real (non-zero) mismatch, well inside the tolerance.
        tr = self.run_actuator_field(1)
        for entry in tr.synthesis:
            assert 0.0 < entry["fd_linearization_match"] < 1e-5


class TestCsvTrace:
    def test_header_and_shape(self, tmp_path):
        cfg = base_torque_dict(duration=0.25)
        tr = run_scenario(scenario_from_dict(cfg))
        out = tmp_path / "trace.csv"
        tr.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "t,agent,alpha,beta,phi,theta,alpha_sp,beta_sp,tau_x,tau_y,"
            "i_1,i_2,i_3,i_4,i_5,i_6,i_7,i_8,b_x,b_y,b_z"
        )
        assert len(lines) == 1 + 50 * 1
        first = lines[1].split(",")
        assert float(first[2]) == tr.alpha[0, 0]  # round-trip exact

    def test_csv_byte_identical_across_runs(self, tmp_path):
        data = load_bundled("single_torque")
        data["duration"] = 0.5
        blobs = []
        for run in range(2):
            tr = run_scenario(scenario_from_dict(copy.deepcopy(data)))
            out = tmp_path / f"run{run}.csv"
            tr.to_csv(out)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_multi_agent_rows_interleaved(self, tmp_path):
        data = load_bundled("multi_torque_inphase")
        data["duration"] = 0.25
        tr = run_scenario(scenario_from_dict(data))
        out = tmp_path / "multi.csv"
        tr.to_csv(out)
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 50 * 2
        assert lines[1].split(",")[1] == "0"
        assert lines[2].split(",")[1] == "1"


class TestBundledBehaviors:
    def test_single_torque_settles(self):
        tr = run_scenario(scenario_from_dict(load_bundled("single_torque")))
        assert tr.failure is None
        settle = tr.summary["metrics"]["settling_time"][0]
        assert settle is not None and settle < 3.0

    def test_settling_time_judges_beta(self):
        # Tilted in beta only, single_torque settles when beta (and theta)
        # come within 0.5 deg, not at 0 s because alpha and phi start there.
        data = load_bundled("single_torque")
        data["agents"][0]["initial"] = {"beta": 0.0873}
        tr = run_scenario(scenario_from_dict(data))
        settle = tr.summary["metrics"]["settling_time"][0]
        assert settle is not None and 0.0 < settle < 3.0
        k = int(np.flatnonzero(tr.t == settle)[0])
        angles = np.abs(np.stack([tr.alpha, tr.beta, tr.phi, tr.theta]))[:, :, 0]
        threshold = math.radians(0.5)
        assert np.all(angles[:, k:] < threshold)
        assert np.any(angles[:, k - 1] >= threshold)

    def test_disturbance_offset_and_integral_rejection(self):
        tr = run_scenario(scenario_from_dict(load_bundled("disturb_field_integral")))
        rate = 200.0
        offset = tr.alpha[int(4.0 * rate) - 1, 0]
        expected = math.asin(1e-3 / (0.5 * 0.065 - 0.002 * 9.81))
        assert offset == pytest.approx(expected, rel=0.05)
        assert abs(tr.alpha[int(9.0 * rate) - 1, 0]) < 1e-3
