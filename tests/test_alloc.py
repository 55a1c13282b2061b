"""Tests for current-allocation strategies.

The central oracle is an independent brute-force minimum-norm solver
(helpers.min_norm_oracle): least squares plus explicit removal of the
nullspace component.  Analytical identities relating the one- and two-step
torque allocations are checked exactly, and the stacked multi-agent solves
are validated against per-agent residuals and geometric symmetry.  Every
strategy takes the actuation matrix A(p); realized fields and norms are
computed here from the returned currents.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import (
    Pose,
    allocate_multi_field,
    allocate_torque_twostep_jm,
    allocate_torque_twostep_ma,
    composed_torque_map,
    composed_torque_solve,
    field_setpoint,
    min_norm_oracle,
    random_agent,
    skew,
    tick_residual,
    two_step_world,
    world_torque,
    zeta_star_world,
)

from emnav import alloc, sim
from emnav.alloc import (
    DegenerateTaskError,
    RankDeficiencyError,
    allocate_field_alignment,
    allocate_multi_torque,
    allocate_torque_one_step,
    allocate_torque_two_step,
    field_allocator,
    field_map,
    solve_torque,
    solve_torque_gram,
    two_step_field,
    zeta_star,
)
from emnav.dynamics import PendulumParams
from emnav.magmodel import (
    BLOCK,
    GRAM_COND_BOUND,
    RANK_RTOL,
    ActuationModel,
    CoilSpec,
    actuation_matrix,
    get_model,
    torque_rows,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def random_task(rng, scale=5e-3) -> tuple[float, float]:
    """A body-plane torque task (tau_x, tau_y)."""
    return tuple(float(t) for t in rng.uniform(-scale, scale, 2))


#: A dipole of |m| 0.5 at the origin, upright.
UPRIGHT = Pose((0.0, 0.0, 0.0), 0.0, 0.0, 0.5)


def field_at(model, p, currents) -> np.ndarray:
    """Field and packed gradient [b; g] the currents produce at p."""
    return actuation_matrix(model, p) @ currents


@pytest.fixture(scope="module")
def toy_two_coil():
    # Two coaxial coils: field rows have rank < 3 everywhere on the axis.
    return ActuationModel(
        name="toy2",
        coils=(
            CoilSpec(position=(0.3, 0, 0), axis=(-1, 0, 0), moment_per_ampere=10.0),
            CoilSpec(position=(-0.3, 0, 0), axis=(1, 0, 0), moment_per_ampere=10.0),
        ),
    )


class TestTaskTypes:
    """The field command's setpoint, the oracle of the field allocations."""

    def test_field_command_setpoint_at_zero_angles(self):
        setpoint = field_setpoint(0.0, 0.0, 0.025)
        np.testing.assert_allclose(setpoint, [0.0, 0.0, 0.025], atol=1e-18)

    def test_field_command_setpoint_formula(self, rng):
        for _ in range(10):
            ua, ub = rng.uniform(-1.0, 1.0, 2)
            setpoint = field_setpoint(ua, ub, 0.04)
            expected = 0.04 * np.array(
                [
                    np.sin(ua) * np.cos(ub),
                    -np.sin(ub),
                    np.cos(ua) * np.cos(ub),
                ]
            )
            np.testing.assert_allclose(setpoint, expected, atol=1e-15)
            assert abs(np.linalg.norm(setpoint) - 0.04) < 1e-15


class TestFieldAlignment:
    def test_zero_magnitude_gives_zero_currents(self, octomag):
        res = allocate_field_alignment(
            actuation_matrix(octomag, np.zeros(3)), 0.3, -0.2, 0.0
        )
        np.testing.assert_allclose(res.currents, np.zeros(8), atol=1e-18)
        assert res.residual_norm < 1e-18

    def test_octomag_center_exact(self, octomag):
        res = allocate_field_alignment(
            actuation_matrix(octomag, np.zeros(3)), 0.0, 0.0, 0.025
        )
        assert res.residual_norm < 1e-9
        realized = field_at(octomag, np.zeros(3), res.currents)
        np.testing.assert_allclose(realized[:3], [0, 0, 0.025], atol=1e-12)
        # The stacked task also zeroes the gradient.
        np.testing.assert_allclose(realized[3:], np.zeros(5), atol=1e-10)

    def test_matches_min_norm_oracle(self, octomag, rng):
        for _ in range(20):
            p = rng.uniform(-0.03, 0.03, 3)
            cmd = (*rng.uniform(-0.8, 0.8, 2), 0.03)
            a_mat = actuation_matrix(octomag, p)
            res = allocate_field_alignment(a_mat, *cmd)
            task = np.concatenate([field_setpoint(*cmd), np.zeros(5)])
            oracle = min_norm_oracle(a_mat, task)
            np.testing.assert_allclose(res.currents, oracle, atol=1e-8)

    def test_underactuated_array_reports_residual(self, navion):
        p = np.array([0.0, 0.0, 0.12])
        a_mat = actuation_matrix(navion, p)
        b_sp = np.array([0.0, 0.0, 0.02])
        # The stacked [b; zero gradient] task is out of reach of 3 coils ...
        stacked_task = np.concatenate([b_sp, np.zeros(5)])
        best = min_norm_oracle(a_mat, stacked_task)
        assert np.linalg.norm(a_mat @ best - stacked_task) > 1e-6
        # ... so a 3-coil array is asked for the field rows only.
        res = allocate_field_alignment(a_mat, 0.0, 0.0, 0.02)
        assert res.residual_norm < 1e-12
        np.testing.assert_allclose(
            field_at(navion, p, res.currents)[:3], b_sp, atol=1e-14
        )


class TestTorqueOneStep:
    def test_zero_task_zero_currents(self, octomag, params):
        agent = Pose((0.0, 0.0, 0.0), 0.1, 0.2, 0.5)
        res = allocate_torque_one_step(
            actuation_matrix(octomag, agent.p), agent.tilts, agent.mag_pol,
            (0.0, 0.0), params.magnet_offset,
        )
        np.testing.assert_allclose(res.currents, np.zeros(8), atol=1e-18)

    def test_residual_exactness(self, octomag, params, rng):
        for _ in range(50):
            agent = random_agent(rng)
            task = random_task(rng)
            res = allocate_torque_one_step(
                actuation_matrix(octomag, agent.p), agent.tilts, agent.mag_pol,
                task, params.magnet_offset,
            )
            tau = np.linalg.norm(task)
            assert res.residual_norm <= 1e-9 * max(tau, 1e-30)

    def test_matches_min_norm_oracle(self, octomag, params, rng):
        # Acceptance-grade oracle equivalence on the composed torque map.
        for _ in range(100):
            agent = random_agent(rng)
            task = random_task(rng)
            a_mat = actuation_matrix(octomag, agent.p)
            res = allocate_torque_one_step(a_mat, agent.tilts, agent.mag_pol, task,
                                           params.magnet_offset)
            g_map = composed_torque_map(a_mat, agent, params)
            tau_c = world_torque(agent, task)
            oracle = min_norm_oracle(g_map, tau_c)
            np.testing.assert_allclose(res.currents, oracle, atol=1e-8)

    def test_rank_deficiency_single_coil(self, params):
        single = ActuationModel(
            name="toy1",
            coils=(CoilSpec(position=(0, 0, -0.3), axis=(0, 0, 1), moment_per_ampere=10.0),),
        )
        with pytest.raises(RankDeficiencyError):
            allocate_torque_one_step(
                actuation_matrix(single, UPRIGHT.p), UPRIGHT.tilts, UPRIGHT.mag_pol,
                (1e-3, 0.0), params.magnet_offset,
            )

    def test_stabilization_scale_well_below_field_alignment(self, octomag, params):
        # A 10 mNm task costs far less current than holding the 65 mT
        # operating field (15 A); the exact ampere value is preset-dependent.
        res = allocate_torque_one_step(
            actuation_matrix(octomag, UPRIGHT.p), UPRIGHT.tilts, UPRIGHT.mag_pol,
            (10e-3, 0.0), params.magnet_offset,
        )
        assert np.max(np.abs(res.currents)) < 8.0


class TestTorqueTwoStep:
    def test_zero_task_zero_currents(self, octomag):
        agent = Pose((0.0, 0.0, 0.0), 0.1, 0.2, 0.5)
        res = allocate_torque_two_step(
            actuation_matrix(octomag, agent.p), agent.tilts, agent.mag_pol,
            (0.0, 0.0), agent.p,
        )
        np.testing.assert_allclose(res.currents, np.zeros(8), atol=1e-18)

    def test_intermediate_field_orthogonal_to_moment(self, octomag, rng):
        # The minimum-norm field realizing a torque is orthogonal to the
        # dipole moment, and stays so through the (exact) current solve.
        for _ in range(200):
            agent = random_agent(rng)
            task = random_task(rng)
            a_mat = actuation_matrix(octomag, agent.p)
            res = allocate_torque_two_step(a_mat, agent.tilts, agent.mag_pol, task,
                                           agent.p)
            b = (a_mat @ res.currents)[:3]
            bound = 1e-10 * abs(agent.mag_pol) * max(np.linalg.norm(b), 1e-30)
            assert abs(float(agent.moment @ b)) <= bound

    def test_pinv_of_skew_closed_form(self, rng):
        # pinv(skew(m)) = -skew(m)/|m|^2: cross-check numpy against algebra.
        for _ in range(20):
            m = rng.uniform(-2, 2, 3)
            if np.linalg.norm(m) < 0.1:
                continue
            np.testing.assert_allclose(
                np.linalg.pinv(skew(m)),
                -skew(m) / float(m @ m),
                atol=1e-12,
            )

    def test_rank_deficiency_error(self, toy_two_coil):
        with pytest.raises(RankDeficiencyError):
            allocate_torque_two_step(
                actuation_matrix(toy_two_coil, UPRIGHT.p), UPRIGHT.tilts,
                UPRIGHT.mag_pol, (1e-3, 0.0), UPRIGHT.p,
            )


class TestOneVsTwoStep:
    def test_appendix_identities(self, octomag, params, rng):
        # i_one = i_two + zeta* A_b^+ m, with the norm identity and the
        # current/field norm orderings, on the pure field-torque map.
        for _ in range(200):
            agent = random_agent(rng)
            task = random_task(rng)
            a_mat = actuation_matrix(octomag, agent.p)
            one = allocate_torque_one_step(
                a_mat, agent.tilts, agent.mag_pol, task, 0.0
            ).currents
            two = allocate_torque_two_step(
                a_mat, agent.tilts, agent.mag_pol, task, agent.p
            ).currents
            zeta = zeta_star(a_mat, agent.tilts, agent.mag_pol, task)
            a_b_pinv = np.linalg.pinv(a_mat[:3], rcond=1e-10)
            shift = zeta * (a_b_pinv @ agent.moment)
            scale = max(np.linalg.norm(one), 1e-30)
            assert np.linalg.norm(one - (two + shift)) <= 1e-9 * scale

            # Norm orderings.
            b_two = (a_mat @ two)[:3]
            assert np.linalg.norm(one) <= np.linalg.norm(two) + 1e-9
            assert (
                np.linalg.norm((a_mat @ one)[:3]) >= np.linalg.norm(b_two) - 1e-9
            )

            # Norm identity.
            u = a_b_pinv @ agent.moment
            v = a_b_pinv @ b_two
            lhs = np.linalg.norm(one) ** 2
            rhs = np.linalg.norm(two) ** 2 - (float(v @ u)) ** 2 / float(u @ u)
            assert abs(lhs - rhs) <= 1e-9 * max(abs(rhs), 1e-30)

    def test_field_relation(self, octomag, params, rng):
        # b_one = b_two + zeta* m and the squared-norm Pythagorean relation
        # (the shift is orthogonal to b_two), valid with full field authority.
        for _ in range(50):
            agent = random_agent(rng)
            task = random_task(rng)
            a_mat = actuation_matrix(octomag, agent.p)
            one = allocate_torque_one_step(
                a_mat, agent.tilts, agent.mag_pol, task, 0.0
            )
            two = allocate_torque_two_step(
                a_mat, agent.tilts, agent.mag_pol, task, agent.p
            )
            zeta = zeta_star(a_mat, agent.tilts, agent.mag_pol, task)
            b_one = (a_mat @ one.currents)[:3]
            b_two = (a_mat @ two.currents)[:3]
            np.testing.assert_allclose(
                b_one, b_two + zeta * agent.moment, atol=1e-12
            )
            lhs = float(b_one @ b_one)
            rhs = float(b_two @ b_two) + zeta**2 * agent.mag_pol**2
            assert abs(lhs - rhs) <= 1e-9 * max(rhs, 1e-30)

    def test_zeta_zero_at_symmetric_center(self, octomag, params):
        # At the array center the field rows have orthogonal principal axes
        # with the dipole along one of them, so the one- and two-step
        # allocations coincide and zeta* vanishes.
        agent, task = UPRIGHT, (2e-3, -1e-3)
        a_mat = actuation_matrix(octomag, agent.p)
        assert abs(zeta_star(a_mat, agent.tilts, agent.mag_pol, task)) < 1e-12
        one = allocate_torque_one_step(a_mat, agent.tilts, agent.mag_pol, task, 0.0)
        two = allocate_torque_two_step(a_mat, agent.tilts, agent.mag_pol, task, agent.p)
        np.testing.assert_allclose(one.currents, two.currents, atol=1e-12)

    def test_zeta_degenerate_error(self, toy_two_coil):
        # Coaxial coils produce field only along x at the midpoint; a dipole
        # along z has no realizable parallel component, A_b^+ m = 0.
        agent = Pose((0.0, 0.05, 0.0), 0.0, 0.0, 0.5)
        a_mat = actuation_matrix(toy_two_coil, agent.p)
        if np.linalg.norm(np.linalg.pinv(a_mat[:3], rcond=1e-10) @ agent.moment) < 1e-12:
            with pytest.raises(DegenerateTaskError):
                zeta_star(a_mat, agent.tilts, agent.mag_pol, (1e-3, 0.0))
        else:  # pragma: no cover - geometry guard
            pytest.skip("toy geometry unexpectedly actuates the dipole direction")


class TestMultiStepDiagnostics:
    def test_exact_on_square_array_and_dominated(self, octomag, params, rng):
        # On an 8-coil array both split solves realize the task exactly and
        # are never cheaper than the one-step allocation.
        for _ in range(30):
            agent = random_agent(rng)
            task = random_task(rng)
            a_mat = actuation_matrix(octomag, agent.p)
            one = allocate_torque_one_step(a_mat, agent.tilts, agent.mag_pol, task,
                                           params.magnet_offset)
            jm = allocate_torque_twostep_jm(a_mat, agent, params, task)
            ma = allocate_torque_twostep_ma(a_mat, agent, params, task)
            tau = max(np.linalg.norm(task), 1e-30)
            assert jm.residual_norm <= 1e-9 * tau
            assert ma.residual_norm <= 1e-9 * tau
            norm_one = np.linalg.norm(one.currents)
            assert norm_one <= np.linalg.norm(jm.currents) + 1e-9
            assert norm_one <= np.linalg.norm(ma.currents) + 1e-9


class TestMultiField:
    def test_zero_commands(self, octomag):
        cmds = [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0)]
        pts = [np.array([0.03, 0, 0]), np.array([-0.03, 0, 0])]
        res = allocate_multi_field([actuation_matrix(octomag, p) for p in pts], cmds)
        np.testing.assert_allclose(res.currents, np.zeros(8), atol=1e-18)

    def test_mirror_symmetry(self, octomag):
        # Reflecting positions and commands across the y-z plane permutes the
        # coils of the preset; the unique minimum-norm currents follow suit.
        d = 0.0325
        cmd_a = (0.15, -0.1, 0.02)
        cmd_b = (-0.15, -0.1, 0.02)
        res = allocate_multi_field(
            [actuation_matrix(octomag, p) for p in ([d, 0, 0], [-d, 0, 0])],
            [cmd_a, cmd_b],
        )
        mirror_perm = [2, 1, 0, 3, 5, 4, 7, 6]
        np.testing.assert_allclose(
            res.currents[mirror_perm], res.currents, atol=1e-9
        )

    def test_two_positions_65mT_exceeds_limit(self, octomag):
        # Holding 65 mT at two points 6.5 cm apart drives at least one coil
        # to the 16 A saturation limit.
        d = 0.0325
        cmd = (0.0, 0.0, 0.065)
        a_mats = [actuation_matrix(octomag, p) for p in ([d, 0, 0], [-d, 0, 0])]
        res = allocate_multi_field(a_mats, [cmd, cmd])
        assert np.max(np.abs(res.currents)) > 15.5
        for a_mat in a_mats:
            assert np.linalg.norm(a_mat[:3] @ res.currents - field_setpoint(*cmd)) < 1e-9

    def test_per_agent_residuals_and_fields(self, octomag, rng):
        pts = [np.array([0.02, 0.01, 0]), np.array([-0.02, -0.01, 0.01])]
        cmds = [(0.2, 0.1, 0.015), (-0.1, 0.05, 0.02)]
        res = allocate_multi_field([actuation_matrix(octomag, p) for p in pts], cmds)
        assert res.residual_norm < 1e-10
        for p, cmd in zip(pts, cmds):
            np.testing.assert_allclose(
                actuation_matrix(octomag, p)[:3] @ res.currents, field_setpoint(*cmd),
                atol=1e-10,
            )

    def test_length_mismatch(self, octomag):
        with pytest.raises(ValueError):
            allocate_multi_field([actuation_matrix(octomag, np.zeros(3))], [])


class TestFieldAllocator:
    """The per-run field allocation builds its target in floats; its
    currents, and the residuals formed from its log, equal bit for bit those
    of the per-command ``field_setpoint`` oracle, ``allocate_multi_field``."""

    @pytest.mark.parametrize("points,polarities", [
        pytest.param([(0.01, -0.005, 0.0)], [1], id="one-agent-8-rows"),
        pytest.param([(0.01, -0.005, 0.0)], [-1], id="one-agent-8-rows-inverted"),
        pytest.param([(0.0325, 0, 0), (-0.0325, 0, 0)], [1, -1],
                     id="two-agents-3-rows"),
        pytest.param([(0.02, 0.01, 0), (-0.02, -0.01, 0.01)], [-1, -1],
                     id="two-agents-3-rows-inverted"),
    ])
    def test_bit_identical_to_setpoint_oracle(self, octomag, rng, points, polarities):
        a_mats = [actuation_matrix(octomag, np.array(p)) for p in points]
        magnitude = 0.04
        allocate, logged_residuals = field_allocator(a_mats, polarities, magnitude)
        norms = []
        for slot in range(20):
            outputs = [tuple(rng.uniform(-0.8, 0.8, 2)) for _ in points]
            currents = allocate((), outputs, slot)
            # A polarity -1 magnet's command is inverted: b(pi + u, -v).
            oracle = allocate_multi_field(a_mats, [
                (u_a, u_b, magnitude) if pol == 1
                else (math.pi + u_a, -u_b, magnitude)
                for pol, (u_a, u_b) in zip(polarities, outputs)
            ])
            np.testing.assert_array_equal(currents, oracle.currents)
            norms.append(oracle.residual_norm)
        np.testing.assert_array_equal(logged_residuals(20), norms)


class TestMultiTorque:
    def _agents(self):
        d = 0.0325
        a1 = Pose((d, 0.0, 0.0), 0.05, 0.02, 0.5)
        a2 = Pose((-d, 0.0, 0.0), -0.03, 0.04, 0.5)
        return a1, a2

    @staticmethod
    def _solve(a_mats, agents, params, taus):
        return allocate_multi_torque(
            a_mats, [a.tilts for a in agents], [a.mag_pol for a in agents], taus,
            params.magnet_offset,
        )

    def test_zero_tasks(self, octomag, params):
        agents = self._agents()
        res = self._solve(
            [actuation_matrix(octomag, a.p) for a in agents], agents, params,
            [(0.0, 0.0)] * 2,
        )
        np.testing.assert_allclose(res.currents, np.zeros(8), atol=1e-18)

    def test_per_agent_exactness(self, octomag, params, rng):
        agents = self._agents()
        a_mats = [actuation_matrix(octomag, a.p) for a in agents]
        for _ in range(20):
            tasks = [random_task(rng, 1e-3), random_task(rng, 1e-3)]
            res = self._solve(a_mats, agents, params, tasks)
            for a_mat, agent, task in zip(a_mats, agents, tasks):
                realized = composed_torque_map(a_mat, agent, params) @ res.currents
                tau = max(np.linalg.norm(task), 1e-30)
                residual = np.linalg.norm(realized - world_torque(agent, task))
                assert residual <= 1e-9 * tau

    def test_matches_min_norm_oracle(self, octomag, params, rng):
        agents = self._agents()
        a_mats = [actuation_matrix(octomag, a.p) for a in agents]
        tasks = [random_task(rng, 1e-3), random_task(rng, 1e-3)]
        res = self._solve(a_mats, agents, params, tasks)
        stacked = np.vstack(
            [composed_torque_map(m, a, params) for m, a in zip(a_mats, agents)]
        )
        target = np.concatenate(
            [world_torque(a, t) for a, t in zip(agents, tasks)]
        )
        np.testing.assert_allclose(
            res.currents, min_norm_oracle(stacked, target), atol=1e-8
        )

    def test_embedded_single_agent_dominance(self, octomag, params):
        agents = self._agents()
        a_mats = [actuation_matrix(octomag, a.p) for a in agents]
        task = (1e-3, 0.5e-3)
        single = allocate_torque_one_step(
            a_mats[0], agents[0].tilts, agents[0].mag_pol, task, params.magnet_offset
        )
        multi = self._solve(a_mats, agents, params, [task, (0.0, 0.0)])
        assert (
            np.linalg.norm(multi.currents)
            >= np.linalg.norm(single.currents) - 1e-12
        )

    def test_stabilization_scale_ampere_order(self, octomag, params):
        # Millinewton-meter tasks on both preset positions land in the
        # ampere range (order 1 A, preset-dependent).
        agents = self._agents()
        tasks = [(1e-3, 0.5e-3), (-0.7e-3, 0.8e-3)]
        res = self._solve(
            [actuation_matrix(octomag, a.p) for a in agents], agents, params, tasks
        )
        peak = np.max(np.abs(res.currents))
        assert 0.1 < peak < 10.0

    def test_rank_error_names_agent(self, params):
        single = ActuationModel(
            name="toy1",
            coils=(CoilSpec(position=(0, 0, -0.3), axis=(0, 0, 1), moment_per_ampere=10.0),),
        )
        agents = self._agents()
        with pytest.raises(RankDeficiencyError, match="agent 0"):
            self._solve(
                [actuation_matrix(single, a.p) for a in agents], agents, params,
                [(1e-3, 0.0)] * 2,
            )


# The body-plane solve against the world-frame composed-map oracle.  The
# one-coil model gives every agent a rank-1 torque map; on navion3 two
# agents' four rows exceed the three coils.  Two agents sit on either side
# of x = 0, at least 2 cm apart, as magnets of finite size must.
_ONE_COIL = ActuationModel(
    "toy1", (CoilSpec((0.0, 0.0, -0.3), (0.0, 0.0, 1.0), 10.0),)
)
_MODELS = (get_model("octomag8"), get_model("navion3"), _ONE_COIL)
_Z_RANGE = {"octomag8": (-0.04, 0.04), "navion3": (0.05, 0.15),
            "toy1": (-0.04, 0.04), "toy2": (-0.04, 0.04)}


def _floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_subnormal=False)


@st.composite
def _torque_case(draw):
    model = draw(st.sampled_from(_MODELS))
    n_agents = draw(st.integers(1, 2))
    x_ranges = [(-0.04, 0.04)] if n_agents == 1 else [(-0.04, -0.01), (0.01, 0.04)]
    agents, tasks = [], []
    for x_lo, x_hi in x_ranges:
        p = (
            draw(_floats(x_lo, x_hi)),
            draw(_floats(-0.04, 0.04)),
            draw(_floats(*_Z_RANGE[model.name])),
        )
        alpha, beta = draw(_floats(-0.6, 0.6)), draw(_floats(-0.6, 0.6))
        dipole = draw(_floats(0.2, 2.0))
        agents.append(Pose(p, alpha, beta, draw(st.sampled_from((1, -1))) * dipole))
        tasks.append((draw(_floats(-5e-3, 5e-3)), draw(_floats(-5e-3, 5e-3))))
    return model, agents, tasks, draw(st.booleans())


def _plane_solve(a_mats, agents, params, tasks, include_force):
    """The production body-plane solve of the case: the one-step and
    multi-agent wrappers, at the magnet offset or, without gradient forces,
    at lever 0."""
    lever = params.magnet_offset if include_force else 0.0
    if len(agents) == 1:
        return allocate_torque_one_step(
            a_mats[0], agents[0].tilts, agents[0].mag_pol, tasks[0], lever
        )
    return allocate_multi_torque(
        a_mats, [a.tilts for a in agents], [a.mag_pol for a in agents], tasks, lever
    )


@settings(max_examples=300, deadline=None)
@given(case=_torque_case())
def test_plane_solve_matches_composed_oracle(case):
    model, agents, tasks, include_force = case
    params = PendulumParams()
    a_mats = [actuation_matrix(model, a.p) for a in agents]
    verdict, oracle, target = composed_torque_solve(
        a_mats, agents, params, tasks, include_force
    )
    try:
        res = _plane_solve(a_mats, agents, params, tasks, include_force)
    except RankDeficiencyError as exc:
        got = str(exc).split(":")[0]
        assert verdict == ("coupled" if got.startswith("coupled") else got)
        return
    assert verdict is None
    scale = float(np.max(np.abs(oracle.currents)))
    assert np.max(np.abs(res.currents - oracle.currents)) <= 1e-9 * scale
    # The world-frame target lies in the torque plane: same norm as the
    # body-plane target.
    assert res.residual_norm <= 1e-12 * np.linalg.norm(target)


# The closed-form two-step field b = W0^T tau / mag_pol^2 against the
# world-frame oracle b = skew(m)^+ tau_world, through the two-step currents
# and zeta*.  Two coils leave rank(A_b) = 2 at every point.
_TWO_COIL = ActuationModel(
    "toy2",
    (
        CoilSpec((0.0, 0.0, -0.3), (0.0, 0.0, 1.0), 10.0),
        CoilSpec((0.3, 0.0, 0.0), (-1.0, 0.0, 0.0), 10.0),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from((get_model("octomag8"), get_model("navion3"), _TWO_COIL)),
    xy=st.tuples(_floats(-0.04, 0.04), _floats(-0.04, 0.04)),
    z_unit=_floats(0.0, 1.0),
    tilts=st.tuples(_floats(-0.6, 0.6), _floats(-0.6, 0.6)),
    dipole=_floats(0.2, 2.0),
    polarity=st.sampled_from((1, -1)),
    # A torque magnitude and direction, as alloc-bench draws them; squares
    # of magnitudes far below this underflow in the norms of the bounds.
    polar=st.tuples(_floats(1e-6, 5e-3), _floats(0.0, 2.0 * math.pi)),
)
# Near a loss of field rank: cond(A_b) 5.4e5, currents of 2.4e5 A and a
# residual of 2.18e-14 N m, 5.6e-12 ||tau||; its backward error is 3.0e-17.
@example(model=get_model("navion3"),
         xy=(0.03529284777958676, 0.031312739276768746),
         z_unit=0.013515257694568298, tilts=(0.0, 0.0), dipole=1.0,
         polarity=1, polar=(0.00390625, 0.0))
@example(model=get_model("navion3"),
         xy=(0.03529284777958676, 0.031312739276768746),
         z_unit=0.013515257694568298, tilts=(0.0, 0.0), dipole=1.0,
         polarity=-1, polar=(0.00390625, 0.0))
def test_two_step_closed_form_matches_world_frame_oracle(
    model, xy, z_unit, tilts, dipole, polarity, polar
):
    tau = (polar[0] * math.cos(polar[1]), polar[0] * math.sin(polar[1]))
    z_lo, z_hi = _Z_RANGE[model.name]
    mag_pol = polarity * dipole
    agent = Pose((*xy, z_lo + z_unit * (z_hi - z_lo)), *tilts, mag_pol)
    a_mat = actuation_matrix(model, agent.p)

    # The field of the first step, with or without field authority.
    rows = torque_rows(agent.alpha, agent.beta, mag_pol, 0.0)[:, :3]
    b_oracle = np.linalg.pinv(skew(agent.moment), rcond=1e-10) @ world_torque(
        agent, tau
    )
    b_closed = two_step_field(rows, np.array(tau), mag_pol)
    assert np.linalg.norm(b_closed - b_oracle) <= 1e-12 * np.linalg.norm(b_oracle)

    # The same rank verdict, with the same message, and the same currents.
    outcomes = []
    for solve in (lambda: allocate_torque_two_step(a_mat, tilts, mag_pol, tau, agent.p),
                  lambda: two_step_world(a_mat, agent, tau)):
        try:
            outcomes.append(solve())
        except RankDeficiencyError as exc:
            outcomes.append(str(exc))
    closed, oracle = outcomes
    assert type(closed) is type(oracle)
    if isinstance(oracle, str):
        assert closed == oracle
    else:
        scale = np.linalg.norm(oracle.currents)
        assert np.linalg.norm(closed.currents - oracle.currents) <= 1e-12 * scale
        # The normwise backward error of W0 A_b c = tau: rounding scales with
        # ||W0|| ||A_b|| ||c||, which near a loss of field rank is far above
        # ||tau||.
        scale = (np.linalg.norm(rows, 2) * np.linalg.norm(a_mat[:3], 2)
                 * np.linalg.norm(closed.currents) + np.linalg.norm(tau))
        assert closed.residual_norm <= 1e-14 * scale

    # zeta*: the same verdict on degeneracy, and the same shift.
    outcomes = []
    for zeta in (lambda: zeta_star(a_mat, tilts, mag_pol, tau),
                 lambda: zeta_star_world(a_mat, agent, tau)):
        try:
            outcomes.append(zeta())
        except DegenerateTaskError:
            outcomes.append(None)
    closed, oracle = outcomes
    assert (closed is None) == (oracle is None)
    if oracle is not None:
        # |zeta*| <= ||A_b^+|| |b| / |A_b^+ m|, the scale of its rounding.
        a_b_pinv = np.linalg.pinv(a_mat[:3], rcond=1e-10)
        scale = (np.linalg.norm(a_b_pinv, 2) * np.linalg.norm(b_oracle)
                 / np.linalg.norm(a_b_pinv @ agent.moment))
        assert abs(closed - oracle) <= 1e-12 * scale


# The per-tick torque solve (``alloc.solve_torque_gram``): a certified Cholesky
# solve of the Gram matrix T T^T, with the SVD of ``solve_torque`` behind it.


@st.composite
def _body_plane_map(draw):
    """A stacked body-plane map T = W A(p) with its (tau_x, tau_y) targets:
    one or two agents on octomag8, one on navion3 (two would need four
    independent rows from three coils)."""
    model = draw(st.sampled_from((get_model("octomag8"), get_model("navion3"))))
    n_agents = draw(st.integers(1, 2)) if model.name == "octomag8" else 1
    x_ranges = [(-0.04, 0.04)] if n_agents == 1 else [(-0.04, -0.01), (0.01, 0.04)]
    rows = []
    for x_lo, x_hi in x_ranges:
        p = (draw(_floats(x_lo, x_hi)), draw(_floats(-0.04, 0.04)),
             draw(_floats(*_Z_RANGE[model.name])))
        mag_pol = draw(_floats(0.2, 2.0)) * draw(st.sampled_from((1, -1)))
        tilts = draw(_floats(-0.6, 0.6)), draw(_floats(-0.6, 0.6))
        lever = draw(st.sampled_from((0.0, 0.05)))
        rows.append(torque_rows(*tilts, mag_pol, lever) @ actuation_matrix(model, p))
    # Torques of 1e-6 N m and up: far smaller ones lose precision to underflow.
    torque = st.just(0.0) | _floats(1e-6, 5e-3) | _floats(-5e-3, -1e-6)
    return np.vstack(rows), [draw(torque) for _ in range(2 * n_agents)]


@settings(max_examples=300, deadline=None)
@given(case=_body_plane_map())
def test_gram_solve_matches_pinv_on_body_plane_maps(case):
    task_mat, target = case
    n_rows = task_mat.shape[0]
    gram = task_mat @ task_mat.T
    # The certificate bounds cond(T)^2 from above, and these maps pass it,
    # so the Gram path, not the SVD fallback, makes the solve.
    factor_inv = np.linalg.inv(np.linalg.cholesky(gram))
    sigma = np.linalg.svd(task_mat, compute_uv=False)
    bound = np.trace(gram) * np.sum(factor_inv**2)
    assert bound >= (sigma[0] / sigma[-1]) ** 2 * (1.0 - 1e-12)
    assert alloc._gram_solve(n_rows)(gram.tolist(), target) is not None
    currents = solve_torque_gram(task_mat, target)
    oracle = np.linalg.pinv(task_mat, rcond=RANK_RTOL) @ np.array(target)
    assert np.linalg.norm(currents - oracle) <= 1e-12 * np.linalg.norm(oracle)
    assert tick_residual(task_mat, currents, target) <= 1e-12 * np.linalg.norm(target)


def _orthonormal(rng, rows: int, cols: int) -> np.ndarray:
    return np.linalg.qr(rng.normal(size=(rows, cols)))[0]


def _conditioned_map(rng, ratio: float, deficient: str) -> np.ndarray:
    """A map whose ``deficient`` part has sigma_min / sigma_max = ``ratio``:
    agent 0's two rows alone, agent 0's or agent 1's block of a two-agent
    stack (the other block generic), or the two-agent stack as a whole
    (both blocks generic: a coupled deficiency)."""
    def block(n: int, spectrum) -> np.ndarray:
        return (_orthonormal(rng, n, n) * spectrum) @ _orthonormal(rng, 8, n).T

    if deficient == "coupled":
        return block(4, (1.0, 0.8, 0.6, ratio))
    if deficient == "single":
        return block(2, (1.0, ratio))
    blocks = [block(2, (1.0, 0.7)), block(2, (1.0, ratio))]
    return np.vstack(blocks if deficient == "agent 1" else blocks[::-1])


def _outcome(solve, task_mat, target):
    try:
        return solve(task_mat, target)
    except RankDeficiencyError as exc:
        return str(exc)


@pytest.mark.parametrize("deficient", ["single", "agent 0", "agent 1", "coupled"])
@pytest.mark.parametrize("ratio", [1e-3, 1e-6, 1e-9, 1e-11])
def test_gram_solve_keeps_svd_verdicts(monkeypatch, deficient, ratio):
    # Both sides of the certification bound (cond^2 1e6 against 1e12 and
    # more) and of RANK_RTOL (1e-9 and 1e-11): the same verdict and message
    # as the SVD, which makes every uncertified solve.
    rng = np.random.default_rng(int(-math.log10(ratio)))
    task_mat = _conditioned_map(rng, ratio, deficient)
    n_rows = task_mat.shape[0]
    target = list(rng.uniform(-5e-3, 5e-3, n_rows))
    svd_calls = []

    def counted(*args):
        svd_calls.append(None)
        return solve_torque(*args)

    monkeypatch.setattr(alloc, "solve_torque", counted)
    got = _outcome(solve_torque_gram, task_mat, target)
    assert len(svd_calls) == (0 if ratio == 1e-3 else 1)
    oracle = _outcome(solve_torque, task_mat, np.array(target))
    if ratio < RANK_RTOL:
        name = "agent 0" if deficient == "single" else deficient
        assert got == oracle and got.startswith(f"{name}:" if "agent" in name
                                                else "coupled rank deficiency")
    elif svd_calls:
        np.testing.assert_array_equal(got, oracle)
    else:
        scale = np.linalg.norm(oracle)
        assert np.linalg.norm(got - oracle) <= 1e-8 * scale
        assert tick_residual(task_mat, got, target) <= 1e-8 * np.linalg.norm(target)


@pytest.mark.parametrize("ratio,certified", [(1.01e-4, True), (0.99e-4, False)])
def test_gram_certificate_threshold(monkeypatch, ratio, certified):
    # For sigma = (1, r), trace(G) trace(G^-1) = 2 + r^2 + 1 / r^2: it
    # crosses GRAM_COND_BOUND between r = 1.01e-4 and 0.99e-4, where the
    # SVD takes the solve.
    assert (2.0 + ratio**2 + ratio**-2 <= GRAM_COND_BOUND) == certified
    rng = np.random.default_rng(4)
    task_mat = _conditioned_map(rng, ratio, "single")
    target = [1e-3, -2e-3]
    assert (alloc._gram_solve(2)((task_mat @ task_mat.T).tolist(), target)
            is not None) == certified
    svd_calls = []

    def counted(*args):
        svd_calls.append(None)
        return solve_torque(*args)

    monkeypatch.setattr(alloc, "solve_torque", counted)
    currents = solve_torque_gram(task_mat, target)
    assert len(svd_calls) == (0 if certified else 1)
    oracle = np.linalg.pinv(task_mat, rcond=RANK_RTOL) @ np.array(target)
    assert np.linalg.norm(currents - oracle) <= 1e-8 * np.linalg.norm(oracle)


def test_gram_solve_falls_back_on_non_finite_map():
    # A NaN in the map fails every pivot test; the SVD then raises its
    # LinAlgError, which the simulator records as an allocation failure.
    task_mat = np.ones((2, 8))
    task_mat[0, 0] = math.nan
    with pytest.raises(np.linalg.LinAlgError):
        solve_torque_gram(task_mat, [0.0, 0.0])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_non_finite_current_gives_non_finite_residual(data):
    # The simulator tests its solves for finiteness on their residual norms
    # alone: with one current +-inf or NaN, every entry of T c - v is inf or
    # NaN, through an all-zero column of T too (0 * inf is NaN), and so is
    # the norm, alone and stacked as ``residual_norms`` forms it, and the
    # two-step solve's ||W0 (A_b c) - v||.
    rows, cols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    task_mat = data.draw(arrays(np.float64, (rows, cols),
                                elements=st.floats(allow_nan=False,
                                                   allow_infinity=False)))
    task_mat[:, data.draw(st.lists(st.integers(0, cols - 1)))] = 0.0
    currents = data.draw(arrays(np.float64, cols, elements=st.floats(-20.0, 20.0)))
    currents[data.draw(st.integers(0, cols - 1))] = data.draw(
        st.sampled_from((math.inf, -math.inf, math.nan)))
    target = data.draw(arrays(np.float64, rows, elements=st.floats(-1.0, 1.0)))
    w0 = data.draw(arrays(np.float64, (2, rows), elements=st.floats(-1.0, 1.0)))
    torques = data.draw(arrays(np.float64, 2, elements=st.floats(-1.0, 1.0)))
    with np.errstate(over="ignore", invalid="ignore"):
        residual = tick_residual(task_mat, currents, target)
        stacked = alloc.residual_norms(task_mat, currents[None], target[None])
        two_step = np.linalg.norm(w0 @ (task_mat @ currents) - torques)
        two_step_stacked = alloc.residual_norms(
            w0[None], (task_mat @ currents[None, :, None])[..., 0], torques[None])
    assert not math.isfinite(residual) and not math.isfinite(two_step)
    assert not np.isfinite(stacked).any() and not np.isfinite(two_step_stacked).any()


def _poison_allocation(monkeypatch, tick: int, bad: float) -> None:
    """Make the per-run allocator return currents[5] = ``bad`` at ``tick``:
    its call returns its log entry, so the residual formed later reads it."""
    allocator = sim._allocator

    def poisoned(scenario, a_mats):
        allocate, logged_residuals = allocator(scenario, a_mats)
        calls = []

        def allocate_poisoned(*args):
            currents = allocate(*args)
            calls.append(None)
            if len(calls) == tick + 1:
                currents[5] = bad
            return currents

        return allocate_poisoned, logged_residuals

    monkeypatch.setattr(sim, "_allocator", poisoned)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["single_torque", "single_field"])
def test_non_finite_current_fails_its_tick(monkeypatch, name, bad):
    # A solve whose currents hold a non-finite entry ends the run at its
    # tick with an allocation failure, though the run tests the residual
    # alone, formed after the solve from the allocator's log.
    _poison_allocation(monkeypatch, 2, bad)
    data = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    data["duration"] = 0.1
    trace = sim.run_scenario(sim.scenario_from_dict(data))
    assert trace.failure == {"stage": "allocation", "time": 0.01, "tick": 2,
                             "error": "non-finite allocation currents or residual"}
    assert trace.t.shape[0] == 3 and np.all(np.isfinite(trace.currents_cmd))


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["single_torque", "single_field"])
def test_non_finite_current_in_second_block_fails_its_tick(monkeypatch, name, bad):
    # Residuals are formed a block of BLOCK ticks at a time, so the loop runs
    # past the poisoned tick: to the end of its block for an infinite current
    # (the clamp maps it to the limit), or to the plant's failure on that
    # tick for a NaN.  The trace still ends at the poisoned tick, with the
    # values of a clean run up to it, and that tick's command and residual
    # left 0.
    tick = BLOCK + 10
    data = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    data["duration"] = 2.6  # 520 ticks: the poisoned tick's block is full
    scenario = sim.scenario_from_dict(data)
    clean = sim.run_scenario(scenario)
    _poison_allocation(monkeypatch, tick, bad)
    trace = sim.run_scenario(scenario)
    assert trace.failure == {"stage": "allocation", "time": tick * scenario.schedule.h,
                             "tick": tick,
                             "error": "non-finite allocation currents or residual"}
    assert trace.t.shape[0] == tick + 1
    np.testing.assert_array_equal(trace.rows, clean.rows[:tick + 1])
    np.testing.assert_array_equal(trace.currents_cmd[:tick], clean.currents_cmd[:tick])
    np.testing.assert_array_equal(trace.residuals[:tick], clean.residuals[:tick])
    assert not trace.currents_cmd[tick].any() and trace.residuals[tick] == 0.0


# The residuals ``run_scenario`` forms a block at a time equal each tick's
# own: ||T c - v|| (``tick_residual``) of the tick's measured tilts, task and
# currents, or ||W0 (A_b c) - v|| for the two-step solve.  The runs are long
# enough for full blocks and a partial last one.
_RESIDUAL_CASES = {
    "torque_one_step": ("single_torque", {}),
    "torque_one_step_no_force": ("single_torque", {"include_force": False}),
    "torque_two_step": ("single_torque", {"strategy": "torque_two_step"}),
    "multi_torque": ("multi_torque_async", {}),
    "field_alignment": ("single_field", {}),
    "multi_field": ("multi_field_2x2d", {}),
}


@pytest.mark.parametrize("case", list(_RESIDUAL_CASES))
def test_block_residuals_are_the_tick_residuals(monkeypatch, case):
    name, keys = _RESIDUAL_CASES[case]
    data = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    data.update(keys)
    scenario = sim.scenario_from_dict(data)
    solves = []
    allocator = sim._allocator

    def recording(scenario, a_mats):
        allocate, logged_residuals = allocator(scenario, a_mats)

        def allocate_recorded(angles, commands, slot):
            currents = allocate(angles, commands, slot)
            solves.append(([a[:2] for a in angles], commands, currents.copy()))
            return currents

        return allocate_recorded, logged_residuals

    monkeypatch.setattr(sim, "_allocator", recording)
    trace = sim.run_scenario(scenario)
    assert trace.failure is None and len(solves) == len(trace.t)
    assert len(trace.t) % BLOCK and len(trace.t) > BLOCK
    params, agents = scenario.plant, scenario.agents
    a_mats = [actuation_matrix(scenario.model, s.position) for s in agents]
    lever = params.magnet_offset if scenario.include_force else 0.0
    for k, (tilts, commands, currents) in enumerate(solves):
        if scenario.paradigm == "field":
            task_mat = field_map(a_mats)
            fields = [field_setpoint(u_a, u_b, scenario.field_magnitude)
                      if s.polarity == 1 else
                      field_setpoint(math.pi + u_a, -u_b, scenario.field_magnitude)
                      for s, (u_a, u_b) in zip(agents, commands)]
            padding = np.zeros(task_mat.shape[0] - 3 * len(agents))
            target = np.concatenate(fields + [padding])
        else:
            rows = [torque_rows(*tilt, s.polarity * params.dipole_magnitude, lever)
                    for s, tilt in zip(agents, tilts)]
            target = [t for out_a, out_b in commands for t in (out_b, out_a)]
            task_mat = np.vstack([w @ a for w, a in zip(rows, a_mats)])
        if scenario.strategy == "torque_two_step":
            w0 = rows[0][:, :3]
            oracle = float(np.linalg.norm(w0 @ (a_mats[0][:3] @ currents) - target))
        else:
            oracle = tick_residual(task_mat, currents, target)
        assert trace.residuals[k] == oracle, k


# Each per-call wrapper is one call of the allocator the simulator runs, so
# it rebuilds a tick's solve from the trace: with no noise, latency or
# measurement tilt the measured angles are the trace's, and below the current
# limit the commanded currents are the solve's.  A one-step or multi-agent
# wrapper that solved apart from the simulator, through ``solve_torque``
# alone, would differ from the certified Gram solve in the last bits.
_TICK_CASES = {
    "torque_one_step": ("single_torque", {}),
    "torque_one_step_no_force": ("single_torque", {"include_force": False}),
    "torque_two_step": ("single_torque", {"strategy": "torque_two_step"}),
    "multi_torque": ("multi_torque_async", {}),
    "field_alignment": ("single_field", {}),
}


@pytest.mark.parametrize("case", list(_TICK_CASES))
def test_per_call_wrapper_is_the_simulated_tick(case):
    name, keys = _TICK_CASES[case]
    data = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    data.update(keys, duration=0.05)
    for agent in data["agents"]:  # a 5 deg catch commands the limit
        agent["initial"] = {"alpha": 0.005}
    scenario = sim.scenario_from_dict(data)
    assert scenario.measurement_noise_std == 0.0
    assert scenario.emns.loop_latency == 0.0 and not scenario.disturbances
    trace = sim.run_scenario(scenario)
    assert trace.failure is None
    assert np.max(np.abs(trace.currents_cmd)) < scenario.emns.current_limit
    params = scenario.plant
    a_mats = [actuation_matrix(scenario.model, s.position) for s in scenario.agents]
    mag_pols = [s.polarity * params.dipole_magnitude for s in scenario.agents]
    lever = params.magnet_offset if scenario.include_force else 0.0
    for k in range(len(trace.t)):
        tilts = list(zip(trace.alpha[k].tolist(), trace.beta[k].tolist()))
        outputs = list(zip(trace.outputs_alpha[k].tolist(),
                           trace.outputs_beta[k].tolist()))
        taus = [(out_b, out_a) for out_a, out_b in outputs]
        if case == "field_alignment":
            assert scenario.agents[0].polarity == 1
            res = allocate_field_alignment(a_mats[0], *outputs[0],
                                           scenario.field_magnitude)
        elif case == "torque_two_step":
            res = allocate_torque_two_step(a_mats[0], tilts[0], mag_pols[0], taus[0],
                                           scenario.agents[0].position)
        elif case == "multi_torque":
            res = allocate_multi_torque(a_mats, tilts, mag_pols, taus, lever)
        else:
            res = allocate_torque_one_step(a_mats[0], tilts[0], mag_pols[0], taus[0],
                                           lever)
        np.testing.assert_array_equal(res.currents, trace.currents_cmd[k])
        assert res.residual_norm == trace.residuals[k]
