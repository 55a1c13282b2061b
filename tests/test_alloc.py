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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    allocate_multi_field,
    composed_torque_map,
    composed_torque_solve,
    min_norm_oracle,
    random_agent,
)

from emnav.alloc import (
    DegenerateTaskError,
    FieldCommand,
    RankDeficiencyError,
    WrenchTask,
    allocate_field_alignment,
    allocate_multi_torque,
    allocate_torque_one_step,
    allocate_torque_two_step,
    allocate_torque_twostep_jm,
    allocate_torque_twostep_ma,
    solve_torque,
    world_torque,
    zeta_star,
)
from emnav.dynamics import PendulumParams
from emnav.magmodel import (
    ActuationModel,
    CoilSpec,
    DipoleAgent,
    actuation_matrix,
    get_model,
    skew,
    torque_rows,
)


def random_task(rng, scale=5e-3) -> WrenchTask:
    return WrenchTask.planar(*(rng.uniform(-scale, scale, 2)))


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
    def test_field_command_setpoint_at_zero_angles(self):
        cmd = FieldCommand(u_alpha=0.0, u_beta=0.0, magnitude=0.025)
        np.testing.assert_allclose(cmd.setpoint, [0.0, 0.0, 0.025], atol=1e-18)

    def test_field_command_setpoint_formula(self, rng):
        for _ in range(10):
            ua, ub = rng.uniform(-1.0, 1.0, 2)
            cmd = FieldCommand(u_alpha=ua, u_beta=ub, magnitude=0.04)
            expected = 0.04 * np.array(
                [
                    np.sin(ua) * np.cos(ub),
                    -np.sin(ub),
                    np.cos(ua) * np.cos(ub),
                ]
            )
            np.testing.assert_allclose(cmd.setpoint, expected, atol=1e-15)
            assert abs(np.linalg.norm(cmd.setpoint) - 0.04) < 1e-15

    def test_field_command_rejects_negative_magnitude(self):
        with pytest.raises(ValueError):
            FieldCommand(u_alpha=0.0, u_beta=0.0, magnitude=-0.01)

    def test_wrench_task_rejects_axial_torque(self):
        with pytest.raises(ValueError):
            WrenchTask(tau_c_body=(1e-3, 0.0, 1e-4))

    def test_wrench_task_planar(self):
        task = WrenchTask.planar(2e-3, -1e-3)
        assert task.tau_c_body == (2e-3, -1e-3, 0.0)
        assert task.force is None

    def test_wrench_task_force_shape(self):
        with pytest.raises(ValueError):
            WrenchTask(tau_c_body=(0, 0, 0), force=(1.0, 2.0))


class TestFieldAlignment:
    def test_zero_magnitude_gives_zero_currents(self, octomag):
        res = allocate_field_alignment(
            actuation_matrix(octomag, np.zeros(3)), FieldCommand(0.3, -0.2, 0.0)
        )
        np.testing.assert_allclose(res.currents, np.zeros(8), atol=1e-18)
        assert res.residual_norm < 1e-18

    def test_octomag_center_exact(self, octomag):
        res = allocate_field_alignment(
            actuation_matrix(octomag, np.zeros(3)), FieldCommand(0.0, 0.0, 0.025)
        )
        assert res.residual_norm < 1e-9
        realized = field_at(octomag, np.zeros(3), res.currents)
        np.testing.assert_allclose(realized[:3], [0, 0, 0.025], atol=1e-12)
        # The stacked task also zeroes the gradient.
        np.testing.assert_allclose(realized[3:], np.zeros(5), atol=1e-10)

    def test_matches_min_norm_oracle(self, octomag, rng):
        for _ in range(20):
            p = rng.uniform(-0.03, 0.03, 3)
            cmd = FieldCommand(*rng.uniform(-0.8, 0.8, 2), magnitude=0.03)
            a_mat = actuation_matrix(octomag, p)
            res = allocate_field_alignment(a_mat, cmd)
            task = np.concatenate([cmd.setpoint, np.zeros(5)])
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
        res = allocate_field_alignment(a_mat, FieldCommand(0.0, 0.0, 0.02))
        assert res.residual_norm < 1e-12
        np.testing.assert_allclose(
            field_at(navion, p, res.currents)[:3], b_sp, atol=1e-14
        )


class TestTorqueOneStep:
    def test_zero_task_zero_currents(self, octomag, params):
        agent = DipoleAgent(p=(0, 0, 0), alpha=0.1, beta=0.2, dipole_magnitude=0.5)
        res = allocate_torque_one_step(
            actuation_matrix(octomag, agent.p), agent, params, WrenchTask.planar(0, 0)
        )
        np.testing.assert_allclose(res.currents, np.zeros(8), atol=1e-18)

    def test_residual_exactness(self, octomag, params, rng):
        for _ in range(50):
            agent = random_agent(rng)
            task = random_task(rng)
            res = allocate_torque_one_step(
                actuation_matrix(octomag, agent.p), agent, params, task
            )
            tau = np.linalg.norm(task.tau_c_body)
            assert res.residual_norm <= 1e-9 * max(tau, 1e-30)

    def test_matches_min_norm_oracle(self, octomag, params, rng):
        # Acceptance-grade oracle equivalence on the composed torque map.
        for _ in range(100):
            agent = random_agent(rng)
            task = random_task(rng)
            a_mat = actuation_matrix(octomag, agent.p)
            res = allocate_torque_one_step(a_mat, agent, params, task)
            g_map = composed_torque_map(a_mat, agent, params)
            tau_c = agent.rotation_t @ np.array(task.tau_c_body)
            oracle = min_norm_oracle(g_map, tau_c)
            np.testing.assert_allclose(res.currents, oracle, atol=1e-8)

    def test_force_task_changes_target(self, octomag, params):
        agent = DipoleAgent(p=(0, 0, 0), alpha=0.0, beta=0.0, dipole_magnitude=0.5)
        a_mat = actuation_matrix(octomag, agent.p)
        plain = allocate_torque_one_step(a_mat, agent, params, WrenchTask.planar(1e-3, 0))
        with_force = allocate_torque_one_step(
            a_mat,
            agent,
            params,
            WrenchTask(tau_c_body=(1e-3, 0.0, 0.0), force=(0.0, 0.2, 0.0)),
        )
        # A lateral force adds lever-arm torque; the solutions must differ.
        assert np.linalg.norm(plain.currents - with_force.currents) > 1e-6

    def test_rank_deficiency_single_coil(self, params):
        single = ActuationModel(
            name="toy1",
            coils=(CoilSpec(position=(0, 0, -0.3), axis=(0, 0, 1), moment_per_ampere=10.0),),
        )
        agent = DipoleAgent(p=(0, 0, 0), alpha=0.0, beta=0.0, dipole_magnitude=0.5)
        with pytest.raises(RankDeficiencyError):
            allocate_torque_one_step(
                actuation_matrix(single, agent.p), agent, params,
                WrenchTask.planar(1e-3, 0),
            )

    def test_stabilization_scale_well_below_field_alignment(self, octomag, params):
        # A 10 mNm task costs far less current than holding the 65 mT
        # operating field (15 A); the exact ampere value is preset-dependent.
        agent = DipoleAgent(p=(0, 0, 0), alpha=0.0, beta=0.0, dipole_magnitude=0.5)
        res = allocate_torque_one_step(
            actuation_matrix(octomag, agent.p), agent, params,
            WrenchTask.planar(10e-3, 0),
        )
        assert np.max(np.abs(res.currents)) < 8.0


class TestTorqueTwoStep:
    def test_zero_task_zero_currents(self, octomag):
        agent = DipoleAgent(p=(0, 0, 0), alpha=0.1, beta=0.2, dipole_magnitude=0.5)
        res = allocate_torque_two_step(
            actuation_matrix(octomag, agent.p), agent, WrenchTask.planar(0, 0)
        )
        np.testing.assert_allclose(res.currents, np.zeros(8), atol=1e-18)

    def test_intermediate_field_orthogonal_to_moment(self, octomag, rng):
        # The minimum-norm field realizing a torque is orthogonal to the
        # dipole moment, and stays so through the (exact) current solve.
        for _ in range(200):
            agent = random_agent(rng)
            task = random_task(rng)
            a_mat = actuation_matrix(octomag, agent.p)
            res = allocate_torque_two_step(a_mat, agent, task)
            b = (a_mat @ res.currents)[:3]
            bound = 1e-10 * agent.dipole_magnitude * max(np.linalg.norm(b), 1e-30)
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
        agent = DipoleAgent(p=(0, 0, 0), alpha=0.0, beta=0.0, dipole_magnitude=0.5)
        with pytest.raises(RankDeficiencyError):
            allocate_torque_two_step(
                actuation_matrix(toy_two_coil, agent.p), agent,
                WrenchTask.planar(1e-3, 0),
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
                a_mat, agent, params, task, include_force=False
            ).currents
            two = allocate_torque_two_step(a_mat, agent, task).currents
            zeta = zeta_star(a_mat, agent, task)
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
                a_mat, agent, params, task, include_force=False
            )
            two = allocate_torque_two_step(a_mat, agent, task)
            zeta = zeta_star(a_mat, agent, task)
            b_one = (a_mat @ one.currents)[:3]
            b_two = (a_mat @ two.currents)[:3]
            np.testing.assert_allclose(
                b_one, b_two + zeta * agent.moment, atol=1e-12
            )
            lhs = float(b_one @ b_one)
            rhs = float(b_two @ b_two) + zeta**2 * agent.dipole_magnitude**2
            assert abs(lhs - rhs) <= 1e-9 * max(rhs, 1e-30)

    def test_zeta_zero_at_symmetric_center(self, octomag, params):
        # At the array center the field rows have orthogonal principal axes
        # with the dipole along one of them, so the one- and two-step
        # allocations coincide and zeta* vanishes.
        agent = DipoleAgent(p=(0, 0, 0), alpha=0.0, beta=0.0, dipole_magnitude=0.5)
        task = WrenchTask.planar(2e-3, -1e-3)
        a_mat = actuation_matrix(octomag, agent.p)
        assert abs(zeta_star(a_mat, agent, task)) < 1e-12
        one = allocate_torque_one_step(a_mat, agent, params, task, include_force=False)
        two = allocate_torque_two_step(a_mat, agent, task)
        np.testing.assert_allclose(one.currents, two.currents, atol=1e-12)

    def test_zeta_degenerate_error(self, toy_two_coil):
        # Coaxial coils produce field only along x at the midpoint; a dipole
        # along z has no realizable parallel component, A_b^+ m = 0.
        agent = DipoleAgent(p=(0, 0.05, 0), alpha=0.0, beta=0.0, dipole_magnitude=0.5)
        a_mat = actuation_matrix(toy_two_coil, agent.p)
        if np.linalg.norm(np.linalg.pinv(a_mat[:3], rcond=1e-10) @ agent.moment) < 1e-12:
            with pytest.raises(DegenerateTaskError):
                zeta_star(a_mat, agent, WrenchTask.planar(1e-3, 0))
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
            one = allocate_torque_one_step(a_mat, agent, params, task)
            jm = allocate_torque_twostep_jm(a_mat, agent, params, task)
            ma = allocate_torque_twostep_ma(a_mat, agent, params, task)
            tau = max(np.linalg.norm(task.tau_c_body), 1e-30)
            assert jm.residual_norm <= 1e-9 * tau
            assert ma.residual_norm <= 1e-9 * tau
            norm_one = np.linalg.norm(one.currents)
            assert norm_one <= np.linalg.norm(jm.currents) + 1e-9
            assert norm_one <= np.linalg.norm(ma.currents) + 1e-9


class TestMultiField:
    def test_zero_commands(self, octomag):
        cmds = [FieldCommand(0, 0, 0.0), FieldCommand(0, 0, 0.0)]
        pts = [np.array([0.03, 0, 0]), np.array([-0.03, 0, 0])]
        res = allocate_multi_field([actuation_matrix(octomag, p) for p in pts], cmds)
        np.testing.assert_allclose(res.currents, np.zeros(8), atol=1e-18)

    def test_mirror_symmetry(self, octomag):
        # Reflecting positions and commands across the y-z plane permutes the
        # coils of the preset; the unique minimum-norm currents follow suit.
        d = 0.0325
        cmd_a = FieldCommand(u_alpha=0.15, u_beta=-0.1, magnitude=0.02)
        cmd_b = FieldCommand(u_alpha=-0.15, u_beta=-0.1, magnitude=0.02)
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
        cmd = FieldCommand(0.0, 0.0, 0.065)
        a_mats = [actuation_matrix(octomag, p) for p in ([d, 0, 0], [-d, 0, 0])]
        res = allocate_multi_field(a_mats, [cmd, cmd])
        assert np.max(np.abs(res.currents)) > 15.5
        for a_mat in a_mats:
            assert np.linalg.norm(a_mat[:3] @ res.currents - cmd.setpoint) < 1e-9

    def test_per_agent_residuals_and_fields(self, octomag, rng):
        pts = [np.array([0.02, 0.01, 0]), np.array([-0.02, -0.01, 0.01])]
        cmds = [FieldCommand(0.2, 0.1, 0.015), FieldCommand(-0.1, 0.05, 0.02)]
        res = allocate_multi_field([actuation_matrix(octomag, p) for p in pts], cmds)
        assert res.residual_norm < 1e-10
        for p, cmd in zip(pts, cmds):
            np.testing.assert_allclose(
                actuation_matrix(octomag, p)[:3] @ res.currents, cmd.setpoint,
                atol=1e-10,
            )

    def test_length_mismatch(self, octomag):
        with pytest.raises(ValueError):
            allocate_multi_field([actuation_matrix(octomag, np.zeros(3))], [])


class TestMultiTorque:
    def _agents(self):
        d = 0.0325
        a1 = DipoleAgent(p=(d, 0, 0), alpha=0.05, beta=0.02, dipole_magnitude=0.5)
        a2 = DipoleAgent(p=(-d, 0, 0), alpha=-0.03, beta=0.04, dipole_magnitude=0.5)
        return a1, a2

    def test_zero_tasks(self, octomag, params):
        agents = self._agents()
        res = allocate_multi_torque(
            [actuation_matrix(octomag, a.p) for a in agents], list(agents), params,
            [WrenchTask.planar(0, 0)] * 2,
        )
        np.testing.assert_allclose(res.currents, np.zeros(8), atol=1e-18)

    def test_per_agent_exactness(self, octomag, params, rng):
        agents = self._agents()
        a_mats = [actuation_matrix(octomag, a.p) for a in agents]
        for _ in range(20):
            tasks = [random_task(rng, 1e-3), random_task(rng, 1e-3)]
            res = allocate_multi_torque(a_mats, list(agents), params, tasks)
            for a_mat, agent, task in zip(a_mats, agents, tasks):
                realized = composed_torque_map(a_mat, agent, params) @ res.currents
                tau = max(np.linalg.norm(task.tau_c_body), 1e-30)
                residual = np.linalg.norm(realized - world_torque(agent, task))
                assert residual <= 1e-9 * tau

    def test_matches_min_norm_oracle(self, octomag, params, rng):
        agents = self._agents()
        a_mats = [actuation_matrix(octomag, a.p) for a in agents]
        tasks = [random_task(rng, 1e-3), random_task(rng, 1e-3)]
        res = allocate_multi_torque(a_mats, list(agents), params, tasks)
        stacked = np.vstack(
            [composed_torque_map(m, a, params) for m, a in zip(a_mats, agents)]
        )
        target = np.concatenate(
            [a.rotation_t @ np.array(t.tau_c_body) for a, t in zip(agents, tasks)]
        )
        np.testing.assert_allclose(
            res.currents, min_norm_oracle(stacked, target), atol=1e-8
        )

    def test_embedded_single_agent_dominance(self, octomag, params):
        agents = self._agents()
        a_mats = [actuation_matrix(octomag, a.p) for a in agents]
        task = WrenchTask.planar(1e-3, 0.5e-3)
        single = allocate_torque_one_step(a_mats[0], agents[0], params, task)
        multi = allocate_multi_torque(
            a_mats, list(agents), params, [task, WrenchTask.planar(0, 0)]
        )
        assert (
            np.linalg.norm(multi.currents)
            >= np.linalg.norm(single.currents) - 1e-12
        )

    def test_stabilization_scale_ampere_order(self, octomag, params):
        # Millinewton-meter tasks on both preset positions land in the
        # ampere range (order 1 A, preset-dependent).
        agents = self._agents()
        tasks = [WrenchTask.planar(1e-3, 0.5e-3), WrenchTask.planar(-0.7e-3, 0.8e-3)]
        res = allocate_multi_torque(
            [actuation_matrix(octomag, a.p) for a in agents], list(agents), params,
            tasks,
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
            allocate_multi_torque(
                [actuation_matrix(single, a.p) for a in agents], list(agents), params,
                [WrenchTask.planar(1e-3, 0)] * 2,
            )


# The body-plane solve against the world-frame composed-map oracle.  The
# one-coil model gives every agent a rank-1 torque map; on navion3 two
# agents' four rows exceed the three coils.  Two agents sit on either side
# of x = 0, at least 2 cm apart, as magnets of finite size must.
_ONE_COIL = ActuationModel(
    "toy1", (CoilSpec((0.0, 0.0, -0.3), (0.0, 0.0, 1.0), 10.0),)
)
_MODELS = (get_model("octomag8"), get_model("navion3"), _ONE_COIL)
_Z_RANGE = {"octomag8": (-0.04, 0.04), "navion3": (0.05, 0.15), "toy1": (-0.04, 0.04)}


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
        agents.append(
            DipoleAgent(
                p=p,
                alpha=draw(_floats(-0.6, 0.6)),
                beta=draw(_floats(-0.6, 0.6)),
                dipole_magnitude=draw(_floats(0.2, 2.0)),
                polarity=draw(st.sampled_from((1, -1))),
            )
        )
        force = draw(st.none() | st.tuples(*[_floats(-0.5, 0.5)] * 3))
        tasks.append(
            WrenchTask(
                tau_c_body=(draw(_floats(-5e-3, 5e-3)), draw(_floats(-5e-3, 5e-3)), 0.0),
                force=force,
            )
        )
    return model, agents, tasks, draw(st.booleans())


def _plane_solve(a_mats, agents, params, tasks, include_force):
    """The production body-plane solve of the case: the one-step and
    multi-agent wrappers, or ``solve_torque`` over force-free
    ``torque_rows`` for two agents without gradient forces."""
    if len(agents) == 1:
        return allocate_torque_one_step(
            a_mats[0], agents[0], params, tasks[0], include_force=include_force
        )
    if include_force:
        return allocate_multi_torque(a_mats, agents, params, tasks)
    rows = [
        torque_rows(a.alpha, a.beta, a.polarity * a.dipole_magnitude, 0.0) @ m
        for a, m in zip(agents, a_mats)
    ]
    target = np.concatenate([t.tau_c_body[:2] for t in tasks])
    return solve_torque(np.vstack(rows), target)


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
