"""Tests for the coil-array field model and dipole wrench maps.

Oracles used here, independent of the implementation:
  * dipole field  — numerical curl of the magnetic vector potential
    A(r) = (mu0 / 4 pi) (m x r) / |r|^3;
  * field Jacobian and gradient rows — central finite differences of the
    field;
  * rotation matrices — scipy's Rotation with the matching Euler convention;
  * torque-map SVD — numpy's generic SVD of skew(m), against the closed
    form in helpers.torque_map_svd.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from helpers import (
    dipole_field,
    dipole_field_jacobian,
    pack_gradient,
    random_agent,
    torque_map_svd,
    unpack_gradient,
)

from emnav.alloc import WrenchTask, world_torque
from emnav.magmodel import (
    CoilSpec,
    DipoleAgent,
    SingularPositionError,
    actuation_matrices,
    actuation_matrix,
    body_frames,
    get_model,
    skew,
    torque_rows,
    wrench_maps,
)

MU0_OVER_4PI = 1.0e-7

angles = st.floats(-3.1, 3.1, allow_nan=False, allow_infinity=False)


def curl_of_vector_potential(r: np.ndarray, m: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Oracle: b = curl A with A = (mu0/4pi) (m x r)/|r|^3, central differences."""

    def pot(x: np.ndarray) -> np.ndarray:
        return MU0_OVER_4PI * np.cross(m, x) / np.linalg.norm(x) ** 3

    jac = np.zeros((3, 3))
    for j in range(3):
        dr = np.zeros(3)
        dr[j] = h
        jac[:, j] = (pot(r + dr) - pot(r - dr)) / (2 * h)
    return np.array(
        [jac[2, 1] - jac[1, 2], jac[0, 2] - jac[2, 0], jac[1, 0] - jac[0, 1]]
    )


class TestDipoleField:
    def test_matches_curl_of_vector_potential(self, rng):
        for _ in range(50):
            r = rng.uniform(-1.0, 1.0, 3)
            if np.linalg.norm(r) < 0.2:
                continue
            m = rng.uniform(-5.0, 5.0, 3)
            b = dipole_field(r, m)
            b_oracle = curl_of_vector_potential(r, m)
            np.testing.assert_allclose(b, b_oracle, rtol=1e-7, atol=1e-13)

    def test_on_axis_closed_form(self):
        # On the dipole axis the field is 2 (mu0/4pi) m / d^3, aligned with m.
        m = np.array([0.0, 0.0, 3.0])
        r = np.array([0.0, 0.0, 0.25])
        b = dipole_field(r, m)
        expected = 2.0 * MU0_OVER_4PI * 3.0 / 0.25**3
        np.testing.assert_allclose(b, [0.0, 0.0, expected], atol=1e-15)

    def test_equatorial_closed_form(self):
        # In the equatorial plane the field is -(mu0/4pi) m / d^3.
        m = np.array([0.0, 0.0, 3.0])
        r = np.array([0.25, 0.0, 0.0])
        b = dipole_field(r, m)
        np.testing.assert_allclose(
            b, [0.0, 0.0, -MU0_OVER_4PI * 3.0 / 0.25**3], atol=1e-15
        )

    def test_singular_at_origin(self):
        with pytest.raises(SingularPositionError):
            dipole_field(np.zeros(3), np.array([0.0, 0.0, 1.0]))

    def test_jacobian_matches_finite_differences(self, rng):
        h = 1e-6
        for _ in range(25):
            r = rng.uniform(0.2, 0.8, 3)
            m = rng.uniform(-5.0, 5.0, 3)
            jac = dipole_field_jacobian(r, m)
            fd = np.zeros((3, 3))
            for j in range(3):
                dr = np.zeros(3)
                dr[j] = h
                fd[:, j] = (dipole_field(r + dr, m) - dipole_field(r - dr, m)) / (2 * h)
            np.testing.assert_allclose(jac, fd, rtol=1e-6, atol=1e-12)

    def test_jacobian_symmetric_traceless(self, rng):
        for _ in range(25):
            r = rng.uniform(0.2, 0.8, 3)
            m = rng.uniform(-5.0, 5.0, 3)
            jac = dipole_field_jacobian(r, m)
            np.testing.assert_allclose(jac, jac.T, atol=1e-18)
            assert abs(np.trace(jac)) < 1e-14 * np.max(np.abs(jac))


class TestGradientPacking:
    def test_roundtrip(self, rng):
        for _ in range(20):
            g5 = rng.uniform(-1.0, 1.0, 5)
            full = unpack_gradient(g5)
            np.testing.assert_allclose(pack_gradient(full), g5, atol=1e-16)
            np.testing.assert_allclose(full, full.T, atol=1e-16)
            assert abs(np.trace(full)) < 1e-15

    def test_unpack_layout(self):
        full = unpack_gradient(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        expected = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, -5.0]])
        np.testing.assert_allclose(full, expected)


class TestActuationMatrix:
    def test_field_rows_linearity(self, octomag, rng):
        p = np.array([0.01, -0.02, 0.015])
        a_mat = actuation_matrix(octomag, p)
        i1 = rng.uniform(-5, 5, 8)
        i2 = rng.uniform(-5, 5, 8)
        s1, s2 = a_mat @ i1, a_mat @ i2
        s12 = actuation_matrix(octomag, p) @ (i1 + 2.0 * i2)
        np.testing.assert_allclose(s12[:3], s1[:3] + 2.0 * s2[:3], atol=1e-15)
        np.testing.assert_allclose(s12[3:], s1[3:] + 2.0 * s2[3:], atol=1e-13)

    def test_rows_match_per_coil_dipole_fields(self, octomag):
        p = np.array([0.005, 0.01, -0.02])
        a_mat = actuation_matrix(octomag, p)
        for k, coil in enumerate(octomag.coils):
            unit = np.zeros(8)
            unit[k] = 1.0
            r = p - np.asarray(coil.position)
            m = coil.moment_per_ampere * np.asarray(coil.axis)
            np.testing.assert_allclose(a_mat[:3] @ unit, dipole_field(r, m), atol=1e-18)
            np.testing.assert_allclose(
                a_mat[3:] @ unit, pack_gradient(dipole_field_jacobian(r, m)), atol=1e-16
            )

    def test_gradient_rows_match_field_finite_differences(self, octomag, rng):
        h = 1e-6
        p = np.array([0.02, -0.01, 0.005])
        currents = rng.uniform(-5, 5, 8)
        state = actuation_matrix(octomag, p) @ currents
        fd = np.zeros((3, 3))
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = h
            bp = (actuation_matrix(octomag, p + dp) @ currents)[:3]
            bm = (actuation_matrix(octomag, p - dp) @ currents)[:3]
            fd[:, j] = (bp - bm) / (2 * h)
        np.testing.assert_allclose(unpack_gradient(state[3:]), fd, rtol=1e-6, atol=1e-12)

    def test_batched_matches_single(self, octomag, rng):
        pts = rng.uniform(-0.03, 0.03, (7, 3))
        batch = actuation_matrices(octomag, pts)
        assert batch.shape == (7, 8, 8)
        for k in range(7):
            np.testing.assert_allclose(batch[k], actuation_matrix(octomag, pts[k]))

    def test_singular_at_coil_position(self, octomag):
        with pytest.raises(SingularPositionError):
            actuation_matrix(octomag, np.asarray(octomag.coils[0].position))


class TestPresets:
    def test_octomag_shape_and_rank(self, octomag):
        assert octomag.n_coils == 8
        a_mat = actuation_matrix(octomag, np.zeros(3))
        assert np.linalg.matrix_rank(a_mat, tol=1e-12) == 8
        # Coils sit below the workspace plane and aim at the center.
        for coil in octomag.coils:
            pos = np.asarray(coil.position)
            assert pos[2] < 0.0
            np.testing.assert_allclose(
                np.asarray(coil.axis), -pos / np.linalg.norm(pos), atol=1e-12
            )

    def test_octomag_calibration_65mT_costs_15A(self, octomag):
        # Tuned operating point: the stacked 65 mT (+z), zero-gradient task at
        # the center costs exactly 15 A in the infinity norm.
        a_mat = actuation_matrix(octomag, np.zeros(3))
        task = np.zeros(8)
        task[2] = 0.065
        currents = np.linalg.pinv(a_mat, rcond=1e-10) @ task
        assert abs(np.max(np.abs(currents)) - 15.0) < 1e-9
        np.testing.assert_allclose(a_mat @ currents, task, atol=1e-12)

    def test_navion_shape_and_rank(self, navion):
        assert navion.n_coils == 3
        a_mat = actuation_matrix(navion, np.array([0.0, 0.0, 0.10]))
        assert np.linalg.matrix_rank(a_mat, tol=1e-14) == 3
        for coil in navion.coils:
            assert coil.position[2] == 0.0
            np.testing.assert_allclose(np.asarray(coil.axis), [0.0, 0.0, 1.0])

    def test_navion_calibration_25mT_costs_25A(self, navion):
        # Tuned operating point: 25 mT axial field at 10 cm stand-off costs
        # exactly 25 A in the infinity norm (field rows only).
        a_b = actuation_matrix(navion, np.array([0.0, 0.0, 0.10]))[:3]
        currents = np.linalg.pinv(a_b, rcond=1e-10) @ np.array([0.0, 0.0, 0.025])
        assert abs(np.max(np.abs(currents)) - 25.0) < 1e-9

    def test_get_model_unknown_name(self):
        with pytest.raises(KeyError):
            get_model("hexapole")

    def test_coil_validation(self):
        with pytest.raises(ValueError):
            CoilSpec(position=(0.1, 0, 0), axis=(1.0, 1.0, 0.0), moment_per_ampere=1.0)
        with pytest.raises(ValueError):
            CoilSpec(position=(0.1, 0, 0), axis=(1.0, 0.0, 0.0), moment_per_ampere=0.0)
        # A NaN axis would pass the unit-length test (NaN compares false).
        for position, axis in (((math.nan, 0, 0), (1, 0, 0)),
                               ((0.1, 0, 0), (math.nan, 0, 0))):
            with pytest.raises(ValueError, match="finite"):
                CoilSpec(position=position, axis=axis, moment_per_ampere=1.0)


class TestDipoleAgent:
    @given(alpha=angles, beta=angles)
    @settings(max_examples=60, deadline=None)
    def test_rotation_matches_scipy_euler(self, alpha, beta):
        agent = DipoleAgent(p=(0, 0, 0), alpha=alpha, beta=beta, dipole_magnitude=1.0)
        oracle = ScipyRotation.from_euler("YX", [alpha, beta]).as_matrix()
        np.testing.assert_allclose(agent.rotation_t, oracle, atol=1e-12)
        np.testing.assert_allclose(agent.rotation, oracle.T, atol=1e-12)

    @given(alpha=angles, beta=angles)
    @settings(max_examples=60, deadline=None)
    def test_axis_formula(self, alpha, beta):
        agent = DipoleAgent(p=(0, 0, 0), alpha=alpha, beta=beta, dipole_magnitude=1.0)
        expected = np.array(
            [
                math.sin(alpha) * math.cos(beta),
                -math.sin(beta),
                math.cos(alpha) * math.cos(beta),
            ]
        )
        np.testing.assert_allclose(agent.axis, expected, atol=1e-12)
        assert abs(np.linalg.norm(agent.axis) - 1.0) < 1e-12
        np.testing.assert_allclose(agent.rotation_t[:, 2], expected, atol=1e-12)

    @given(
        tilts=st.lists(st.tuples(angles, angles), min_size=1, max_size=6),
        mag_pol=st.sampled_from([-0.7, 0.5, 2.0]),
        tau=st.tuples(angles, angles),
    )
    @settings(max_examples=60, deadline=None)
    def test_body_frames_match_scalar_formulas(self, tilts, mag_pol, tau):
        # The batched frames, and the quantities alloc-bench derives from
        # their columns, against DipoleAgent, torque_rows and world_torque.
        alpha, beta = np.array(tilts).T
        frames = body_frames(alpha, beta)
        assert frames.shape == (len(tilts), 3, 3)
        for frame, (a, b) in zip(frames, tilts):
            agent = DipoleAgent(
                p=(0, 0, 0), alpha=a, beta=b, dipole_magnitude=abs(mag_pol),
                polarity=1 if mag_pol > 0 else -1,
            )
            np.testing.assert_allclose(frame, agent.rotation_t, rtol=0, atol=1e-15)
            np.testing.assert_allclose(
                mag_pol * frame[:, 2], agent.moment, rtol=0, atol=1e-15
            )
            rows = torque_rows(a, b, mag_pol, 0.0)
            assert not rows[:, 3:].any()
            np.testing.assert_allclose(
                mag_pol * np.stack([-frame[:, 1], frame[:, 0]]), rows[:, :3],
                rtol=0, atol=1e-15,
            )
            np.testing.assert_allclose(
                frame[:, :2] @ np.array(tau),
                world_torque(agent, WrenchTask.planar(*tau)),
                rtol=0, atol=1e-14,
            )

    def test_skew_of_stack_is_stack_of_skews(self, rng):
        vectors = rng.normal(size=(2, 4, 3))
        stacked = skew(vectors)
        assert stacked.shape == (2, 4, 3, 3)
        for v, s in zip(vectors.reshape(-1, 3), stacked.reshape(-1, 3, 3)):
            assert np.array_equal(s, skew(v))
            np.testing.assert_allclose(s @ v, 0.0, atol=1e-15)
            assert np.array_equal(s, np.array(
                [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
            ))

    def test_moment_polarity(self):
        up = DipoleAgent(p=(0, 0, 0), alpha=0.2, beta=-0.1, dipole_magnitude=0.7)
        down = DipoleAgent(
            p=(0, 0, 0), alpha=0.2, beta=-0.1, dipole_magnitude=0.7, polarity=-1
        )
        np.testing.assert_allclose(up.moment, -down.moment, atol=1e-16)
        np.testing.assert_allclose(np.linalg.norm(up.moment), 0.7)
        np.testing.assert_allclose(up.axis, down.axis)  # geometric axis unchanged

    def test_polarity_validation(self):
        with pytest.raises(ValueError):
            DipoleAgent(p=(0, 0, 0), alpha=0.0, beta=0.0, dipole_magnitude=1.0, polarity=2)
        with pytest.raises(ValueError):
            DipoleAgent(p=(0, 0, 0), alpha=0.0, beta=0.0, dipole_magnitude=-1.0)


class TestWrenchMaps:
    def test_maps_against_first_principles(self, rng):
        for _ in range(25):
            agent = random_agent(rng)
            maps = wrench_maps(agent, magnet_offset=0.05)
            b = rng.uniform(-0.05, 0.05, 3)
            g5 = rng.uniform(-1.0, 1.0, 5)
            # Torque on a dipole: m x b.
            np.testing.assert_allclose(
                maps.m_b @ b, np.cross(agent.moment, b), atol=1e-15
            )
            # Force on a dipole: G m with G the full gradient matrix.
            np.testing.assert_allclose(
                maps.m_g @ g5, unpack_gradient(g5) @ agent.moment, atol=1e-15
            )
            # Lever arm: force applied at l_m along the geometric axis.
            f = rng.uniform(-1.0, 1.0, 3)
            np.testing.assert_allclose(
                maps.jac_tilde @ f, 0.05 * np.cross(agent.axis, f), atol=1e-15
            )
            wrench = np.concatenate([np.cross(agent.moment, b), f])
            np.testing.assert_allclose(
                maps.jac @ wrench,
                np.cross(agent.moment, b) + 0.05 * np.cross(agent.axis, f),
                atol=1e-15,
            )

    def test_stacked_block_structure(self, rng):
        agent = random_agent(rng)
        maps = wrench_maps(agent, magnet_offset=0.03)
        stacked = maps.stacked
        assert stacked.shape == (6, 8)
        np.testing.assert_allclose(stacked[:3, :3], maps.m_b)
        np.testing.assert_allclose(stacked[3:, 3:], maps.m_g)
        np.testing.assert_allclose(stacked[:3, 3:], 0.0)
        np.testing.assert_allclose(stacked[3:, :3], 0.0)

    def test_lever_arm_polarity_independent(self):
        kwargs = dict(p=(0, 0, 0), alpha=0.3, beta=-0.2, dipole_magnitude=0.5)
        plus = wrench_maps(DipoleAgent(polarity=1, **kwargs), 0.05)
        minus = wrench_maps(DipoleAgent(polarity=-1, **kwargs), 0.05)
        np.testing.assert_allclose(plus.jac_tilde, minus.jac_tilde, atol=1e-16)
        np.testing.assert_allclose(plus.m_b, -minus.m_b, atol=1e-16)


class TestTorqueMapSvd:
    def test_reconstructs_skew_and_matches_numpy(self, rng):
        for _ in range(30):
            agent = random_agent(rng)
            u, s, vt = torque_map_svd(agent)
            target = skew(agent.moment)
            np.testing.assert_allclose(u @ np.diag(s) @ vt, target, atol=1e-13)
            # Orthonormal factors.
            np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(vt @ vt.T, np.eye(3), atol=1e-12)
            # Singular values (|m|, |m|, 0), cross-checked with numpy's SVD.
            mag = agent.dipole_magnitude
            np.testing.assert_allclose(s, [mag, mag, 0.0], atol=1e-13)
            np.testing.assert_allclose(
                np.linalg.svd(target, compute_uv=False), sorted(s, reverse=True),
                rtol=1e-12, atol=1e-15,
            )

    def test_null_direction_is_dipole_axis(self, rng):
        for _ in range(30):
            agent = random_agent(rng)
            _, _, vt = torque_map_svd(agent)
            null_dir = vt[2]
            m_hat = agent.moment / agent.dipole_magnitude
            cross = np.linalg.norm(np.cross(null_dir, m_hat))
            assert cross < 1e-10
            # Fields along the moment exert no torque.
            np.testing.assert_allclose(
                skew(agent.moment) @ m_hat, np.zeros(3), atol=1e-15
            )


@given(
    alpha=angles,
    beta=angles,
    mag=st.floats(0.05, 5.0),
    polarity=st.sampled_from([-1, 1]),
)
@settings(max_examples=80, deadline=None)
def test_svd_structure_property(alpha, beta, mag, polarity):
    agent = DipoleAgent(
        p=(0, 0, 0), alpha=alpha, beta=beta, dipole_magnitude=mag, polarity=polarity
    )
    u, s, vt = torque_map_svd(agent)
    np.testing.assert_allclose(u @ np.diag(s) @ vt, skew(agent.moment), atol=1e-12 * mag)
    np.testing.assert_allclose(s / mag, [1.0, 1.0, 0.0], atol=1e-12)
