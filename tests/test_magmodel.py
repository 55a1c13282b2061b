"""Tests for the coil-array field model and dipole wrench maps.

Oracles used here, independent of the implementation:
  * dipole field  — numerical curl of the magnetic vector potential
    A(r) = (mu0 / 4 pi) (m x r) / |r|^3;
  * field Jacobian and gradient rows — central finite differences of the
    field;
  * rotation matrices — scipy's Rotation with the matching Euler convention;
  * torque-map SVD — numpy's generic SVD of skew(m), against the closed
    form in helpers.torque_map_svd;
  * pseudoinverse and rank — numpy's SVD pseudoinverse
    ``np.linalg.pinv(rcond=RANK_RTOL)`` and the singular values it cuts.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation as ScipyRotation

from helpers import (
    Pose,
    dipole_field,
    dipole_field_jacobian,
    pack_gradient,
    random_agent,
    skew,
    torque_map_svd,
    unpack_gradient,
    world_torque,
    wrench_maps,
)

from emnav import magmodel
from emnav.magmodel import (
    GRAM_COND_BOUND,
    RANK_RTOL,
    CoilSpec,
    SingularPositionError,
    actuation_matrices,
    actuation_matrix,
    body_frames,
    get_model,
    pinv_rank,
    torque_rows,
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
    """The pivoted dipole's frames (``body_frames``) and torque rows."""

    @given(alpha=angles, beta=angles)
    @settings(max_examples=60, deadline=None)
    def test_rotation_matches_scipy_euler(self, alpha, beta):
        oracle = ScipyRotation.from_euler("YX", [alpha, beta]).as_matrix()
        np.testing.assert_allclose(body_frames(alpha, beta)[0], oracle, atol=1e-12)

    @given(alpha=angles, beta=angles)
    @settings(max_examples=60, deadline=None)
    def test_axis_formula(self, alpha, beta):
        axis = body_frames(alpha, beta)[0, :, 2]
        expected = np.array(
            [
                math.sin(alpha) * math.cos(beta),
                -math.sin(beta),
                math.cos(alpha) * math.cos(beta),
            ]
        )
        np.testing.assert_allclose(axis, expected, atol=1e-12)
        assert abs(np.linalg.norm(axis) - 1.0) < 1e-12
        np.testing.assert_allclose(Pose((0, 0, 0), alpha, beta, 1.0).axis, expected,
                                   atol=1e-12)

    @given(
        tilts=st.lists(st.tuples(angles, angles), min_size=1, max_size=6),
        mag_pol=st.sampled_from([-0.7, 0.5, 2.0]),
        tau=st.tuples(angles, angles),
    )
    @settings(max_examples=60, deadline=None)
    def test_body_frames_match_scalar_formulas(self, tilts, mag_pol, tau):
        # The batched frames, and the quantities alloc-bench derives from
        # their columns, against scipy's rotation, torque_rows and world_torque.
        alpha, beta = np.array(tilts).T
        frames = body_frames(alpha, beta)
        assert frames.shape == (len(tilts), 3, 3)
        for frame, (a, b) in zip(frames, tilts):
            agent = Pose((0, 0, 0), a, b, mag_pol)
            np.testing.assert_allclose(frame, agent.frame, rtol=0, atol=1e-15)
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
                world_torque(agent, tau),
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
        # Reversing the polarity reverses the moment and every torque row,
        # the lever-arm columns too; the rows' field columns have norm |m|.
        up = torque_rows(0.2, -0.1, 0.7, 0.05)
        down = torque_rows(0.2, -0.1, -0.7, 0.05)
        np.testing.assert_allclose(up, -down, atol=1e-16)
        np.testing.assert_allclose(np.linalg.norm(up[:, :3], axis=1), 0.7)


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
        plus = wrench_maps(Pose((0, 0, 0), 0.3, -0.2, 0.5), 0.05)
        minus = wrench_maps(Pose((0, 0, 0), 0.3, -0.2, -0.5), 0.05)
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
            mag = abs(agent.mag_pol)
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
            m_hat = agent.moment / abs(agent.mag_pol)
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
    agent = Pose((0, 0, 0), alpha, beta, polarity * mag)
    u, s, vt = torque_map_svd(agent)
    np.testing.assert_allclose(u @ np.diag(s) @ vt, skew(agent.moment), atol=1e-12 * mag)
    np.testing.assert_allclose(s / mag, [1.0, 1.0, 0.0], atol=1e-12)


# ``pinv_rank``: the certified normal-equations pseudoinverse (a square
# stack's inverse), with the SVD (``magmodel._pinv_rank_svd``) behind every
# entry it does not certify.

_EPS = np.finfo(float).eps


def _assert_matches_svd_oracle(stack, pinv, rank):
    """Each entry's rank is the count of singular values above RANK_RTOL of
    the largest, and its pseudoinverse is numpy's within 32 k u cond, with
    cond over the singular values kept (the largest seen on 18,000 drawn
    entries was 8.3 k u cond)."""
    for entry, got, got_rank in zip(stack, pinv, rank):
        sigma = np.linalg.svd(entry, compute_uv=False)
        kept = sigma[sigma > RANK_RTOL * sigma[0]]
        assert got_rank == kept.size
        oracle = np.linalg.pinv(entry, rcond=RANK_RTOL)
        bound = 32 * entry.shape[0] * _EPS * kept[0] / kept[-1]
        assert np.linalg.norm(got - oracle) <= bound * np.linalg.norm(oracle)


def _floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_subnormal=False)


@st.composite
def _row_stack(draw):
    """A stack of task maps W A(p) over one to six points, as the workspace
    and alloc-bench blocks form them: on octomag8 the (tau_x, tau_y) rows of
    one agent (2 x 8) or of two, the second agent's rows stacked under every
    point (4 x 8), the field rows of one or two agents (3 x 8, 6 x 8) or all
    eight [b; g] rows; on navion3 the field rows (3 x 3)."""
    kind = draw(st.sampled_from(
        ("torque", "torque2", "field", "field2", "all", "navion")))
    model = get_model("navion3" if kind == "navion" else "octomag8")
    z_range = (0.05, 0.15) if kind == "navion" else (-0.04, 0.04)

    def point():
        return [draw(_floats(-0.04, 0.04)), draw(_floats(-0.04, 0.04)),
                draw(_floats(*z_range))]

    if kind.startswith("torque"):
        tilts = draw(_floats(-0.6, 0.6)), draw(_floats(-0.6, 0.6))
        mag_pol = draw(_floats(0.2, 2.0)) * draw(st.sampled_from((1, -1)))
        rows = torque_rows(*tilts, mag_pol, draw(st.sampled_from((0.0, 0.02))))
    else:
        rows = np.eye(8)[: 8 if kind == "all" else 3]
    points = np.array([point() for _ in range(draw(st.integers(1, 6)))])
    stack = rows @ actuation_matrices(model, points)
    if kind.endswith("2"):
        other = rows @ actuation_matrix(model, np.array(point()))
        stack = np.concatenate([stack, np.broadcast_to(other, stack.shape)], axis=1)
    return stack


@settings(max_examples=300, deadline=None)
@given(stack=_row_stack())
def test_pinv_rank_matches_svd_oracle(stack):
    _assert_matches_svd_oracle(stack, *pinv_rank(stack))


def _conditioned(rng, spectrum, cols: int = 8) -> np.ndarray:
    """A len(spectrum) x cols map with the given singular values."""
    def orthonormal(rows, n):
        return np.linalg.qr(rng.normal(size=(rows, n)))[0]

    k = len(spectrum)
    return (orthonormal(k, k) * np.asarray(spectrum)) @ orthonormal(cols, k).T


@st.composite
def _two_row_stack(draw):
    """A stack of one to six 2 x n maps, n = 3 or 8, as the torque-box and
    one-step solves hand ``pinv_rank``: full rank with a singular-value
    ratio from 1 down past ``RANK_RTOL`` (so near-singular on either side of
    it), or exactly rank 1 (the second row a multiple of the first, zero
    included), each scaled by 1e-6 to 1e6."""
    n = draw(st.sampled_from((3, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            ratio = 10.0 ** draw(_floats(-14.0, 0.0))
            entry = _conditioned(rng, (1.0, ratio), n)
        else:
            row = rng.normal(size=n)
            multiple = draw(st.one_of(st.just(0.0), _floats(-2.0, 2.0)))
            entry = np.stack([row, multiple * row])
        entries.append(10.0 ** draw(_floats(-6.0, 6.0)) * entry)
    return np.stack(entries)


@settings(max_examples=300, deadline=None)
@given(stack=_two_row_stack())
def test_pinv_rank_two_rows_match_svd(stack):
    # The closed-form 2 x 2 Gram inverse keeps every verdict the SVD's: the
    # rank and pseudoinverse of numpy's pinv, and the SVD fallback's result
    # bit for bit at every rank-1 entry; no product warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pinv, rank = pinv_rank(stack)
        svd_pinv, svd_rank = magmodel._pinv_rank_svd(stack)
    np.testing.assert_array_equal(rank, svd_rank)
    _assert_matches_svd_oracle(stack, pinv, rank)
    np.testing.assert_array_equal(pinv[rank < 2], svd_pinv[rank < 2])


@pytest.fixture
def svd_calls(monkeypatch):
    """The stacks ``pinv_rank`` hands to its SVD fallback, in call order."""
    calls = []

    def counted(stack):
        calls.append(stack.copy())
        return svd(stack)

    svd = magmodel._pinv_rank_svd
    monkeypatch.setattr(magmodel, "_pinv_rank_svd", counted)
    return calls


@pytest.mark.parametrize("rows,cols", [(2, 8), (4, 8), (2, 2), (4, 4)],
                         ids=["2", "4", "2x2", "4x4"])
@pytest.mark.parametrize("ratio", [1e-3, 1e-6, 1e-9, 1e-11])
def test_pinv_rank_keeps_svd_rank(svd_calls, rows, cols, ratio):
    # cond^2 1e6 is certified; 1e12 and more (on either side of RANK_RTOL)
    # falls back to the SVD, whose rank verdict and pseudoinverse stand.
    # A square map takes its inverse, not the Gram matrix's: the same
    # verdicts.
    rng = np.random.default_rng(int(-math.log10(ratio)))
    spectrum = np.linspace(1.0, 0.5, rows)
    spectrum[-1] = ratio
    stack = _conditioned(rng, spectrum, cols)[None]
    pinv, rank = pinv_rank(stack)
    assert rank[0] == (rows if ratio > RANK_RTOL else rows - 1)
    _assert_matches_svd_oracle(stack, pinv, rank)
    if ratio == 1e-3:
        assert svd_calls == []
    else:
        assert len(svd_calls) == 1
        np.testing.assert_array_equal(pinv, magmodel._pinv_rank_svd(stack)[0])


def test_pinv_rank_certifies_square_maps_without_svd(
    svd_calls, monkeypatch, octomag, navion
):
    # One agent's 8 x 8 [b; g] rows on octomag8 (the fixed-field task of
    # the cube and of the field allocator) and navion3's 3 x 3 field rows
    # A_b on the stand-off axis are well conditioned: S^-1, inverted from
    # the stack itself (no Gram matrix S S^T), and its Newton step are
    # certified, and match the SVD's pseudoinverse.
    inverted = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
    cube = actuation_matrices(octomag, np.array(
        [[0.0, 0.0, 0.0], [0.02, -0.01, 0.03], [-0.04, 0.04, -0.04]]))
    standoff = actuation_matrices(navion, np.array(
        [[0.0, 0.0, z] for z in (0.105, 0.15, 0.25)]))[:, :3]
    for stack in (cube, standoff):
        inverted.clear()
        pinv, rank = pinv_rank(stack)
        assert len(inverted) == 1 and np.array_equal(inverted[0], stack)
        assert rank.tolist() == [stack.shape[1]] * 3
        _assert_matches_svd_oracle(stack, pinv, rank)
    assert svd_calls == []


def test_pinv_rank_falls_back_whole_block_when_square_inv_raises(svd_calls, octomag):
    # A repeated row makes one 8 x 8 entry singular, and LU meets an exactly
    # zero pivot (other repeated rows of this entry leave a rounding pivot;
    # those entries fail the certificate and go to the SVD alone): the
    # batched inv raises and the SVD takes the whole block, rank 7 at that
    # entry.
    points = np.array([[0.01 * k, 0.0, 0.0] for k in range(4)])
    stack = actuation_matrices(octomag, points)
    stack[2, 7] = stack[2, 5]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(stack)
    pinv, rank = pinv_rank(stack)
    assert rank.tolist() == [8, 8, 7, 8]
    assert len(svd_calls) == 1
    np.testing.assert_array_equal(svd_calls[0], stack)
    _assert_matches_svd_oracle(stack, pinv, rank)


def test_pinv_rank_does_not_certify_rank_two_torque_map(svd_calls):
    # The pivot-torque map [b; g] -> tau is 3 x 8 of rank 2 (no torque along
    # the dipole axis); rounding leaves sigma_3 ~ 3e-17.  inv(G) does not
    # raise, and trace(G) trace(G^-1) (negative: a negative rounding pivot)
    # and ||S||_F ||P0||_F alone would both pass the bound; the residual
    # ||I - S P0||_F is what fails.
    maps = wrench_maps(Pose((0.01, -0.02, 0.03), 0.3, -0.2, 1.0), 0.02)
    jm = maps.jac @ maps.stacked
    gram_inv = np.linalg.inv(jm @ jm.T)
    p0 = jm.T @ gram_inv
    assert np.trace(jm @ jm.T) * np.trace(gram_inv) <= GRAM_COND_BOUND
    assert np.sum(jm**2) * np.sum(p0**2) <= GRAM_COND_BOUND
    assert np.linalg.norm(np.eye(3) - jm @ p0) > 0.5
    pinv, rank = pinv_rank(jm)
    assert rank == 2 and len(svd_calls) == 1
    np.testing.assert_array_equal(pinv, magmodel._pinv_rank_svd(jm)[0])


def test_pinv_rank_mixed_block_sends_only_uncertified_entries(svd_calls):
    # Certified entries between a rank-1 one (sigma ratio 1e-12, below
    # RANK_RTOL) and a full-rank one too ill-conditioned to certify (1e-6).
    rng = np.random.default_rng(5)
    spectra = [(1.0, 0.5), (1.0, 1e-12), (1.0, 0.7), (1.0, 1e-6)]
    stack = np.stack([_conditioned(rng, spectrum) for spectrum in spectra])
    pinv, rank = pinv_rank(stack)
    assert rank.tolist() == [2, 1, 2, 2]
    assert len(svd_calls) == 1
    np.testing.assert_array_equal(svd_calls[0], stack[[1, 3]])
    _assert_matches_svd_oracle(stack, pinv, rank)


def test_pinv_rank_falls_back_whole_block_when_inv_raises(svd_calls, octomag):
    # A two-agent block whose second agent sits on one of the points: that
    # entry stacks the same rows twice, its Gram matrix is exactly singular,
    # the batched inv raises and the SVD takes the whole block.
    rows = torque_rows(0.1, -0.2, 2.0, 0.02)
    points = np.array([[0.03, y, 0.0] for y in (-0.02, -0.01, 0.0, 0.01)])
    stack = rows @ actuation_matrices(octomag, points)
    other = rows @ actuation_matrix(octomag, points[2])
    stack = np.concatenate([stack, np.broadcast_to(other, stack.shape)], axis=1)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(stack @ np.swapaxes(stack, 1, 2))
    pinv, rank = pinv_rank(stack)
    assert rank.tolist() == [4, 4, 2, 4]
    assert len(svd_calls) == 1
    np.testing.assert_array_equal(svd_calls[0], stack)
    _assert_matches_svd_oracle(stack, pinv, rank)


def test_pinv_rank_nan_entry_raises(octomag):
    # Wide (3 x 8, Gram matrix) and square (8 x 8, inverse) stacks.
    points = np.array([[0.01, 0.0, 0.0], [0.0, 0.02, 0.0]])
    for rows in (3, 8):
        stack = actuation_matrices(octomag, points)[:, :rows]
        stack[1, 0, 0] = math.nan
        with pytest.raises(np.linalg.LinAlgError):
            pinv_rank(stack)


def test_pinv_rank_overflowing_gram_warns_nothing(svd_calls):
    # (1e160)^2 overflows the Gram matrix: inv returns non-finite entries
    # without raising, the certificate fails on them, and the SVD's result
    # stands, bit for bit, with no RuntimeWarning from the products.
    stack = np.array([[1e160, 0.0, 1.0], [0.0, 1e160, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pinv, rank = pinv_rank(stack)
    assert len(svd_calls) == 1
    svd_pinv, svd_rank = magmodel._pinv_rank_svd(stack)
    assert rank == svd_rank == 2 and pinv.tobytes() == svd_pinv.tobytes()


def test_pinv_rank_tall_stack_takes_svd(svd_calls, navion):
    # Two agents' torque rows on three coils: 4 x 3, at most rank 3.
    rows = torque_rows(0.0, 0.0, 2.0, 0.02)
    points = np.array([[0.0, 0.0, z] for z in (0.1, 0.12, 0.14)])
    stack = rows @ actuation_matrices(navion, points)
    other = rows @ actuation_matrix(navion, np.array([0.0, 0.0, 0.2]))
    stack = np.concatenate([stack, np.broadcast_to(other, stack.shape)], axis=1)
    pinv, rank = pinv_rank(stack)
    assert [call.shape for call in svd_calls] == [(3, 4, 3)]
    assert np.all(rank <= 3)
    _assert_matches_svd_oracle(stack, pinv, rank)
