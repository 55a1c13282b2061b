"""Feasibility-margin workspace tests: point evaluations, grid maps,
two-agent stacking, and export formats."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    Pose,
    composed_torque_map,
    margin_at,
    one_map,
    torque_box_vertex_worst,
)

from emnav import magmodel, workspace
from emnav.cli import main
from emnav.dynamics import PendulumParams
from emnav.magmodel import (
    BLOCK,
    RANK_RTOL,
    ActuationModel,
    CoilSpec,
    actuation_matrix,
    get_model,
)
from emnav.workspace import (
    MAX_GRID_POINTS,
    NEAR_CONTACT_DISTANCE,
    FeasibilityMap,
    GridSpec,
    TaskSet,
    _worst_currents,
    max_feasible_standoff,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SLED = PendulumParams(dipole_magnitude=2.0, magnet_offset=0.02)
BOX = TaskSet("torque-box", tau_bar=0.002)
# A single coil below the origin: rank 1 everywhere.
ONE_COIL = ActuationModel(
    "one", (CoilSpec((0.0, 0.0, -0.2), (0.0, 0.0, 1.0), 50.0),)
)


@pytest.fixture(scope="module")
def octomag():
    return get_model("octomag8")


@pytest.fixture(scope="module")
def navion():
    return get_model("navion3")


@pytest.fixture(scope="module")
def two_agent_maps(octomag):
    grid = GridSpec(x=(0.01, 0.09), y=(-0.04, 0.04), z=(0.0, 0.0), spacing=0.005)
    second = (-0.0325, 0.0, 0.0)
    torque = one_map(
        octomag, TaskSet("torque-box", tau_bar=0.002), grid, 16.0,
        params=SLED, second_agent=second,
    )
    fieldm = one_map(
        octomag, TaskSet("fixed-field", field_magnitude=0.025), grid, 16.0,
        params=SLED, second_agent=second,
    )
    return torque, fieldm


class TestTaskSet:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            TaskSet("force-box", tau_bar=1.0)

    def test_torque_needs_positive_bound(self):
        with pytest.raises(ValueError):
            TaskSet("torque-box", tau_bar=0.0)

    def test_field_needs_positive_magnitude(self):
        with pytest.raises(ValueError):
            TaskSet("fixed-field", field_magnitude=0.0)

    def test_describe(self):
        assert TaskSet("torque-box", tau_bar=0.01).describe() == {
            "kind": "torque-box", "tau_bar": 0.01,
        }


class TestGridSpec:
    def test_spacing_positive(self):
        with pytest.raises(ValueError):
            GridSpec(x=(0, 1), y=(0, 1), z=(0, 1), spacing=0.0)

    def test_lattice_counts(self):
        grid = GridSpec(x=(0.0, 0.01), y=(-0.01, 0.01), z=(0.0, 0.0), spacing=0.005)
        pos = grid.positions()
        assert pos.shape == (3 * 5 * 1, 3)
        np.testing.assert_allclose(grid.axis_values("x"), [0.0, 0.005, 0.01])
        assert np.all(pos[:, 2] == 0.0)

    def test_degenerate_axes_give_single_point(self):
        grid = GridSpec(x=(0.02, 0.02), y=(0.0, 0.0), z=(0.1, 0.1), spacing=0.002)
        pos = grid.positions()
        assert pos.shape == (1, 3)
        np.testing.assert_array_equal(pos[0], [0.02, 0.0, 0.1])

    def test_reversed_interval_is_empty(self):
        grid = GridSpec(x=(0.01, -0.01), y=(0.0, 0.0), z=(0.0, 0.0), spacing=0.002)
        assert grid.positions().shape == (0, 3)

    def test_point_cap_checked_from_axis_counts(self):
        # 1e6 + 1 points on one axis, and 1e18 over three; neither is built.
        side = float(MAX_GRID_POINTS)
        GridSpec(x=(0.0, side - 1.0), y=(0.0, 0.0), z=(0.0, 0.0), spacing=1.0)
        with pytest.raises(ValueError, match="points"):
            GridSpec(x=(0.0, side), y=(0.0, 0.0), z=(0.0, 0.0), spacing=1.0)
        with pytest.raises(ValueError, match="points"):
            GridSpec(x=(0.0, 1e6), y=(0.0, 1e6), z=(0.0, 1e6), spacing=1.0)
        with pytest.raises(ValueError, match="points"):
            GridSpec(x=(-1e308, 1e308), y=(0.0, 0.0), z=(0.0, 0.0), spacing=1e-3)


class TestTorqueMargin:
    def test_center_feasible(self, octomag):
        fm = margin_at(octomag, (0.0, 0.0, 0.0), BOX, 16.0, params=SLED)
        assert 0.0 < fm <= 16.0

    def test_tight_limit_infeasible(self, octomag):
        fm = margin_at(octomag, (0.0, 0.0, 0.0), BOX, 0.01, params=SLED)
        assert fm < 0.0

    def test_margin_affine_in_limit(self, octomag):
        fm1 = margin_at(octomag, (0.01, 0.02, 0.0), BOX, 16.0, params=SLED)
        fm2 = margin_at(octomag, (0.01, 0.02, 0.0), BOX, 32.0, params=SLED)
        assert fm2 - fm1 == pytest.approx(16.0, abs=1e-12)

    def test_rank_deficient_gives_minus_inf(self):
        one_coil = ONE_COIL
        fm = margin_at(
            one_coil, (0.0, 0.0, 0.0), TaskSet("torque-box", tau_bar=0.001), 16.0,
            params=SLED,
        )
        assert fm == -math.inf

    def test_vertex_maximum_dominates_box_interior(self, octomag):
        # The worst-case current over the torque box is attained at a vertex
        # (linear map, convex norm); random interior tasks never exceed it.
        agent = Pose((0.02, -0.01, 0.01), 0.0, 0.0, 2.0)
        a_mat = actuation_matrix(octomag, agent.p)
        body_map = composed_torque_map(a_mat, agent, SLED)[:2]
        pinv = np.linalg.pinv(body_map, rcond=1e-10)
        tau_bar = 0.002
        vertex_max = max(
            float(np.max(np.abs(pinv @ np.array([sx * tau_bar, sy * tau_bar]))))
            for sx in (-1.0, 1.0)
            for sy in (-1.0, 1.0)
        )
        rng = np.random.default_rng(0)
        samples = rng.uniform(-tau_bar, tau_bar, size=(1000, 2))
        sample_max = float(np.max(np.abs(samples @ pinv.T)))
        assert sample_max <= vertex_max + 1e-12

    def test_orientation_changes_margin_smoothly(self, octomag):
        fm0 = margin_at(octomag, (0.0, 0.0, 0.0), BOX, 16.0, params=SLED)
        fm1 = margin_at(
            octomag, (0.0, 0.0, 0.0), BOX, 16.0, params=SLED,
            orientation=(0.05, -0.03),
        )
        assert fm1 == pytest.approx(fm0, rel=0.05)
        assert fm1 != fm0


def field_task(magnitude: float) -> TaskSet:
    return TaskSet("fixed-field", field_magnitude=magnitude)


class TestFieldMargin:
    def test_zero_field_margin_is_limit(self, octomag):
        # TaskSet rejects a zero field, so this asks the margin kernel itself.
        (worst,) = _worst_currents(
            octomag, [("fixed-field", 0.0)], np.zeros((1, 3)), None, (0.0, 0.0),
            None,
        )
        assert 16.0 - float(worst[0]) == 16.0

    def test_preset_calibration_center(self, octomag):
        # The 8-coil preset is tuned so ~15 A holds 65 mT at the center.
        fm = margin_at(octomag, (0.0, 0.0, 0.0), field_task(0.065), 16.0)
        assert fm == pytest.approx(1.0, abs=1e-9)

    def test_preset_calibration_navion(self, navion):
        fm = margin_at(navion, (0.0, 0.0, 0.1), field_task(0.025), 25.0)
        assert fm == pytest.approx(0.0, abs=1e-9)

    def test_scale_covariance(self, navion):
        p = (0.0, 0.0, 0.13)
        limit = 25.0
        fm1 = margin_at(navion, p, field_task(0.025), limit)
        for c in (0.5, 2.0, 3.7):
            fmc = margin_at(navion, p, field_task(c * 0.025), limit)
            assert fmc == pytest.approx(limit - c * (limit - fm1), abs=1e-12)

    def test_monotone_decay_along_standoff_axis(self, navion):
        zs = np.arange(0.12, 0.5, 0.02)
        fms = [margin_at(navion, (0.0, 0.0, z), field_task(0.025), 25.0) for z in zs]
        assert all(a > b for a, b in zip(fms, fms[1:]))


class TestWorkspaceMap:
    def test_empty_grid_empty_map(self, octomag):
        grid = GridSpec(x=(0.01, -0.01), y=(0.0, 0.0), z=(0.0, 0.0), spacing=0.002)
        fmap = one_map(
            octomag, TaskSet("fixed-field", field_magnitude=0.025), grid, 16.0
        )
        assert fmap.positions.shape == (0, 3)
        assert fmap.fm.shape == (0,)
        assert fmap.feasible_count == 0

    def test_tasks_in_one_call_match_one_task_calls(self, octomag, two_agent_maps):
        grid = GridSpec(x=(0.01, 0.09), y=(-0.04, 0.04), z=(0.0, 0.0), spacing=0.005)
        tasks = [TaskSet("fixed-field", field_magnitude=0.025),
                 TaskSet("torque-box", tau_bar=0.002)]
        fieldm, torque = workspace.workspace_map(
            octomag, tasks, grid, 16.0, params=SLED, second_agent=(-0.0325, 0.0, 0.0)
        )
        for joint, alone in zip((torque, fieldm), two_agent_maps):
            assert joint.fm.tobytes() == alone.fm.tobytes()
            assert joint.flags == alone.flags and joint.metadata == alone.metadata

    def test_margin_never_exceeds_limit(self, two_agent_maps):
        torque, fieldm = two_agent_maps
        assert np.all(torque.fm <= 16.0)
        assert np.all(fieldm.fm <= 16.0)

    def test_two_agent_reference_counts(self, two_agent_maps):
        torque, fieldm = two_agent_maps
        assert torque.positions.shape[0] == 17 * 17
        assert torque.feasible_count == 289
        assert fieldm.feasible_count == 272

    def test_torque_map_contains_field_map(self, two_agent_maps):
        torque, fieldm = two_agent_maps
        assert np.all(~fieldm.feasible | torque.feasible)

    def test_two_agent_worst_current_demand(self, two_agent_maps):
        torque, _ = two_agent_maps
        worst = 16.0 - float(np.min(torque.fm))
        assert worst == pytest.approx(10.757489546, abs=1e-6)

    def test_mirror_symmetry(self, two_agent_maps):
        # The coil array and the fixed second agent are symmetric under
        # y -> -y, so mirrored grid points carry equal margins.
        for fmap in two_agent_maps:
            pos = fmap.positions
            order = np.lexsort((pos[:, 0], pos[:, 1]))
            mirror = np.lexsort((pos[:, 0], -pos[:, 1]))
            np.testing.assert_allclose(
                fmap.fm[order], fmap.fm[mirror], rtol=0.0, atol=1e-9
            )

    def test_near_contact_flagging(self, octomag):
        grid = GridSpec(x=(-0.04, -0.02), y=(0.0, 0.0), z=(0.0, 0.0), spacing=0.005)
        fmap = one_map(
            octomag, TaskSet("fixed-field", field_magnitude=0.025), grid, 16.0,
            second_agent=(-0.0325, 0.0, 0.0),
        )
        assert fmap.flags == (
            "near-contact", "near-contact", "near-contact", "near-contact", ""
        )

    def test_singular_points_flagged_infeasible(self):
        one_coil = ONE_COIL
        grid = GridSpec(x=(0.0, 0.0), y=(0.0, 0.0), z=(0.0, 0.0), spacing=0.01)
        fmap = one_map(
            one_coil, TaskSet("torque-box", tau_bar=0.001), grid, 16.0, params=SLED
        )
        assert fmap.fm[0] == -math.inf
        assert fmap.flags[0] == "singular"
        assert not fmap.feasible[0]

    @pytest.mark.parametrize("kind", ["torque-box", "fixed-field"])
    def test_more_task_rows_than_coils_is_singular(self, navion, kind):
        # Two agents stack 4 torque rows or 6 field rows over navion3's 3
        # coils: no point can realize the torque box or the two fields,
        # though the stack has 3 nonzero singular values.  A rank test on
        # those 3 alone reads margins of 14-18 A here, all "feasible".
        grid = GridSpec(x=(0.0, 0.0), y=(0.0, 0.0), z=(0.10, 0.14), spacing=0.01)
        fmap = one_map(
            navion, TaskSet(kind, tau_bar=0.001, field_magnitude=0.01), grid,
            25.0, params=SLED, second_agent=(0.03, 0.0, 0.12),
        )
        assert fmap.positions.shape[0] == 5
        assert np.all(fmap.fm == -math.inf)
        assert fmap.flags == ("singular",) * 5
        assert fmap.feasible_count == 0

    def test_rank_deficient_field_rows_reaching_the_target_are_feasible(self):
        # One coil has field rows of rank 1.  On its axis the field is along
        # z, so the target B e_z is reached; off the axis it is not.
        one_coil = ONE_COIL
        grid = GridSpec(x=(0.0, 0.05), y=(0.0, 0.0), z=(0.0, 0.0), spacing=0.05)
        fmap = one_map(
            one_coil, TaskSet("fixed-field", field_magnitude=0.001), grid, 16.0
        )
        b_per_amp = actuation_matrix(one_coil, np.zeros(3))[2, 0]
        assert fmap.fm[0] == pytest.approx(16.0 - 0.001 / b_per_amp, rel=1e-12)
        assert fmap.flags == ("", "singular")
        assert fmap.fm[1] == -math.inf

    def test_torque_map_requires_params(self, octomag):
        grid = GridSpec(x=(0.0, 0.0), y=(0.0, 0.0), z=(0.0, 0.0), spacing=0.01)
        with pytest.raises(ValueError, match="params"):
            one_map(octomag, TaskSet("torque-box", tau_bar=0.001), grid, 16.0)

    @pytest.mark.parametrize("kind", ["torque-box", "fixed-field"])
    @pytest.mark.parametrize("second", [None, (-0.0325, 0.0, 0.0)])
    def test_batched_map_matches_per_point_oracle(self, octomag, kind, second):
        # 27 x 19 = 2 * 256 + 1 points, so the map crosses block boundaries.
        grid = GridSpec(
            x=(-0.05, -0.05 + 26 * 0.004), y=(-0.036, 0.036), z=(0.003, 0.003),
            spacing=0.004,
        )
        assert grid.positions().shape[0] == 2 * 256 + 1
        task = TaskSet(kind, tau_bar=0.002, field_magnitude=0.025)
        fmap = one_map(
            octomag, task, grid, 16.0, params=SLED, second_agent=second
        )
        agents = [] if second is None else [second]
        expected, flags = [], []
        for pos in fmap.positions:
            points = [tuple(pos)] + agents
            if kind == "torque-box":
                rows = np.vstack([
                    composed_torque_map(
                        actuation_matrix(octomag, q),
                        Pose(q, 0.0, 0.0, 2.0),
                        SLED,
                    )[:2]
                    for q in points
                ])
                pinv = np.linalg.pinv(rows, rcond=RANK_RTOL)
                worst = torque_box_vertex_worst(pinv, 0.002)
            else:
                n_rows = 8 if second is None else 3
                rows = np.vstack(
                    [actuation_matrix(octomag, q)[:n_rows] for q in points]
                )
                target = np.tile(np.eye(n_rows)[2] * 0.025, len(points))
                worst = np.max(np.abs(np.linalg.pinv(rows, rcond=RANK_RTOL) @ target))
            expected.append(16.0 - worst)
            near = second is not None and (
                np.linalg.norm(pos - np.asarray(second)) < NEAR_CONTACT_DISTANCE
            )
            flags.append("near-contact" if near else "")
        np.testing.assert_allclose(fmap.fm, expected, rtol=0.0, atol=1e-12)
        assert fmap.flags == tuple(flags)
        assert ("near-contact" in flags) == (second is not None)

    def test_closed_form_matches_vertex_enumeration(self, octomag):
        # 150 one-agent and 150 two-agent random body maps: the induced
        # infinity norm equals the maximum over the 4 or 16 box vertices.
        # The oracle forms the map in another order, so the two differ by
        # rounding that grows with the demand: the bound is 1e-12 A per
        # 16 A (the current limit) of worst-case demand.
        rng = np.random.default_rng(7)
        for k in range(300):
            p = tuple(rng.uniform(-0.04, 0.04, 3))
            second = tuple(rng.uniform(-0.04, 0.04, 3)) if k % 2 else None
            orientation = tuple(rng.uniform(-0.6, 0.6, 2))
            params = PendulumParams(
                dipole_magnitude=float(rng.uniform(0.2, 2.0)),
                magnet_offset=float(rng.uniform(0.01, 0.05)),
            )
            tau_bar = float(rng.uniform(1e-4, 5e-3))
            rows = np.vstack([
                (
                    agent.frame.T
                    @ composed_torque_map(
                        actuation_matrix(octomag, agent.p), agent, params
                    )
                )[:2]
                for agent in (
                    Pose(q, *orientation, params.dipole_magnitude)
                    for q in [p] + ([] if second is None else [second])
                )
            ])
            oracle = torque_box_vertex_worst(
                np.linalg.pinv(rows, rcond=RANK_RTOL), tau_bar
            )
            grid = GridSpec(x=(p[0], p[0]), y=(p[1], p[1]), z=(p[2], p[2]))
            fmap = one_map(
                octomag, TaskSet("torque-box", tau_bar=tau_bar), grid, 16.0,
                params=params, orientation=orientation, second_agent=second,
            )
            bound = 1e-12 * max(1.0, oracle / 16.0)
            assert abs((16.0 - fmap.fm[0]) - oracle) <= bound

    def test_navion_standoff_ordering(self, navion):
        grid = GridSpec(x=(0.0, 0.0), y=(0.0, 0.0), z=(0.105, 0.25), spacing=0.005)
        torque = one_map(
            navion, TaskSet("torque-box", tau_bar=0.01), grid, 25.0, params=SLED
        )
        fieldm = one_map(
            navion, TaskSet("fixed-field", field_magnitude=0.025), grid, 25.0
        )
        st = max_feasible_standoff(torque)
        sf = max_feasible_standoff(fieldm)
        assert st == pytest.approx(0.145, abs=1e-12)
        assert sf == pytest.approx(0.110, abs=1e-12)
        assert st > sf

    def test_standoff_none_when_infeasible(self, navion):
        grid = GridSpec(x=(0.0, 0.0), y=(0.0, 0.0), z=(0.4, 0.5), spacing=0.05)
        fmap = one_map(
            navion, TaskSet("fixed-field", field_magnitude=0.025), grid, 25.0
        )
        assert fmap.feasible_count == 0
        assert max_feasible_standoff(fmap) is None


@pytest.mark.parametrize("kind", ["torque-box", "fixed-field"])
def test_overflow_raises_naming_the_first_point(navion, kind):
    # Each task's worst current grows along the stand-off line.  A task size
    # between the overflow thresholds of points 9 and 10 overflows from
    # point 10 on: an error naming point 10, not full-rank points read as
    # "singular".  The map silences numpy's overflow warnings itself, so
    # the error is the first thing a caller sees, warnings as errors or not.
    grid = GridSpec(x=(0.0, 0.0), y=(0.0, 0.0), z=(0.105, 0.25), spacing=0.005)
    unit = one_map(navion, TaskSet(kind, tau_bar=1.0, field_magnitude=1.0),
                   grid, 25.0, params=SLED)
    demand = 25.0 - unit.fm
    assert unit.flags == ("",) * 30 and demand[10] > 1.01 * demand[9]
    size = np.finfo(float).max / math.sqrt(demand[9] * demand[10])
    huge = TaskSet(kind, tau_bar=size, field_magnitude=size)
    match = f"^the {kind} task's currents overflow at grid point 10$"
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=match):
            one_map(navion, huge, grid, 25.0, params=SLED)


@pytest.mark.parametrize("config,points,others", [
    ("workspace_octomag_2agent", 289, 1), ("workspace_navion_standoff", 30, 0),
])
def test_one_a_of_p_per_block_for_every_task(monkeypatch, tmp_path, config,
                                             points, others):
    # One `emnav workspace` run of both tasks evaluates each block's A(p)
    # once, and a second agent's A once.
    calls = {"actuation_matrices": [], "actuation_matrix": 0}
    many, one = workspace.actuation_matrices, workspace.actuation_matrix

    def counting_many(model, positions):
        calls["actuation_matrices"].append(len(positions))
        return many(model, positions)

    def counting_one(model, position):
        calls["actuation_matrix"] += 1
        return one(model, position)

    monkeypatch.setattr(workspace, "actuation_matrices", counting_many)
    monkeypatch.setattr(workspace, "actuation_matrix", counting_one)
    path = SCENARIO_DIR / f"{config}.json"
    assert set(json.loads(path.read_text())["tasks"]) == {"torque-box", "fixed-field"}
    assert main(["workspace", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(calls["actuation_matrices"]) == math.ceil(points / BLOCK)
    assert sum(calls["actuation_matrices"]) == points
    assert calls["actuation_matrix"] == others


@pytest.mark.parametrize("config", [
    None, "workspace_octomag_2agent", "workspace_navion_standoff",
])
def test_maps_take_no_svd(monkeypatch, tmp_path, octomag, config):
    # Every solve of the benchmark's single-agent octomag8 cube (21^3 points
    # at 4 mm, both tasks: the 2 x 8 torque rows through ``pinv_rank``, the
    # 8 x 8 [b; g] field rows through ``pinv_solve``, which certifies every
    # entry, so none falls back to ``pinv_rank``) and of the bundled maps is
    # certified: none takes the SVD, which would cost far more than the
    # certified path.
    calls, shapes, fallbacks = [], set(), []
    svd, rank = magmodel._pinv_rank_svd, magmodel.pinv_rank
    solve = workspace.pinv_solve

    def counted_svd(stack):
        calls.append(stack.shape)
        return svd(stack)

    def shaped(stack, *target):
        shapes.add(stack.shape[1:])
        return (solve if target else rank)(stack, *target)

    def fallback(stack):
        fallbacks.append(stack.shape)
        return rank(stack)

    monkeypatch.setattr(magmodel, "_pinv_rank_svd", counted_svd)
    monkeypatch.setattr(magmodel, "pinv_rank", fallback)  # pinv_solve's
    monkeypatch.setattr(workspace, "pinv_rank", shaped)
    monkeypatch.setattr(workspace, "pinv_solve", shaped)
    if config is None:
        grid = GridSpec((-0.04, 0.04), (-0.04, 0.04), (-0.04, 0.04), 0.004)
        field = TaskSet("fixed-field", field_magnitude=0.025)
        maps = workspace.workspace_map(octomag, [BOX, field], grid, 16.0, params=SLED)
        assert [m.positions.shape[0] for m in maps] == [21**3] * 2
        assert shapes == {(2, 8), (8, 8)}
        assert fallbacks == []
    else:
        path = SCENARIO_DIR / f"{config}.json"
        assert main(["workspace", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert shapes
    assert calls == []


class TestExport:
    def test_csv_schema_and_determinism(self, octomag, tmp_path):
        grid = GridSpec(x=(0.0, 0.01), y=(0.0, 0.0), z=(0.0, 0.0), spacing=0.005)
        fmap = one_map(
            octomag, TaskSet("fixed-field", field_magnitude=0.025), grid, 16.0
        )
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            fmap.to_csv(p)
        text = paths[0].read_text()
        lines = text.splitlines()
        assert lines[0] == "x,y,z,fm,feasible,flag"
        assert len(lines) == 1 + 3
        assert paths[0].read_bytes() == paths[1].read_bytes()
        row = lines[1].split(",")
        assert float(row[3]) == fmap.fm[0]
        assert row[4] in ("0", "1")

    def test_empty_map_csv_header_only(self, octomag, tmp_path):
        grid = GridSpec(x=(0.01, -0.01), y=(0.0, 0.0), z=(0.0, 0.0), spacing=0.002)
        fmap = one_map(
            octomag, TaskSet("fixed-field", field_magnitude=0.025), grid, 16.0
        )
        out = tmp_path / "empty.csv"
        fmap.to_csv(out)
        assert out.read_text().splitlines() == ["x,y,z,fm,feasible,flag"]

    def test_metadata_sidecar(self, octomag, tmp_path):
        grid = GridSpec(x=(0.0, 0.0), y=(0.0, 0.0), z=(0.0, 0.0), spacing=0.01)
        fmap = one_map(
            octomag, TaskSet("torque-box", tau_bar=0.002), grid, 16.0,
            params=SLED, second_agent=(-0.0325, 0.0, 0.0),
        )
        out = tmp_path / "map.json"
        fmap.write_metadata(out)
        meta = json.loads(out.read_text())
        assert meta["model"] == "octomag8"
        assert meta["task"] == {"kind": "torque-box", "tau_bar": 0.002}
        assert meta["current_limit"] == 16.0
        assert meta["second_agent"] == [-0.0325, 0.0, 0.0]
        assert meta["total_points"] == 1
        assert not any("time" in k or "date" in k for k in meta)

    def test_infinite_margin_serializes(self, tmp_path):
        one_coil = ONE_COIL
        grid = GridSpec(x=(0.0, 0.0), y=(0.0, 0.0), z=(0.0, 0.0), spacing=0.01)
        fmap = one_map(
            one_coil, TaskSet("torque-box", tau_bar=0.001), grid, 16.0, params=SLED
        )
        out = tmp_path / "inf.csv"
        fmap.to_csv(out)
        row = out.read_text().splitlines()[1].split(",")
        assert float(row[3]) == -math.inf
        assert row[5] == "singular"
