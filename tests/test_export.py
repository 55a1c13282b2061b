"""The chunked CSV writer against the per-value writers it replaced: every
table artifact must keep its bytes."""

import json
import math
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from helpers import (
    alloc_bench_csv_per_value,
    map_csv_per_value,
    one_map,
    trace_csv_per_value,
)

import emnav.cli as cli
from emnav.dynamics import PendulumParams
from emnav.export import text_lookup
from emnav.magmodel import BLOCK, get_model
from emnav.sim import run_scenario, scenario_from_dict
from emnav.workspace import (
    _FLAG_LABELS,
    FeasibilityMap,
    GridSpec,
    TaskSet,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

# Values whose spelling a formatter could change: signed zero, the
# infinities, NaN, the smallest subnormal and the largest double.
SPECIALS = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]


def inject(array: np.ndarray) -> np.ndarray:
    """A copy of ``array`` with SPECIALS at the start and end of its values."""
    out = np.array(array, dtype=float)
    flat = out.reshape(-1)
    n = min(len(SPECIALS), flat.size)
    flat[:n] = SPECIALS[:n]
    flat[flat.size - n:] = SPECIALS[:n]
    return out


def assert_same_bytes(tmp_path, write_new, write_old):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_new(new)
    write_old(old)
    assert new.read_bytes() == old.read_bytes()


def scenario(name: str, **changes) -> dict:
    data = json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    data.pop("kind", None)
    data.update(changes)
    return data


@pytest.fixture(scope="module")
def traces():
    """A one-agent and a two-agent trace, each longer than one chunk, and a
    one-agent and a two-agent trace cut short by a diverging plant."""
    diverging = scenario("single_torque", duration=0.5, disturbances=[
        {"type": "torque_bias", "time": 0.1, "magnitude": 1e3}
    ])
    diverging_two = scenario("multi_torque_inphase", duration=0.5, disturbances=[
        {"type": "impulse", "time": 0.1, "agent": 1, "magnitude": 1e200}
    ])
    runs = {
        "one_agent": scenario("single_torque", duration=1.5),
        "two_agents": scenario("multi_torque_inphase", duration=0.75),
        "failed": diverging,
        "failed_two_agents": diverging_two,
    }
    out = {name: run_scenario(scenario_from_dict(data))
           for name, data in runs.items()}
    for name in ("failed", "failed_two_agents"):
        assert out[name].failure is not None
        assert 0 < out[name].t.shape[0] < 100
    # The table is cut at the failing tick, within the run's full table.
    assert out["failed_two_agents"].rows.shape[:2] == (21, 2)
    assert out["failed_two_agents"].rows.base is not None
    return out


TRACES = ["one_agent", "two_agents", "failed", "failed_two_agents"]


@pytest.mark.parametrize("name", TRACES)
def test_trace_matches_per_value_writer(traces, tmp_path, name):
    trace = traces[name]
    assert_same_bytes(tmp_path, trace.to_csv,
                      lambda p: trace_csv_per_value(trace, p))


@pytest.mark.parametrize("name", TRACES)
def test_trace_special_values(traces, tmp_path, name):
    # Each named array's values, injected into a copy of the table where it
    # holds them: t and the currents on every agent's row, as it repeats them.
    trace = traces[name]
    rows = trace.rows.copy()
    rows[:, :, 0] = inject(trace.t)[:, None]
    for j in range(2, 10):  # alpha to beta_sp, then tau_x and tau_y
        rows[:, :, j] = inject(rows[:, :, j])
    rows[:, :, 10:-3] = inject(trace.currents)[:, None]
    rows[:, :, -3:] = inject(trace.fields)
    special = replace(trace, rows=rows)
    assert np.isnan(special.t).any() and np.isnan(special.currents).any()
    assert_same_bytes(tmp_path, special.to_csv,
                      lambda p: trace_csv_per_value(special, p))


@pytest.mark.parametrize("name", TRACES)
def test_named_arrays_are_read_only_views(traces, name):
    trace = traces[name]
    ticks, agents, width = trace.rows.shape
    shapes = {"t": (ticks,), "currents": (ticks, width - 13),
              "fields": (ticks, agents, 3)}
    for field in ("t", "alpha", "beta", "phi", "theta", "alpha_sp", "beta_sp",
                  "outputs_alpha", "outputs_beta", "currents", "fields"):
        view = getattr(trace, field)
        assert view.shape == shapes.get(field, (ticks, agents))
        assert np.shares_memory(view, trace.rows) and not view.flags.writeable
    assert trace.n_agents == agents


def feasibility_map(points: int) -> FeasibilityMap:
    """A synthetic map of ``points`` points along x, every flag label in turn,
    a -inf margin on each singular point and the special values injected."""
    grid = GridSpec(x=(0.0, 0.001 * (points - 1)), y=(0.0, 0.0), z=(0.1, 0.1),
                    spacing=0.001)
    positions = grid.positions()
    rng = np.random.default_rng(3)
    flags = tuple(_FLAG_LABELS[k % 4] for k in range(positions.shape[0]))
    fm = rng.normal(0.0, 5.0, positions.shape[0])
    fm[["singular" in f for f in flags]] = -math.inf
    return FeasibilityMap(grid, inject(positions), inject(fm), flags)


@pytest.mark.parametrize("points", [8, 0, 2 * BLOCK + 1])
def test_map_matches_per_value_writer(tmp_path, points):
    fmap = feasibility_map(points)
    if points:
        assert set(fmap.flags) == set(_FLAG_LABELS)
        assert np.isneginf(fmap.fm).any()
    assert_same_bytes(tmp_path, fmap.to_csv,
                      lambda p: map_csv_per_value(fmap, p))


@pytest.mark.parametrize("model, task", [
    ("octomag8", TaskSet("torque-box", tau_bar=0.002)),
    ("navion3", TaskSet("fixed-field", field_magnitude=0.025)),
], ids=["octomag8-torque", "navion3-field"])
def test_lattice_map_matches_per_value_writer(tmp_path, model, task):
    # 7^3 = 343 points over two blocks, varying on all three axes, with a
    # second agent on the centre grid point: near-contact neighbours, and
    # singular points (-inf margins) beside feasible and infeasible ones.
    grid = GridSpec(x=(-0.015, 0.015), y=(-0.015, 0.015), z=(-0.015, 0.015),
                    spacing=0.005)
    fmap = one_map(get_model(model), task, grid, 16.0,
                   params=PendulumParams(dipole_magnitude=2.0, magnet_offset=0.02),
                   second_agent=(0.0, 0.0, 0.0))
    assert fmap.positions.shape[0] == 343 > BLOCK
    assert {"singular+near-contact", "near-contact"} <= set(fmap.flags)
    assert fmap.feasible.any() and not fmap.feasible.all()
    assert all(np.unique(fmap.positions[:, k]).size == 7 for k in range(3))
    assert_same_bytes(tmp_path, fmap.to_csv,
                      lambda p: map_csv_per_value(fmap, p))


@given(
    pool=st.lists(st.floats(), min_size=1, max_size=4),
    picks=st.lists(st.integers(0, 2 * len(SPECIALS) + 3), max_size=40),
)
def test_text_lookup_matches_per_value_format(pool, picks):
    # A small pool, so that values repeat: the drawn floats, both signed
    # zeros, NaN of both signs and the other special values.
    pool = pool + [0.0, -0.0, -math.nan] + SPECIALS
    column = [pool[k % len(pool)] for k in picks]
    expected = [format(value, ".17g") for value in column]
    values = np.array(column, dtype=float)
    assert text_lookup(values)(values) == expected
    # A strided column, as a map's positions[:, k] is, in two blocks that
    # share one lookup.
    table = np.zeros((len(column), 3))
    table[:, 1] = column
    text, half = text_lookup(table[:, 1]), len(column) // 2
    assert text(table[:half, 1]) + text(table[half:, 1]) == expected
    # A lookup is built only up to ``most`` distinct values (by their bits).
    distinct = len({struct.pack("<d", value) for value in column})
    assert text_lookup(values, distinct) is not None
    assert text_lookup(values, distinct - 1) is None


def margin_map(points: int, distinct: int) -> FeasibilityMap:
    """``feasibility_map(points)`` with ``distinct`` margins (by their bits:
    both signed zeros, NaN of both signs, the infinities), each repeated and
    in shuffled order."""
    rng = np.random.default_rng(11)
    pool = np.concatenate([[0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf],
                           rng.normal(0.0, 5.0, distinct - 6)])
    fm = pool[rng.permutation(np.arange(points) % distinct)]
    return replace(feasibility_map(points), fm=fm)


@pytest.mark.parametrize("distinct, lookup", [
    (128, True), (129, True), (130, False),
], ids=["below-quarter", "quarter", "above-quarter"])
def test_margin_lookup_matches_per_value_writer(tmp_path, monkeypatch,
                                                distinct, lookup):
    # 516 points, a quarter of which is 129: the margins take the lookup at
    # up to 129 distinct values and are formatted inline above.
    import emnav.workspace as workspace

    fmap = margin_map(2 * BLOCK + 4, distinct)
    assert np.unique(fmap.fm.view(np.int64)).size == distinct
    built = []

    def spy(values, *most):
        text = text_lookup(values, *most)
        built.append((*most, text is not None))
        return text

    monkeypatch.setattr(workspace, "text_lookup", spy)
    assert_same_bytes(tmp_path, fmap.to_csv,
                      lambda p: map_csv_per_value(fmap, p))
    assert built == [(True,)] * 3 + [(129, lookup)]


def test_alloc_bench_matches_per_value_writer(tmp_path, monkeypatch):
    # The block solve is replaced by values that set every violation
    # reason, an undefined zeta* and the special values.
    samples = 2 * BLOCK + 1
    rng = np.random.default_rng(5)
    values = rng.uniform(0.1, 2.0, (samples, 7))
    values[:, 5] = 90.0
    values[::7, 0] = 3.0  # one-step current norm above two-step
    values[::11, 2] = 0.0  # one-step field norm below two-step
    values[::13, 5] = 80.0  # two-step field not perpendicular to the dipole
    values[::3, 6] = math.nan  # zeta* undefined
    # Every special value in the angle and zeta* columns; the norms, finite
    # in a written table (one that is not is an overflow, exit 2), take the
    # finite ones.
    values[:, 4:] = inject(values[:, 4:])
    values[[0, -1], :3] = [-0.0, 5e-324, 1.7976931348623157e308]
    sizes = []

    def solve_block(a_mats, tilts, torques, dipole):
        start = sum(sizes)
        sizes.append(len(tilts))
        ok = np.ones(len(tilts), dtype=bool)
        return values[start:start + len(tilts)], ok, ok

    monkeypatch.setattr(cli, "_solve_block", solve_block)
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps({"kind": "alloc_bench", "name": "bench",
                               "samples": samples}))
    out = tmp_path / "o"
    assert cli.main(["alloc-bench", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "bench_summary.json").read_text())
    notes = [""] * samples
    for violation in summary["violations"]:
        notes[violation["sample"]] = "+".join(violation["reasons"])
    assert {"current_norm_order", "field_norm_order", "two_step_angle"} <= {
        reason for v in summary["violations"] for reason in v["reasons"]
    }
    alloc_bench_csv_per_value(tmp_path / "old.csv", values, notes)
    assert (out / "bench.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
