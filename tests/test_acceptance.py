"""Acceptance criteria for the full stack.

Each test prints one PASS/FAIL line (bypassing capture) and then asserts,
so the verdict for every criterion is visible in any pytest run.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from emnav.alloc import allocate_torque_one_step, allocate_torque_two_step
from emnav.cli import cmd_alloc_bench, cmd_workspace
from emnav.dynamics import PendulumParams
from emnav.magmodel import actuation_matrix, get_model
from emnav.sim import run_scenario, scenario_from_dict
from emnav.workspace import GridSpec, TaskSet, max_feasible_standoff

from helpers import (
    composed_torque_map,
    min_norm_oracle,
    one_map,
    random_agent,
    skew,
    world_torque,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SIM_SCENARIOS = (
    "single_torque",
    "single_field",
    "multi_field_2x2d",
    "multi_torque_inphase",
    "multi_torque_async",
    "disturb_field_p_only",
    "disturb_field_integral",
)


def report(capfd, number: int, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"CRITERION {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def load_scenario(name: str):
    return scenario_from_dict(
        json.loads((SCENARIO_DIR / f"{name}.json").read_text())
    )


@pytest.fixture(scope="module")
def runs(bundled_runs):
    return {name: bundled_runs[name] for name in SIM_SCENARIOS}


@pytest.fixture(scope="module")
def alloc_instances():
    """1000 seeded random (orientation, position, torque) solves on the
    8-coil preset, one- and two-step, on the pure field-torque map."""
    model = get_model("octomag8")
    rng = np.random.default_rng(1)
    instances = []
    start = time.perf_counter()
    for _ in range(1000):
        agent = random_agent(rng)
        direction = rng.uniform(0.0, 2.0 * math.pi)
        magnitude = 0.002 * rng.uniform(0.1, 1.0)
        task = (magnitude * math.cos(direction), magnitude * math.sin(direction))
        a_mat = actuation_matrix(model, agent.p)
        one = allocate_torque_one_step(
            a_mat, agent.tilts, agent.mag_pol, task, 0.0
        ).currents
        two = allocate_torque_two_step(
            a_mat, agent.tilts, agent.mag_pol, task, agent.p
        ).currents
        a_pinv = np.linalg.pinv(a_mat[:3])
        b_two = (a_mat @ two)[:3]
        instances.append(
            {
                "agent": agent,
                "norm_i_one": np.linalg.norm(one),
                "norm_i_two": np.linalg.norm(two),
                "norm_b_one": np.linalg.norm((a_mat @ one)[:3]),
                "norm_b_two": np.linalg.norm(b_two),
                "b_two": b_two,
                "u": a_pinv @ agent.moment,
                "v": a_pinv @ b_two,
            }
        )
    elapsed = time.perf_counter() - start
    return instances, elapsed


def test_criterion_01_allocation_norm_inequalities(alloc_instances, capfd):
    instances, elapsed = alloc_instances
    current_ok = all(
        inst["norm_i_one"] <= inst["norm_i_two"] + 1e-9 for inst in instances
    )
    field_ok = all(
        inst["norm_b_one"] >= inst["norm_b_two"] - 1e-9 for inst in instances
    )
    worst_identity = 0.0
    for inst in instances:
        u, v = inst["u"], inst["v"]
        rhs = inst["norm_i_two"] ** 2 - float(v @ u) ** 2 / float(u @ u)
        lhs = inst["norm_i_one"] ** 2
        worst_identity = max(worst_identity, abs(lhs - rhs) / max(rhs, 1e-300))
    identity_ok = worst_identity < 1e-9
    ok = current_ok and field_ok and identity_ok and elapsed < 10.0
    report(
        capfd, 1, ok,
        f"1000 instances: current/field norm orderings hold, norm identity "
        f"rel err {worst_identity:.2e}, solve time {elapsed:.2f}s < 10s",
    )


def test_criterion_02_two_step_orthogonality(alloc_instances, capfd):
    instances, _ = alloc_instances
    worst = max(
        abs(float(inst["agent"].moment @ inst["b_two"]))
        / (
            np.linalg.norm(inst["agent"].moment)
            * max(float(np.linalg.norm(inst["b_two"])), 1e-300)
        )
        for inst in instances
    )
    report(
        capfd, 2, worst < 1e-10,
        f"two-step field orthogonal to dipole on all instances "
        f"(worst |cos| {worst:.2e} < 1e-10)",
    )


def test_criterion_03_torque_map_svd_structure(capfd):
    rng = np.random.default_rng(3)
    worst_sv = 0.0
    worst_null = 0.0
    for _ in range(100):
        agent = random_agent(rng)
        m = agent.moment
        mag = float(np.linalg.norm(m))
        _, s, vt = np.linalg.svd(skew(m))
        worst_sv = max(
            worst_sv,
            abs(s[0] - mag) / mag,
            abs(s[1] - mag) / mag,
            s[2] / mag,
        )
        worst_null = max(
            worst_null, float(np.linalg.norm(np.cross(vt[2], m / mag)))
        )
    ok = worst_sv < 1e-12 and worst_null < 1e-10
    report(
        capfd, 3, ok,
        f"singular values (|m|, |m|, 0) within {worst_sv:.2e}, null "
        f"direction parallel to m within {worst_null:.2e}",
    )


def test_criterion_04_exact_feasibility_in_rank_plane(capfd):
    model = get_model("octomag8")
    params = PendulumParams()
    rng = np.random.default_rng(4)
    checked = 0
    worst = 0.0
    for _ in range(200):
        agent = random_agent(rng)
        a_mat = actuation_matrix(model, agent.p)
        composed = composed_torque_map(a_mat, agent, params)
        sigma = np.linalg.svd(composed, compute_uv=False)
        if sigma[1] <= 1e-10 * sigma[0]:
            continue  # rank-deficient geometry: exactness not claimed
        direction = rng.uniform(0.0, 2.0 * math.pi)
        magnitude = 0.002 * rng.uniform(0.1, 1.0)
        task = (magnitude * math.cos(direction), magnitude * math.sin(direction))
        result = allocate_torque_one_step(a_mat, agent.tilts, agent.mag_pol, task,
                                          params.magnet_offset)
        tau_norm = float(np.linalg.norm(world_torque(agent, task)))
        worst = max(worst, result.residual_norm / tau_norm)
        checked += 1
    ok = checked > 150 and worst < 1e-9
    report(
        capfd, 4, ok,
        f"zero-body-z torque tasks solved exactly where the composed map has "
        f"full planar rank: {checked} instances, worst rel residual {worst:.2e}",
    )


def test_criterion_05_oracle_equivalence(capfd):
    model = get_model("octomag8")
    params = PendulumParams()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        agent = random_agent(rng)
        direction = rng.uniform(0.0, 2.0 * math.pi)
        magnitude = 0.002 * rng.uniform(0.1, 1.0)
        task = (magnitude * math.cos(direction), magnitude * math.sin(direction))
        a_mat = actuation_matrix(model, agent.p)
        result = allocate_torque_one_step(a_mat, agent.tilts, agent.mag_pol, task,
                                          params.magnet_offset)
        oracle = min_norm_oracle(
            composed_torque_map(a_mat, agent, params), world_torque(agent, task)
        )
        worst = max(worst, float(np.max(np.abs(result.currents - oracle))))
    report(
        capfd, 5, worst < 1e-8,
        f"one-step currents match explicit-nullspace minimum-norm oracle on "
        f"100 instances (worst abs diff {worst:.2e} < 1e-8)",
    )


def test_criterion_06_single_agent_stabilization(runs, capfd):
    entry = runs["single_torque"]
    settle = entry["trace"].summary["metrics"]["settling_time"][0]
    ok = settle is not None and settle < 3.0 and entry["wall"] < 5.0
    report(
        capfd, 6, ok,
        f"5-degree tilt settles below 0.5 degrees at t={settle}s < 3s, "
        f"wall {entry['wall']:.2f}s < 5s",
    )


def test_criterion_07_current_disparity(runs, capfd):
    field_i = runs["single_field"]["trace"].summary["metrics"]["steady_max_current"]
    torque_i = runs["single_torque"]["trace"].summary["metrics"]["steady_max_current"]
    ratio = field_i / torque_i
    report(
        capfd, 7, ratio >= 10.0,
        f"steady currents: field alignment {field_i:.3f}A vs torque paradigm "
        f"{torque_i:.2e}A, ratio {ratio:.0f}x >= 10x",
    )


def test_criterion_08_disturbance_offset_and_integral(runs, capfd):
    tau_d = 1e-3
    denominator = 0.5 * 0.065 - 0.002 * 9.81  # |m||b| - eta*g for the scenario
    analytic = tau_d / denominator
    offset = float(runs["disturb_field_p_only"]["trace"].alpha[-1, 0])
    rel = abs(offset - analytic) / analytic

    integral_trace = runs["disturb_field_integral"]["trace"]
    rate = 200.0
    # Integral window opens at t=4s; check the residual offset 5s later.
    residual = abs(float(integral_trace.alpha[int(9.0 * rate) - 1, 0]))
    ok = rel < 0.05 and residual < 1e-3
    report(
        capfd, 8, ok,
        f"proportional-only offset {offset:.5f} rad vs analytic "
        f"{analytic:.5f} (rel {rel:.3%} < 5%); integral shrinks it to "
        f"{residual:.2e} rad < 1e-3 within 5s",
    )


def test_criterion_09_workspace_expansion(capfd):
    start = time.perf_counter()
    navion = get_model("navion3")
    octomag = get_model("octomag8")
    sled = PendulumParams(dipole_magnitude=2.0, magnet_offset=0.02)

    line = GridSpec(x=(0.0, 0.0), y=(0.0, 0.0), z=(0.105, 0.25), spacing=0.005)
    nav_torque = one_map(
        navion, TaskSet("torque-box", tau_bar=0.01), line, 25.0, params=sled
    )
    nav_field = one_map(
        navion, TaskSet("fixed-field", field_magnitude=0.025), line, 25.0
    )
    standoff_torque = max_feasible_standoff(nav_torque)
    standoff_field = max_feasible_standoff(nav_field)

    plane = GridSpec(x=(0.01, 0.09), y=(-0.04, 0.04), z=(0.0, 0.0), spacing=0.005)
    second = (-0.0325, 0.0, 0.0)
    two_torque = one_map(
        octomag, TaskSet("torque-box", tau_bar=0.002), plane, 16.0,
        params=sled, second_agent=second,
    )
    two_field = one_map(
        octomag, TaskSet("fixed-field", field_magnitude=0.025), plane, 16.0,
        params=sled, second_agent=second,
    )
    contained = bool(np.all(~two_field.feasible | two_torque.feasible))
    elapsed = time.perf_counter() - start
    ok = (
        standoff_torque is not None
        and standoff_field is not None
        and standoff_torque > standoff_field
        and contained
        and elapsed < 60.0
    )
    report(
        capfd, 9, ok,
        f"torque stand-off {standoff_torque}m > field {standoff_field}m; "
        f"two-agent field set contained in torque set "
        f"({two_field.feasible_count}/{two_torque.feasible_count} points); "
        f"runtime {elapsed:.2f}s < 60s",
    )


def test_criterion_10_multi_agent_tracking(runs, capfd):
    radius = 0.05
    inphase = runs["multi_torque_inphase"]["trace"]
    asynchronous = runs["multi_torque_async"]["trace"]
    rms_in = inphase.summary["metrics"]["rms_tracking_last_quarter"]
    rms_async = asynchronous.summary["metrics"]["rms_tracking_last_quarter"]
    in_ok = (
        inphase.failure is None
        and all(r < 0.2 * radius for r in rms_in)
    )
    # A 2:1 frequency ratio doubles the faster agent's phase-lag error, so
    # the async bound is twice the in-phase allowance (40% of radius).
    async_ok = (
        asynchronous.failure is None
        and all(r < 2.0 * 0.2 * radius for r in rms_async)
    )
    ok = in_ok and async_ok
    report(
        capfd, 10, ok,
        f"in-phase RMS {[f'{r / radius:.1%}' for r in rms_in]} of radius "
        f"(< 20%); 2:1 async stable, RMS "
        f"{[f'{r / radius:.1%}' for r in rms_async]} (< 40%)",
    )


def test_criterion_11_synthesis_diagnostics(runs, capfd):
    worst_dare = 0.0
    worst_rho = 0.0
    worst_fd = 0.0
    for entry in runs.values():
        for diag in entry["trace"].synthesis:
            worst_dare = max(worst_dare, diag["dare_residual"])
            worst_rho = max(worst_rho, diag["spectral_radius"])
            worst_fd = max(worst_fd, diag["fd_linearization_match"])
    ok = worst_dare < 1e-9 and worst_rho < 1.0 and worst_fd < 1e-5
    report(
        capfd, 11, ok,
        f"all bundled scenarios: DARE residual {worst_dare:.2e} < 1e-9, "
        f"spectral radius {worst_rho:.4f} < 1, finite-difference Jacobian "
        f"match {worst_fd:.2e} < 1e-5",
    )


def test_criterion_12_byte_determinism(runs, capfd, tmp_path):
    mismatches = []
    for name in SIM_SCENARIOS:
        first = tmp_path / f"{name}_1.csv"
        second = tmp_path / f"{name}_2.csv"
        runs[name]["trace"].to_csv(first)
        run_scenario(load_scenario(name)).to_csv(second)
        if first.read_bytes() != second.read_bytes():
            mismatches.append(name)

    for config in ("workspace_octomag_2agent", "workspace_navion_standoff"):
        outs = []
        for tag in ("1", "2"):
            out = tmp_path / f"{config}_{tag}"
            out.mkdir()
            cmd_workspace(SCENARIO_DIR / f"{config}.json", out)
            outs.append(b"".join(p.read_bytes() for p in sorted(out.iterdir())))
        if outs[0] != outs[1]:
            mismatches.append(config)

    outs = []
    for tag in ("1", "2"):
        out = tmp_path / f"bench_{tag}"
        out.mkdir()
        cmd_alloc_bench(SCENARIO_DIR / "alloc_bench.json", out, seed=None)
        outs.append((out / "alloc_bench.csv").read_bytes())
    if outs[0] != outs[1]:
        mismatches.append("alloc_bench")

    report(
        capfd, 12, not mismatches,
        "repeated runs of all 10 bundled configs produce byte-identical "
        "outputs" if not mismatches else f"non-deterministic: {mismatches}",
    )
