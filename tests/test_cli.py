"""Command-line front end tests: artifact generation, exit codes,
determinism, and error diagnostics."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np
from helpers import alloc_bench_per_sample

from emnav.cli import main
from emnav.control import SynthesisError
from emnav.magmodel import BLOCK, ActuationModel, CoilSpec, get_model

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

# A degenerate grid whose single point is the centre of an octomag8 coil.
_COIL_CENTRE = get_model("octomag8").coils[0].position
ON_COIL_GRID = json.dumps(
    {**{axis: [c, c] for axis, c in zip("xyz", _COIL_CENTRE)}, "spacing": 0.01}
)
# A coil whose axis is not a unit vector.
BAD_COIL_MODEL = json.dumps({"name": "bad", "coils": [
    {"position": [0.0, 0.0, -0.2], "axis": [0.0, 0.0, 2.0], "moment_per_ampere": 50.0}
]})

# The octomag8 coils at 1e308 A m^2/A: A(p) overflows, and its SVD does not
# converge.
HUGE_COIL_MODEL = {"name": "huge", "coils": [
    {"position": list(c.position), "axis": list(c.axis), "moment_per_ampere": 1e308}
    for c in get_model("octomag8").coils
]}

# Two coils on the x and y axes, 20 cm out, pointing at the origin.
TWO_COILS = [
    {"position": [0.2, 0, 0], "axis": [-1, 0, 0], "moment_per_ampere": 50.0},
    {"position": [0, 0.2, 0], "axis": [0, -1, 0], "moment_per_ampere": 50.0},
]


def write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2))
    return path


@pytest.fixture()
def short_torque(tmp_path):
    data = json.loads((SCENARIO_DIR / "single_torque.json").read_text())
    data["duration"] = 0.5
    return write_json(tmp_path / "short_torque.json", data)


@pytest.fixture()
def small_workspace(tmp_path):
    return write_json(
        tmp_path / "ws.json",
        {
            "kind": "workspace",
            "name": "small",
            "model": "octomag8",
            "current_limit": 16.0,
            "grid": {
                "x": [0.01, 0.05], "y": [-0.02, 0.02], "z": [0.0, 0.0],
                "spacing": 0.01,
            },
            "tasks": {
                "torque-box": {"tau_bar": 0.002},
                "fixed-field": {"field_magnitude": 0.025},
            },
            "plant": {"dipole_magnitude": 2.0, "magnet_offset": 0.02},
            "second_agent": [-0.0325, 0.0, 0.0],
        },
    )


class TestSimulate:
    def test_success_writes_trace_and_summary(self, short_torque, tmp_path):
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(short_torque), "--out", str(out)])
        assert code == 0
        trace = out / "single_torque_trace.csv"
        summary = json.loads((out / "single_torque_summary.json").read_text())
        assert trace.exists()
        assert summary["failure"] is None
        assert summary["metrics"]["max_current"] > 0.0
        assert "settling_time" in summary["metrics"]

    def test_rerun_byte_identical(self, short_torque, tmp_path):
        outs = [tmp_path / "a", tmp_path / "b"]
        blobs = []
        for out in outs:
            assert main(["simulate", "--config", str(short_torque),
                         "--out", str(out)]) == 0
            blobs.append((out / "single_torque_trace.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_flag_controls_noise(self, tmp_path):
        data = json.loads((SCENARIO_DIR / "single_torque.json").read_text())
        data["duration"] = 0.5
        data["measurement_noise_std"] = 1e-4
        cfg = write_json(tmp_path / "noisy.json", data)

        def run(seed, tag):
            out = tmp_path / tag
            assert main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--seed", str(seed)]) == 0
            return (out / "single_torque_trace.csv").read_bytes()

        assert run(5, "s5a") == run(5, "s5b")
        assert run(5, "s5c") != run(6, "s6")

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x",\n  broken')
        code = main(["simulate", "--config", str(bad), "--out",
                     str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_missing_config(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_kind_mismatch(self, small_workspace, tmp_path):
        code = main(["simulate", "--config", str(small_workspace),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_invalid_scenario_schema(self, tmp_path):
        cfg = write_json(tmp_path / "bad.json", {"name": "x", "paradigm": "torque"})
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1

    def test_runtime_config_error_is_exit_1(self, short_torque, tmp_path, capsys):
        # A q_diag of the wrong length for the agent's layout, for both
        # layouts: found when the scenario is built, with the agent's path.
        data = json.loads(short_torque.read_text())
        agent = data["agents"][0]
        for attached, q_diag in ((True, [20.0, 1.0]), (False, [20.0, 40.0, 1.0, 1.0])):
            agent.update(pendulum_attached=attached, controller={"q_diag": q_diag})
            cfg = write_json(tmp_path / "badq.json", data)
            out = tmp_path / "o"
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert (f"config error: agents[0]: controller.q_diag has length "
                    f"{len(q_diag)}") in err
            assert list(out.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "section,key,value,stage",
        [
            # The controller output overflows: cos(inf) in the field allocation.
            (None, "measurement_noise_std", 1e307, "allocation"),
            # The plant diverges inside the linearization or its check.
            ("plant", "inertia", 1e-308, "synthesis"),
            ("plant", "dipole_magnitude", 1e308, "synthesis"),
        ],
    )
    def test_math_domain_error_is_numerical_failure(
        self, tmp_path, capsys, section, key, value, stage
    ):
        # Each exited 1 with "config error: invalid scenario ...: math domain
        # error", the last two after numpy RuntimeWarnings: the scenario is
        # checked when it is built, so a failure of the run is numerical.
        data = json.loads((SCENARIO_DIR / "single_field.json").read_text())
        data["duration"] = 0.1
        (data.setdefault(section, {}) if section else data)[key] = value
        cfg = write_json(tmp_path / "overflow.json", data)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{stage} failed" in err
        assert "config error" not in err and "Warning" not in err
        if stage == "synthesis":
            record = json.loads((out / "single_field_failure.json").read_text())
        else:
            summary = json.loads((out / "single_field_summary.json").read_text())
            record = summary["failure"]
            assert record["tick"] == 0
        assert record["stage"] == stage and "math domain error" in record["error"]

    def test_dare_failure_reason_in_the_record(self, tmp_path):
        # The doubling overflows on this plant: the DARE solver's reason goes
        # into the failure record, and stderr holds the one failure line, with
        # no overflow warning before it.
        data = json.loads((SCENARIO_DIR / "multi_field_2x2d.json").read_text())
        data["duration"] = 0.0625
        data.setdefault("plant", {})["inertia"] = 1e307
        cfg = write_json(tmp_path / "heavy.json", data)
        out = tmp_path / "o"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "emnav", "simulate", "--config", str(cfg),
             "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2
        record = json.loads((out / "multi_field_2x2d_failure.json").read_text())
        assert record["stage"] == "synthesis"
        assert record["error"] == (
            "DARE has no stabilizing solution: doubling iterate is not finite")
        assert proc.stderr == f"numerical failure: {record['error']}\n"

    @pytest.mark.parametrize(
        "key,value",
        [
            ("r_weight", "Infinity"),
            ("q_diag", "[20.0, NaN, 1.0, 1.0]"),
            ("k_i", "NaN"),
            ("integral_warm_start", "-Infinity"),
            ("anti_windup_limit", "NaN"),
            ("velocity_filter_cutoff", "Infinity"),
            ("field_magnitude", "NaN"),
            ("measurement_noise_std", "NaN"),
            ("duration", "Infinity"),
            ("time", "NaN"),
            ("magnitude", "NaN"),
            ("release_time", "NaN"),
            ("integral_windows", "[[NaN, 1.0]]"),
            ("damping", "NaN"),
            ("initial", '{"alpha": NaN}'),
            ("position", "[NaN, 0.0, 0.0]"),
            ("setpoint", '{"type": "constant", "alpha": NaN}'),
            ("current_limit", "NaN"),
        ],
    )
    def test_non_finite_synthesis_input_is_config_error(
        self, short_torque, tmp_path, capsys, key, value
    ):
        # Python's json reads NaN and Infinity, so they reach the config as
        # floats; they must be rejected at parse time, not by the DARE or
        # the allocation, and never change the run silently.
        data = json.loads(short_torque.read_text())
        data["emns"] = {"control_rate": 200.0, "current_limit": 16.0,
                        "current_bandwidth": 26.4}
        data["plant"] = {"damping": 0.0}
        data["disturbances"] = [{"type": "impulse", "time": 0.1, "magnitude": 0.1}]
        agent = data["agents"][0]
        agent["integral_windows"] = [[0.0, 0.2]]
        owners = {
            "current_limit": data["emns"],
            "damping": data["plant"],
            "time": data["disturbances"][0],
            "magnitude": data["disturbances"][0],
            **dict.fromkeys(
                ("release_time", "integral_windows", "initial", "position",
                 "setpoint"), agent,
            ),
            **dict.fromkeys(
                ("field_magnitude", "measurement_noise_std", "duration"), data
            ),
        }
        owners.get(key, agent["controller"])[key] = "@"
        cfg = tmp_path / "nonfinite.json"
        cfg.write_text(json.dumps(data).replace('"@"', value))
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and key in err and "finite" in err
        assert not (out / "single_torque_failure.json").exists()

    def test_agent_tick_cap_is_config_error(
        self, short_torque, tmp_path, capsys, monkeypatch
    ):
        # The cap is checked from duration x rate x agents; nothing runs.
        import emnav.cli as cli_mod

        def must_not_run(scenario):
            raise AssertionError("the run was started")

        monkeypatch.setattr(cli_mod, "run_scenario", must_not_run)
        data = json.loads(short_torque.read_text())
        data["duration"] = 1e12
        cfg = write_json(tmp_path / "long.json", data)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "agent-ticks" in err

    def test_zero_tick_duration_is_config_error(
        self, short_torque, tmp_path, capsys, monkeypatch
    ):
        # Shorter than half a 200 Hz tick: no tick would run.  Nothing runs
        # and nothing is written.
        import emnav.cli as cli_mod

        def must_not_run(scenario):
            raise AssertionError("the run was started")

        monkeypatch.setattr(cli_mod, "run_scenario", must_not_run)
        data = json.loads(short_torque.read_text())
        data["duration"] = 0.001
        cfg = write_json(tmp_path / "blink.json", data)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "duration" in err
        assert list(out.iterdir()) == []

    def test_allocation_failure_exit_2_with_record(self, short_torque, tmp_path):
        data = json.loads(short_torque.read_text())
        data["model"] = {
            "name": "one",
            "coils": [
                {"position": [0.0, 0.0, -0.2], "axis": [0.0, 0.0, 1.0],
                 "moment_per_ampere": 50.0}
            ],
        }
        cfg = write_json(tmp_path / "rankfail.json", data)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        summary = json.loads((out / "single_torque_summary.json").read_text())
        assert summary["failure"]["stage"] == "allocation"
        assert summary["failure"]["tick"] == 0
        assert "rank" in summary["failure"]["error"]

    @pytest.mark.filterwarnings("error")
    def test_non_finite_allocation_exit_2_with_record(
        self, short_torque, tmp_path, capsys
    ):
        # Measurement noise of 1e300 rad drives the solve's currents or its
        # residual past the largest double; the clamp to the current limit
        # would hide that, so the unclamped solve is checked.  The run checks
        # finiteness itself, so numpy's overflow warning is not raised.
        data = json.loads(short_torque.read_text())
        data.update(duration=0.1, measurement_noise_std=1e300)
        cfg = write_json(tmp_path / "noisy.json", data)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "allocation failed" in capsys.readouterr().err

        def strict(constant):
            raise ValueError(f"{constant} is not strict JSON")

        summary = json.loads(
            (out / "single_torque_summary.json").read_text(), parse_constant=strict
        )
        failure = summary["failure"]
        assert sorted(failure) == ["error", "stage", "tick", "time"]
        assert failure["stage"] == "allocation"
        assert "non-finite" in failure["error"]
        rows = (out / "single_torque_trace.csv").read_text().splitlines()
        assert len(rows) == 1 + failure["tick"] + 1  # header, ticks 0..tick

    @pytest.mark.parametrize(
        "attached,magnitude", [(True, 1e3), (False, 1e307)]
    )
    def test_diverging_plant_exit_2_with_record(
        self, short_torque, tmp_path, capsys, attached, magnitude
    ):
        # A non-finite state (phi_dot * phi_dot overflows to inf) and
        # math.sin(inf) (a ValueError, not a config error) both end the run
        # as an integration failure.
        data = json.loads(short_torque.read_text())
        data["disturbances"] = [
            {"type": "torque_bias", "time": 0.1, "magnitude": magnitude}
        ]
        if not attached:
            data["agents"][0]["pendulum_attached"] = False
            data["agents"][0]["controller"]["q_diag"] = [20.0, 1.0]
        cfg = write_json(tmp_path / "diverge.json", data)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "integration failed" in err and "agent 0" in err
        failure = json.loads((out / "single_torque_summary.json").read_text())[
            "failure"
        ]
        assert failure["stage"] == "integration" and failure["agent"] == 0
        rows = (out / "single_torque_trace.csv").read_text().splitlines()
        assert len(rows) == 1 + failure["tick"] + 1  # header, ticks 0..tick
        assert not any(word in rows[-1] for word in ("nan", "inf"))

    @pytest.mark.parametrize("key", ["time", "type", "magnitude"])
    def test_disturbance_missing_required_key(
        self, short_torque, tmp_path, capsys, key
    ):
        data = json.loads(short_torque.read_text())
        event = {"type": "impulse", "time": 0.1, "magnitude": 0.1}
        del event[key]
        data["disturbances"] = [event]
        cfg = write_json(tmp_path / "nokey.json", data)
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err
        assert f"disturbance is missing required key '{key}'" in err

    def test_synthesis_failure_exit_2_with_record(
        self, short_torque, tmp_path, monkeypatch
    ):
        import emnav.cli as cli_mod

        def boom(scenario):
            raise SynthesisError("fixed point not reached")

        monkeypatch.setattr(cli_mod, "run_scenario", boom)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(short_torque),
                     "--out", str(out)]) == 2
        record = json.loads((out / "single_torque_failure.json").read_text())
        assert record["stage"] == "synthesis"
        assert "fixed point" in record["error"]


class TestWorkspaceCommand:
    def test_paired_run_outputs(self, small_workspace, tmp_path):
        out = tmp_path / "out"
        assert main(["workspace", "--config", str(small_workspace),
                     "--out", str(out)]) == 0
        for stem in ("small_torque", "small_field"):
            assert (out / f"{stem}.csv").exists()
            meta = json.loads((out / f"{stem}_meta.json").read_text())
            assert meta["model"] == "octomag8"
        comparison = json.loads((out / "small_comparison.json").read_text())
        assert comparison["field_contained_in_torque"] is True
        assert (
            comparison["feasible_count"]["torque"]
            >= comparison["feasible_count"]["field"]
        )

    def test_rerun_byte_identical(self, small_workspace, tmp_path):
        blobs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["workspace", "--config", str(small_workspace),
                         "--out", str(out)]) == 0
            blobs.append(b"".join(p.read_bytes() for p in sorted(out.iterdir())))
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--seed", "1"]])
    def test_unused_flags_rejected(self, small_workspace, tmp_path, flag):
        argv = ["workspace", "--config", str(small_workspace),
                "--out", str(tmp_path / "o"), *flag]
        assert pytest.raises(SystemExit, main, argv).value.code == 1

    @pytest.mark.parametrize(
        "path,value",
        [
            pytest.param(("grid",), ON_COIL_GRID, id="grid-on-coil-centre"),
            pytest.param(("model",), BAD_COIL_MODEL, id="model-bad-coil-axis"),
            (("current_limit",), "NaN"),
            (("current_limit",), "-1.0"),
            pytest.param(("second_agent",), json.dumps(list(_COIL_CENTRE)),
                         id="second-agent-on-coil-centre"),
            (("second_agent",), "[NaN, 0.0, 0.0]"),
            (("grid", "x"), "[0.0, 1e300]"),
            (("grid", "z"), "[-Infinity, 0.0]"),
            (("grid", "spacing"), "NaN"),
            (("orientation",), "[Infinity, 0.0]"),
            (("tasks", "torque-box", "tau_bar"), "NaN"),
            (("tasks", "fixed-field", "field_magnitude"), "Infinity"),
            (("plant", "dipole_magnitude"), "NaN"),
            (("plant", "magnet_offset"), "-Infinity"),
            (("second_agent",), "[0.0, 0.0]"),
            (("orientation",), "[0.0]"),
            (("tasks",), "[]"),
        ],
        ids=lambda v: "-".join(v) if isinstance(v, tuple) else None,
    )
    def test_bad_config_is_config_error(
        self, small_workspace, tmp_path, capsys, path, value
    ):
        # Non-finite numbers reach the config as floats (Python's json reads
        # NaN and Infinity); they and every other bad value exit 1.
        data = json.loads(small_workspace.read_text())
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = "@"
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data).replace('"@"', value))
        assert main(["workspace", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    def test_numerical_failure_exit_2(self, small_workspace, tmp_path, capsys):
        # It was reported as a config error.
        data = {**json.loads(small_workspace.read_text()), "model": HUGE_COIL_MODEL}
        cfg = write_json(tmp_path / "huge.json", data)
        out = tmp_path / "o"
        assert main(["workspace", "--config", str(cfg), "--out", str(out)]) == 2
        error = "LinAlgError: SVD did not converge"
        assert capsys.readouterr().err == f"numerical failure: workspace failed: {error}\n"
        assert sorted(out.iterdir()) == [out / "small_failure.json"]
        record = json.loads((out / "small_failure.json").read_text())
        assert record == {"stage": "workspace", "error": error}

    @pytest.mark.parametrize("task,key", [("torque-box", "tau_bar"),
                                          ("fixed-field", "field_magnitude")])
    def test_overflow_is_numerical_failure(
        self, small_workspace, tmp_path, capsys, task, key
    ):
        # It flagged every full-rank point "singular" and exited 0.
        data = json.loads(small_workspace.read_text())
        data["tasks"][task][key] = 1e308
        cfg = write_json(tmp_path / "huge.json", data)
        out = tmp_path / "o"
        assert main(["workspace", "--config", str(cfg), "--out", str(out)]) == 2
        error = f"FloatingPointError: the {task} task's currents overflow at grid point 0"
        assert capsys.readouterr().err == f"numerical failure: workspace failed: {error}\n"
        assert sorted(out.iterdir()) == [out / "small_failure.json"]
        record = json.loads((out / "small_failure.json").read_text())
        assert record == {"stage": "workspace", "error": error}

    def test_grid_point_cap_is_config_error(
        self, small_workspace, tmp_path, capsys, monkeypatch
    ):
        # (1e6 + 1)^3 points: the cap is checked from the axis counts, and
        # no lattice is built.
        from emnav.workspace import GridSpec

        def must_not_build(self):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(GridSpec, "positions", must_not_build)
        data = json.loads(small_workspace.read_text())
        data["grid"] = {axis: [0.0, 1e6] for axis in "xyz"} | {"spacing": 1.0}
        cfg = write_json(tmp_path / "huge.json", data)
        assert main(["workspace", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "points" in err

    def test_missing_required_key(self, tmp_path):
        cfg = write_json(tmp_path / "ws.json", {"kind": "workspace", "name": "x"})
        assert main(["workspace", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1

    def test_empty_grid_header_only(self, small_workspace, tmp_path):
        data = json.loads(small_workspace.read_text())
        data["grid"]["x"] = [0.05, 0.01]
        cfg = write_json(tmp_path / "empty.json", data)
        out = tmp_path / "o"
        assert main(["workspace", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "small_torque.csv").read_text().splitlines()
        assert lines == ["x,y,z,fm,feasible,flag"]


class TestAllocBench:
    def make_config(self, tmp_path, samples=50):
        return write_json(
            tmp_path / "bench.json",
            {
                "kind": "alloc_bench",
                "name": "bench",
                "model": "octomag8",
                "samples": samples,
                "seed": 0,
                "tau_bar": 0.002,
                "position_radius": 0.04,
                "max_tilt": 0.3,
                "dipole_magnitude": 0.5,
            },
        )

    def test_norm_orderings_hold(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "out"
        assert main(["alloc-bench", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "bench_summary.json").read_text())
        assert summary["violation_count"] == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0].startswith("sample,norm_i_one_step,norm_i_two_step")
        assert len(lines) == 1 + 50
        header = lines[0].split(",")
        angle_idx = header.index("angle_two_step_deg")
        one_idx = header.index("norm_i_one_step")
        two_idx = header.index("norm_i_two_step")
        for line in lines[1:]:
            cols = line.split(",")
            assert abs(float(cols[angle_idx]) - 90.0) < 1e-6
            assert float(cols[one_idx]) <= float(cols[two_idx]) + 1e-9

    def test_one_step_angle_not_identically_90(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out = tmp_path / "out"
        main(["alloc-bench", "--config", str(cfg), "--out", str(out)])
        lines = (out / "bench.csv").read_text().splitlines()
        header = lines[0].split(",")
        idx = header.index("angle_one_step_deg")
        angles = [float(line.split(",")[idx]) for line in lines[1:]]
        assert any(abs(a - 90.0) > 1e-3 for a in angles)

    def test_seed_changes_samples(self, tmp_path):
        cfg = self.make_config(tmp_path)

        def run(seed, tag):
            out = tmp_path / tag
            assert main(["alloc-bench", "--config", str(cfg), "--out", str(out),
                         "--seed", str(seed)]) == 0
            return (out / "bench.csv").read_bytes()

        assert run(0, "a") == run(0, "b")
        assert run(0, "c") != run(1, "d")

    def test_actuation_matrices_cover_samples_in_blocks(self, tmp_path, monkeypatch):
        # One A(p) evaluation per block of BLOCK samples serves both solves,
        # zeta* and the fields; every sample is evaluated exactly once.
        import emnav.cli as cli

        calls = []
        batched = cli.actuation_matrices

        def counting(model, points):
            calls.append(points.copy())
            return batched(model, points)

        monkeypatch.setattr(cli, "actuation_matrices", counting)
        cfg = self.make_config(tmp_path, samples=BLOCK + 44)
        assert main(["alloc-bench", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
        assert [len(points) for points in calls] == [BLOCK, 44]
        positions = cli._draw_samples(np.random.default_rng(0), BLOCK + 44,
                                      0.04, 0.3, 0.002)[0]
        assert np.array_equal(np.concatenate(calls), positions)

    @pytest.mark.parametrize("model", ["octomag8", "navion3"])
    def test_matches_per_sample_oracle(self, tmp_path, model):
        # Across a block boundary: the batched command against the loop it
        # replaced, one A(p), two solves and zeta* per sample.
        import emnav.cli as cli

        samples = BLOCK + 44
        data = json.loads(self.make_config(tmp_path).read_text())
        data.update(model=model, samples=samples)
        cfg = write_json(tmp_path / "bench.json", data)
        out = tmp_path / "o"
        assert main(["alloc-bench", "--config", str(cfg), "--out", str(out)]) == 0
        ref = alloc_bench_per_sample(
            get_model(model), samples, 0, data["tau_bar"],
            data["position_radius"], data["max_tilt"], data["dipole_magnitude"],
        )
        draws = cli._draw_samples(
            np.random.default_rng(0), samples, data["position_radius"],
            data["max_tilt"], data["tau_bar"],
        )
        for got, want in zip(draws, (ref["positions"], ref["tilts"], ref["torques"])):
            assert np.array_equal(got, want)
        summary = json.loads((out / "bench_summary.json").read_text())
        assert summary["violations"] == json.loads(json.dumps(ref["violations"]))
        rows = [line.split(",") for line in
                (out / "bench.csv").read_text().splitlines()[1:]]
        assert [int(row[0]) for row in rows] == list(range(samples))
        assert [row[8] for row in rows] == ref["notes"]
        values = np.array([[float(v) for v in row[1:8]] for row in rows])
        want = ref["values"]
        assert np.array_equal(np.isnan(values), np.isnan(want))
        both = ~np.isnan(want)
        assert np.all(
            np.abs(values - want)[both] <= 1e-10 * np.maximum(1.0, np.abs(want[both]))
        )

    @pytest.mark.parametrize(
        "coils,strategy",
        [(TWO_COILS, "torque_two_step"), (TWO_COILS[:1], "torque_one_step")],
    )
    def test_unrealizable_array_is_allocation_failure(
        self, tmp_path, capsys, coils, strategy
    ):
        # Two coils cannot span the field, one cannot span the torque plane:
        # exit 2 naming the first sample the per-sample loop fails on.
        model = {"name": "few", "coils": coils}
        cfg = write_json(tmp_path / "ab1.json", {
            "kind": "alloc_bench", "name": "ab1", "samples": 5, "model": model,
        })
        out = tmp_path / "o"
        assert main(["alloc-bench", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and "Traceback" not in err
        record = json.loads((out / "ab1_failure.json").read_text())
        assert sorted(out.iterdir()) == [out / "ab1_failure.json"]
        ref = alloc_bench_per_sample(
            ActuationModel("few", tuple(CoilSpec(**c) for c in coils)),
            5, 0, 0.002, 0.04, 0.3, 0.5,
        )["failure"]
        assert (record["stage"], record["sample"], record["strategy"]) == (
            "allocation", ref[0], ref[1]
        )
        assert record["strategy"] == strategy
        assert "rank-deficient" in record["error"]

    @pytest.mark.parametrize(
        "key,value,error",
        [("model", HUGE_COIL_MODEL, "LinAlgError: SVD did not converge")],
    )
    def test_numerical_error_is_allocation_failure(
        self, tmp_path, capsys, key, value, error
    ):
        # It was a traceback.  The record names the block of samples that
        # failed, here the first of two.
        data = json.loads(self.make_config(tmp_path, samples=BLOCK + 44).read_text())
        data[key] = value
        cfg = write_json(tmp_path / "bench.json", data)
        out = tmp_path / "o"
        assert main(["alloc-bench", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"numerical failure: allocation failed in samples 0 to {BLOCK - 1}: "
            f"{error}\n"
        )
        assert sorted(out.iterdir()) == [out / "bench_failure.json"]
        record = json.loads((out / "bench_failure.json").read_text())
        assert record == {"stage": "allocation", "samples": [0, BLOCK - 1],
                          "error": error}

    @pytest.mark.parametrize("key,value", [("tau_bar", 1e308)])
    def test_overflowing_norm_is_allocation_failure(
        self, tmp_path, capsys, key, value
    ):
        # It wrote a table of inf and NaN and exited 0.  The record names
        # the first sample with a current or field norm that is not finite,
        # here sample 0, where the per-sample oracle's norms overflow too.
        data = json.loads(self.make_config(tmp_path, samples=BLOCK + 44).read_text())
        data[key] = value
        cfg = write_json(tmp_path / "bench.json", data)
        with np.errstate(all="ignore"):
            values = alloc_bench_per_sample(
                get_model("octomag8"), BLOCK + 44, 0, data["tau_bar"], 0.04, 0.3,
                data["dipole_magnitude"])["values"]
        assert not np.isfinite(values[0, :4]).all()
        out = tmp_path / "o"
        assert main(["alloc-bench", "--config", str(cfg), "--out", str(out)]) == 2
        error = "a current or field norm is not finite"
        assert capsys.readouterr().err == (
            f"numerical failure: allocation failed at sample 0: {error}\n")
        assert sorted(out.iterdir()) == [out / "bench_failure.json"]
        record = json.loads((out / "bench_failure.json").read_text())
        assert record == {"stage": "allocation", "sample": 0, "error": error}

    @pytest.mark.parametrize("dipole", [1e-300, 1e300])
    def test_extreme_dipole_matches_per_sample_oracle(self, tmp_path, dipole):
        # The two-step field divided by the dipole's square, which underflows
        # to 0 at 1e-300 and raised OverflowError at 1e300: the bench failed.
        # At 1e300 the norms of 1e-301 A underflow when squared and are
        # rescaled, as the oracle's hypot does.  The norms match the
        # per-sample oracle's (1e-300, sample 1: 1.64e299 and 1.68e299 A),
        # and the angles and zeta* are NaN or 0 where its are.
        data = json.loads(self.make_config(tmp_path, samples=BLOCK + 44).read_text())
        data["dipole_magnitude"] = dipole
        cfg = write_json(tmp_path / "bench.json", data)
        out = tmp_path / "o"
        assert main(["alloc-bench", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "bench.csv").read_text().splitlines()[1:]
        values = np.array([[float(v) for v in row.split(",")[1:8]] for row in rows])
        with np.errstate(all="ignore"):
            want = alloc_bench_per_sample(
                get_model("octomag8"), BLOCK + 44, 0, 0.002, 0.04, 0.3, dipole)["values"]
        assert np.all(np.abs(values - want)[:, :4] <= 1e-10 * np.abs(want[:, :4]))
        assert np.all(values[:, :4] > 0.0)
        np.testing.assert_array_equal(values[:, 4:], want[:, 4:])

    def test_norm_whose_squares_overflow_is_reported(self, tmp_path):
        # At tau_bar 1e151 the squares of sample 39's currents overflow,
        # though the currents and their norms are finite (1.37e154 A, 3 %
        # over sqrt(max float)): the bench rescales that row and reports the
        # sample, as the per-sample oracle's hypot does.
        data = json.loads(self.make_config(tmp_path, samples=BLOCK + 44).read_text())
        data["tau_bar"] = 1e151
        cfg = write_json(tmp_path / "bench.json", data)
        out = tmp_path / "o"
        assert main(["alloc-bench", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "bench_summary.json").read_text())[
            "violation_count"] == 0
        rows = (out / "bench.csv").read_text().splitlines()[1:]
        values = np.array([[float(v) for v in row.split(",")[1:8]] for row in rows])
        with np.errstate(all="ignore"):
            want = alloc_bench_per_sample(
                get_model("octomag8"), BLOCK + 44, 0, 1e151, 0.04, 0.3, 0.5)["values"]
        squares = np.sqrt(np.finfo(float).max)
        assert np.flatnonzero(want[:, :2].max(axis=1) > squares).tolist() == [39]
        assert np.isfinite(values[:, :4]).all()
        assert np.all(np.abs(values - want)[:, :4] <= 1e-10 * np.abs(want[:, :4]))

    @pytest.mark.parametrize(
        "key,value",
        [("tau_bar", "NaN"), ("max_tilt", "Infinity"), ("samples", '"many"'),
         ("samples", "Infinity"), ("samples", "2.7"), ("dipole_magnitude", "-1.0")],
    )
    def test_bad_config_is_config_error(
        self, tmp_path, capsys, key, value
    ):
        data = json.loads(self.make_config(tmp_path).read_text())
        data[key] = "@"
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data).replace('"@"', value))
        assert main(["alloc-bench", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "key,value",
        [("samples", 1_000_000_000), ("tau_bar", -0.002),
         ("position_radius", 0.0), ("max_tilt", -0.1)],
    )
    def test_out_of_range_is_config_error(self, tmp_path, capsys, key, value):
        # Checked before any sample is drawn: nothing is written.
        data = json.loads(self.make_config(tmp_path).read_text())
        data[key] = value
        cfg = write_json(tmp_path / "bad.json", data)
        out = tmp_path / "o"
        assert main(["alloc-bench", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config error: {key} " in err and "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_bad_sample_count(self, tmp_path):
        cfg = write_json(
            tmp_path / "bench.json",
            {"kind": "alloc_bench", "name": "b", "samples": 0},
        )
        assert main(["alloc-bench", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 1


class TestEntryPoint:
    def test_usage_error_exit_1(self):
        assert pytest.raises(SystemExit, main, ["frobnicate"]).value.code == 1

    def test_module_invocation(self, tmp_path):
        cfg = tmp_path / "ws.json"
        cfg.write_text(json.dumps({
            "kind": "workspace",
            "name": "tiny",
            "model": "navion3",
            "current_limit": 25.0,
            "grid": {"x": [0.0, 0.0], "y": [0.0, 0.0], "z": [0.1, 0.12],
                     "spacing": 0.01},
            "tasks": {"fixed-field": {"field_magnitude": 0.025}},
        }))
        proc = subprocess.run(
            [sys.executable, "-m", "emnav", "workspace",
             "--config", str(cfg), "--out", str(tmp_path / "o")],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "o" / "tiny_field.csv").exists()

    @staticmethod
    def fresh(lines: list) -> str:
        """The standard output of ``lines`` run in a fresh interpreter, after
        ``import sys`` and ``from emnav.cli import main``: the test session
        has loaded scipy and numpy.random already."""
        import emnav

        src = str(Path(emnav.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "\n".join(["import sys", "from emnav.cli import main", *lines])],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_no_command_loads_scipy(self, small_workspace, short_torque, tmp_path):
        # scipy is the tests' oracle, not a dependency of any command,
        # controller synthesis included.
        bench = write_json(tmp_path / "bench.json", {
            "kind": "alloc_bench", "name": "bench", "samples": 20,
        })
        out = tmp_path / "o"
        stdout = self.fresh([
            f"assert main(['alloc-bench', '--config', {str(bench)!r}, "
            f"'--out', {str(out)!r}]) == 0",
            f"assert main(['workspace', '--config', {str(small_workspace)!r}, "
            f"'--out', {str(out)!r}]) == 0",
            f"assert main(['simulate', '--config', {str(short_torque)!r}, "
            f"'--out', {str(out)!r}]) == 0",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        assert stdout.strip() == "[]"
        assert (out / "bench.csv").exists() and (out / "small_torque.csv").exists()
        assert (out / "single_torque_summary.json").exists()

    def test_only_noise_loads_the_random_generator(
        self, small_workspace, short_torque, tmp_path
    ):
        # Importing numpy.random costs about 5 MB: a noise-free simulation
        # and a workspace map go without it; measurement noise draws from it.
        data = json.loads(short_torque.read_text())
        noisy = write_json(tmp_path / "noisy.json", {
            **data, "name": "noisy", "measurement_noise_std": 1e-4})
        out = tmp_path / "o"
        loaded = "print('numpy.random' in sys.modules)"
        stdout = self.fresh([
            f"assert main(['simulate', '--config', {str(short_torque)!r}, "
            f"'--out', {str(out)!r}]) == 0",
            f"assert main(['workspace', '--config', {str(small_workspace)!r}, "
            f"'--out', {str(out)!r}]) == 0",
            loaded,
            f"assert main(['simulate', '--config', {str(noisy)!r}, "
            f"'--out', {str(out)!r}]) == 0",
            loaded,
        ])
        assert stdout.split() == ["False", "True"]
        assert (out / "noisy_summary.json").exists()
