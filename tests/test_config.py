"""Config reading: one schema for every command, exit 1 with the JSON path
for every config it rejects, and no silent coercion."""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import emnav.cli as cli
from emnav.cli import main
from emnav.config import (
    ALLOC_BENCH,
    BOOL,
    NUMBER,
    REQUIRED,
    SCENARIO,
    STRING,
    WORKSPACE,
    ListOf,
    Numbers,
    Preset,
    Section,
    Whole,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SCHEMAS = {"simulate": SCENARIO, "alloc-bench": ALLOC_BENCH, "workspace": WORKSPACE}
DROP = object()


def load(name: str) -> dict:
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text())


def json_path(parts) -> str:
    text = ""
    for part in parts:
        if isinstance(part, int):
            text += f"[{part}]"
        else:
            text += f".{part}" if text else part
    return text


def command_of(config: dict) -> str:
    return config.get("kind", "simulate").replace("_", "-")


def bundled() -> list:
    """Every bundled config; alloc-bench at 3 samples."""
    configs = []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        data = json.loads(path.read_text())
        if command_of(data) == "alloc-bench":
            data["samples"] = 3
        configs.append(data)
    return configs


def run(tmp_path, command: str, config: dict, *flags) -> int:
    """Exit code of ``emnav COMMAND`` on ``config``; argparse exits count too."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out"),
            *flags]
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def nothing_runs(monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "run_scenario", must_not_run)
    monkeypatch.setattr(cli, "workspace_map", must_not_run)


def set_at(config: dict, parts: tuple, value) -> None:
    target = config
    for part in parts[:-1]:
        target = target[part]
    if value is DROP:
        del target[parts[-1]]
    else:
        target[parts[-1]] = value


# --- satellite regressions ---------------------------------------------------

def _simulate_base() -> dict:
    data = load("single_torque")
    data["disturbances"] = [{"type": "impulse", "time": 0.1, "magnitude": 0.1}]
    return data


def _alloc_base() -> dict:
    return {**load("alloc_bench"), "samples": 3}


def _two_step_base() -> dict:
    return {**_simulate_base(), "strategy": "torque_two_step"}


def _multi_torque_base() -> dict:
    return load("multi_torque_inphase")


def _field_base() -> dict:
    return load("single_field")


_TYPO_COIL_MODEL = {"name": "one", "coils": [
    {"position": [0.0, 0.0, -0.2], "axis": [0.0, 0.0, 1.0],
     "moment_per_ampere": 50.0, "typo": 1}
]}


@pytest.mark.parametrize(
    "base,parts,value,named",
    [
        (_simulate_base, ("agents", 0, "pendulum_attached"), "false", None),
        (_simulate_base, ("agents", 0, "controller", "integral_enabled"), "no",
         None),
        (_simulate_base, ("include_force",), "no", None),
        (_simulate_base, ("agents", 0, "polarity"), 1.7, None),
        (_simulate_base, ("disturbances", 0, "agent"), 0.7, None),
        (_simulate_base, ("seed",), 2.5, None),
        (_simulate_base, ("seed",), True, None),
        (_alloc_base, ("samples",), True, None),
        (_alloc_base, ("sample",), 5, None),
        (lambda: load("workspace_navion_standoff"), ("current_limit",), "25",
         None),
        (lambda: load("workspace_navion_standoff"), ("orientaton",), [0.3, 0],
         None),
        (lambda: load("workspace_navion_standoff"), ("plant", "dipole_magnitud"),
         2, None),
        (lambda: load("workspace_navion_standoff"), ("tasks", "torque-box", "x"),
         1.0, None),
        (lambda: load("workspace_navion_standoff"), ("grid", "w"), [0.0, 0.0],
         None),
        (lambda: load("workspace_navion_standoff"), ("model",), _TYPO_COIL_MODEL,
         "model.coils[0].typo"),
        # Strategies the simulator no longer runs.
        (_simulate_base, ("strategy",), "torque_twostep_JM", "torque_twostep_JM"),
        (_simulate_base, ("strategy",), "torque_twostep_MA", "torque_twostep_MA"),
        # Only torque_one_step chooses whether to use gradient forces.
        (_two_step_base, ("include_force",), False, None),
        (_multi_torque_base, ("include_force",), False, None),
        (_field_base, ("include_force",), False, None),
        # duration applies to torque_bias only.
        (_simulate_base, ("disturbances", 0, "duration"), 0.05, "disturbances[0]"),
        # An event after the last tick (3.995 s of a 4 s run at 200 Hz)
        # never starts.
        (_simulate_base, ("disturbances", 0, "time"), 3.998, "disturbances[0]"),
        # Keys since removed: an agent's controller and integral windows
        # apply to both channels.
        (_simulate_base, ("agents", 0, "controller_beta"),
         {"q_diag": [20.0, 40.0, 1.0, 1.0]}, None),
        (_simulate_base, ("agents", 0, "integral_windows_beta"), [[0.0, 1.0]],
         None),
        # Controller values that were coerced: a negative cutoff made the
        # low-pass gain negative, a zero cutoff ran no filter, and a negative
        # windup limit ran as its absolute value.
        (_simulate_base, ("agents", 0, "controller", "velocity_filter_cutoff"),
         -50.0, "agents[0].controller: velocity_filter_cutoff"),
        (_simulate_base, ("agents", 0, "controller", "velocity_filter_cutoff"),
         0.0, "agents[0].controller: velocity_filter_cutoff"),
        (_simulate_base, ("agents", 0, "controller", "anti_windup_limit"),
         -0.05, "agents[0].controller: anti_windup_limit"),
        # Setpoint keys that the setpoint's type does not read.
        (_simulate_base, ("agents", 0, "setpoint", "radius"), 0.05,
         "agents[0].setpoint: radius"),
        (_multi_torque_base, ("agents", 0, "setpoint", "alpha"), 0.1,
         "agents[0].setpoint: alpha"),
        # A release or an integral window after the last tick never starts.
        (_simulate_base, ("agents", 0, "release_time"), 3.998, None),
        (_simulate_base, ("agents", 0, "integral_windows"), [[3.998, 5.0]],
         "agents[0].integral_windows[0]"),
        # Overlapping and reversed integral windows are rejected with their
        # agent.
        (_simulate_base, ("agents", 0, "integral_windows"),
         [[0.0, 2.0], [1.0, 3.0]], "agents[0]"),
        (_simulate_base, ("agents", 0, "integral_windows"), [[2.0, 1.0]],
         "agents[0]"),
    ],
    ids=lambda v: json_path(v) if isinstance(v, tuple) else None,
)
def test_no_silent_coercion(tmp_path, capsys, nothing_runs, base, parts, value,
                            named):
    # Each of these used to exit 0: it ran a variant other than the one
    # written, fell back to a default, ran a strategy since removed, or set
    # a key since removed.
    config = base()
    set_at(config, parts, value)
    code = run(tmp_path, command_of(config), config)
    err = capsys.readouterr().err
    assert code == 1
    assert "config error" in err and (named or json_path(parts)) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "base,parts,value,flags",
    [
        (_alloc_base, None, None, ("--seed", "-1")),
        (_simulate_base, None, None, ("--seed", "-1")),
        (_alloc_base, ("seed",), -1, ()),
        (_alloc_base, ("seed",), "x", ()),
        (_simulate_base, ("plant",), 5, ()),
    ],
    ids=["alloc-bench--seed-1", "simulate--seed-1", "alloc-seed-negative",
         "alloc-seed-string", "simulate-plant-not-object"],
)
def test_former_traceback_is_exit_1(tmp_path, capsys, nothing_runs, base, parts,
                                    value, flags):
    config = base()
    if parts is not None:
        set_at(config, parts, value)
    code = run(tmp_path, command_of(config), config, *flags)
    err = capsys.readouterr().err
    assert code == 1
    assert ("--seed" if flags else json_path(parts)) in err
    assert "Traceback" not in err


# --- schema-driven rejection -------------------------------------------------

# Values of another JSON type than each kind takes, by kind (the scalars)
# or by class.  None is left out: an optional key whose default is None
# takes null.
SCALARS = (NUMBER, BOOL, STRING)
WRONG = {
    NUMBER: ("1.5", True, [1.0]),
    BOOL: ("true", 1, 0),
    STRING: (1, True, ["x"]),
    Whole: ("1", True, 1.5),
    Numbers: ("0.0", {"x": 0.0}, [True]),
    ListOf: ("x", {"x": 1}),
    Section: ([], "x", 1),
    Preset: (1, [], True),
}


def sections(value, kind, parts=()):
    """(parts, section, value) of every section present in a config."""
    if isinstance(kind, Preset):
        kind = kind.section
    if isinstance(kind, Section) and isinstance(value, dict):
        yield parts, kind, value
        for key, (sub, _) in kind.keys.items():
            if key in value:
                yield from sections(value[key], sub, parts + (key,))
    elif isinstance(kind, ListOf):
        for index, item in enumerate(value):
            yield from sections(item, kind.item, parts + (index,))


def mutations(parts, section, value):
    """(what, where, new value or DROP, what the message must name)."""
    unknown = parts + ("zz_unknown",)
    yield "unknown key", unknown, 0.0, (json_path(unknown),)
    for key, (kind, default) in section.keys.items():
        where = parts + (key,)
        if default is REQUIRED and key in value:
            named = (f"missing required key '{key}'",)
            yield "drop", where, DROP, named + ((json_path(parts),) if parts else ())
        for bad in WRONG[kind if kind in SCALARS else type(kind)]:
            yield "wrong type", where, bad, (json_path(where),)
        for bad in (math.nan, math.inf, -math.inf):
            if kind is NUMBER or isinstance(kind, Whole):
                yield "non-finite", where, bad, (json_path(where),)
            elif isinstance(kind, Numbers):
                numbers = list(value.get(key, [0.0] * (kind.length or 1)))
                numbers[0] = bad
                yield "non-finite", where, numbers, (json_path(where + (0,)),)


MUTATIONS = [
    (command_of(config), config, mutation)
    for config in bundled()
    for parts, section, value in sections(config, SCHEMAS[command_of(config)])
    for mutation in mutations(parts, section, value)
]


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from(MUTATIONS))
def test_schema_mutation_is_config_error(tmp_path, capsys, nothing_runs, case):
    # Every key of every section comes from the tables, so each kind, each
    # required key and each section of the bundled configs is reachable.
    command, base, (what, where, new, named) = case
    config = copy.deepcopy(base)
    set_at(config, where, new)
    code = run(tmp_path, command, config)
    err = capsys.readouterr().err
    assert code == 1, (what, where, new)
    assert "config error" in err and "Traceback" not in err
    for text in named:
        assert text in err, (what, where, new, err)

