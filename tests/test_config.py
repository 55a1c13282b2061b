"""Config reading: one schema for every command, exit 1 with the JSON path
for every config it rejects, and no silent coercion."""

import copy
import json
import math
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, given, reject, settings
from hypothesis import strategies as st

import emnav.cli as cli
from emnav.cli import main
from emnav.config import (
    ALLOC_BENCH,
    BOOL,
    ConfigError,
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
from emnav.magmodel import get_model
from emnav.sim import (
    CHANNELS,
    DISTURBANCE_KINDS,
    EMNS_PRESETS,
    MULTI_STRATEGIES_BY_PARADIGM,
    SETPOINT_KINDS,
    SINGLE_STRATEGIES_BY_PARADIGM,
    scenario_from_dict,
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
        # A window that holds no control tick (both ends map to tick 21 at
        # 200 Hz) never acts.
        (_simulate_base, ("disturbances", 0),
         {"type": "torque_bias", "time": 0.1001, "duration": 0.0001,
          "magnitude": 0.01}, "disturbances[0]"),
        (_simulate_base, ("agents", 0, "integral_windows"), [[0.1001, 0.1002]],
         "agents[0].integral_windows[0]"),
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


@pytest.mark.parametrize("key", ["loop_latency", "current_bandwidth"])
def test_emns_overflow_is_config_error(tmp_path, capsys, nothing_runs, key):
    # At 200 Hz, a 1e308 s latency overflowed its tick count (an
    # OverflowError traceback), and a 1e308 Hz bandwidth the drivers' decay
    # rate 2 pi f (a NaN current grid, reported as a plant that diverged at
    # tick 0, exit 2).
    config = {**load("single_torque"), "duration": 0.1,
              "emns": {"control_rate": 200, "current_limit": 16,
                       "current_bandwidth": 26.4, key: 1e308}}
    code = run(tmp_path, "simulate", config)
    err = capsys.readouterr().err
    assert code == 1
    assert f"config error: emns: {key}" in err and "Traceback" not in err
    assert list((tmp_path / "out").iterdir()) == []


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


# --- schema-driven runs ------------------------------------------------------

#: The values a string key of the simulate tables takes, by (section, key).
CHOICES = {
    ("scenario", "paradigm"): tuple(SINGLE_STRATEGIES_BY_PARADIGM),
    ("scenario", "strategy"): tuple(
        name for table in (SINGLE_STRATEGIES_BY_PARADIGM, MULTI_STRATEGIES_BY_PARADIGM)
        for names in table.values() for name in names),
    ("setpoint", "type"): SETPOINT_KINDS,
    ("disturbance", "type"): DISTURBANCE_KINDS,
    ("disturbance", "channel"): CHANNELS,
}
#: Numbers at the edges of the float range, where a run overflows.
EDGES = (0.0, 5e-324, 1e-308, 1e-12, 1e12, 1e307, 1e308, -1e308)


def spelled_out(config: dict) -> dict:
    """A simulate config with its interface preset written as keys, and each
    optional section and one disturbance present, so that ``sections``
    reaches every table of the schema but the coil model's (``inline_model``
    writes that one out)."""
    if isinstance(config.get("emns"), str):
        config["emns"] = asdict(EMNS_PRESETS[config["emns"]])
    config.setdefault("plant", {})
    if not config.get("disturbances"):
        config["disturbances"] = [{"type": "impulse", "time": 0.0, "magnitude": 0.0}]
    for agent in config["agents"]:
        agent.setdefault("initial", {})
        agent.setdefault("setpoint", {})
    return config


def values(kind, current, section: str, key: str):
    """A strategy of in-type values of one key: near the current value,
    anywhere, or at the edges of the float range."""
    if kind is NUMBER:
        near = current if isinstance(current, (int, float)) else 1.0
        scale = st.sampled_from((-1.0, 0.0, 1e-3, 0.5, 2.0, 1e3)).map(
            lambda f: f * near)
        return st.one_of(scale, st.sampled_from(EDGES), st.floats(
            allow_nan=False, allow_infinity=False))
    if kind is BOOL:
        return st.booleans()
    if kind is STRING:
        return st.sampled_from(CHOICES[section, key])
    if isinstance(kind, Whole):
        return st.integers(kind.minimum if kind.minimum is not None else -2, 3)
    if isinstance(kind, Numbers):
        size = {"min_size": kind.length or 1, "max_size": kind.length or 5}
        return st.lists(values(NUMBER, None, section, key), **size)
    return st.lists(values(kind.item, None, section, key), max_size=2)


def sites(config: dict, schema: Section = SCENARIO) -> list:
    """(path, kind, section name, key) of every value the fuzzer may draw."""
    return [
        (parts + (key,), kind, section.name, key)
        for parts, section, value in sections(config, schema)
        for key, (kind, _) in section.keys.items()
        if key not in ("kind", "name", "duration")
        and (kind in (NUMBER, BOOL) or isinstance(kind, Whole)
             or (isinstance(kind, ListOf) and not isinstance(kind.item, Section))
             or (section.name, key) in CHOICES)
    ]


def artifacts(out: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def inline_model(config: dict) -> dict:
    """A config with its preset coil model written as coils, so that
    ``sites`` reaches the coil table."""
    model = get_model(config.get("model", "octomag8"))
    config["model"] = {"name": model.name, "coils": [
        {"position": list(c.position), "axis": list(c.axis),
         "moment_per_ampere": c.moment_per_ampere} for c in model.coils]}
    return config


SIMULATE_BASES = [inline_model(spelled_out(c)) for c in bundled()
                  if command_of(c) == "simulate"]
BENCH_AND_MAP_BASES = [inline_model(c) for c in bundled()
                       if command_of(c) != "simulate"]


def redraw(data, config: dict, schema: Section) -> None:
    """Redraw one to three in-range values of ``config``."""
    drawn = data.draw(st.lists(st.sampled_from(sites(config, schema)), min_size=1,
                               max_size=3, unique_by=lambda site: site[0]))
    for parts, kind, section, key in drawn:
        owner = config
        for part in parts[:-1]:
            owner = owner[part]
        set_at(config, parts, data.draw(values(kind, owner.get(key), section, key)))


def runs_or_fails_numerically(tmp_path, capsys, command: str, config: dict,
                              name: str) -> int:
    """Run ``config`` twice: each run exits 0, or 2 with a failure record
    and one stderr line, without a traceback or a RuntimeWarning, and the
    reruns match byte for byte.  Returns the exit code."""
    runs = []
    for _ in range(2):
        where = Path(tempfile.mkdtemp(dir=tmp_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(where, command, config)
        err = capsys.readouterr().err
        assert code in (0, 2), err
        assert "config error" not in err and "Traceback" not in err
        out = where / "out"
        if code == 2:
            assert err.startswith("numerical failure: ") and err.count("\n") == 1
            record = out / f"{name}_failure.json"
            summary = out / f"{name}_summary.json"
            assert record.exists() or json.loads(summary.read_text())["failure"]
        runs.append((code, artifacts(out)))
    assert runs[0] == runs[1]
    return code


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.filter_too_much])
@given(data=st.data())
def test_in_range_config_runs_or_fails_numerically(tmp_path, capsys, data):
    # A config the schema accepts either runs (exit 0) or fails numerically
    # (exit 2) with a record, never as a config error or a traceback, and
    # reruns byte for byte.  One to three values of a bundled config, its
    # coil model written out, are redrawn, and the run is cut to at most
    # 0.1 s and 100 agent-ticks.  An agent on a coil is a config error.
    config = copy.deepcopy(data.draw(st.sampled_from(SIMULATE_BASES)))
    redraw(data, config, SCENARIO)
    config["duration"] = data.draw(st.floats(1e-3, 0.1))
    try:
        scenario = scenario_from_dict(config)
    except ConfigError:
        reject()
    assume(scenario.schedule.ticks * len(scenario.agents) <= 100)
    code = runs_or_fails_numerically(tmp_path, capsys, "simulate", config,
                                     scenario.name)
    event(f"exit {code}")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.filter_too_much])
@given(data=st.data())
def test_in_range_bench_and_map_config_runs_or_fails_numerically(
    tmp_path, capsys, data
):
    # The same for alloc-bench and workspace, their coil model written out:
    # at most 3 samples (the bundled alloc-bench is cut to 3) and 500 grid
    # points.  A grid point or the second agent on a coil is the one
    # documented config error after the read.
    config = copy.deepcopy(data.draw(st.sampled_from(BENCH_AND_MAP_BASES)))
    command = command_of(config)
    redraw(data, config, SCHEMAS[command])
    try:
        read = SCHEMAS[command].read(config)
    except ConfigError:
        reject()
    if command == "workspace":
        assume(math.prod(read["grid"]._axis_count(k) for k in "xyz") <= 500)
    try:
        code = runs_or_fails_numerically(tmp_path, capsys, command, config,
                                         read["name"])
    except AssertionError as exc:  # its message holds the stderr
        if "coincides with coil" not in str(exc):
            raise
        reject()
    event(f"exit {code}")


def _bench() -> dict:
    return {**load("alloc_bench"), "samples": 50}


def _navion_map() -> dict:
    return load("workspace_navion_standoff")


def _huge_coils(config: dict) -> dict:
    """``config`` with its coil model written inline at 1e308 A m^2/A."""
    config = inline_model(config)
    for coil in config["model"]["coils"]:
        coil["moment_per_ampere"] = 1e308
    return config


@pytest.mark.parametrize(
    "config,code",
    [
        # An SVD that did not converge and an overflow were tracebacks; a
        # workspace SVD failure was a config error.
        pytest.param(_huge_coils(_bench()), 2, id="alloc-bench-huge-coils"),
        pytest.param({**_bench(), "dipole_magnitude": 1e300}, 2,
                     id="alloc-bench-dipole_magnitude-1e300"),
        # A range too wide for numpy's uniform draw: a traceback too.
        pytest.param({**_bench(), "position_radius": 1e308}, 2,
                     id="alloc-bench-position_radius-1e308"),
        pytest.param(_huge_coils(_navion_map()), 2, id="workspace-huge-coils"),
        # These ran, numpy warning, then wrote inf and NaN norms (alloc-bench)
        # or flagged full-rank points "singular" (workspace): overflows.
        pytest.param({**_bench(), "tau_bar": 1e308}, 2,
                     id="alloc-bench-tau_bar-1e308"),
        pytest.param({**_bench(), "dipole_magnitude": 1e-300}, 2,
                     id="alloc-bench-dipole_magnitude-1e-300"),
        pytest.param({**_navion_map(), "tasks": {
            "torque-box": {"tau_bar": 1e308},
            "fixed-field": {"field_magnitude": 0.025}}}, 2,
            id="workspace-tau_bar-1e308"),
    ],
)
def test_probe_configs_run_or_fail_numerically(tmp_path, capsys, config, code):
    assert runs_or_fails_numerically(
        tmp_path, capsys, command_of(config), config, config["name"]) == code
